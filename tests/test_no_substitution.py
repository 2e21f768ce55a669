"""No run-time path reaches polynomial substitution.

``Poly.substitute`` and ``exact_div_linear`` are used only by the test-side
polynomial oracle (``bgg_oracle.py``) and by tests.  A fresh interpreter
replaces both with a function that raises, then runs ``verify`` with every
suite on A2, B2 and G2 and every call of the CLI golden.  A fresh
interpreter starts with empty memos, so no cached result hides a call.

Run directly, this file performs those runs and prints the results as JSON.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
VERIFY_TYPES = ["A2", "B2", "G2"]


class SubstitutionReached(RuntimeError):
    pass


def _refuse(*args, **kwargs):
    raise SubstitutionReached("polynomial substitution reached")


def _install_guard():
    import qaff.polynomials

    qaff.polynomials.Poly.substitute = _refuse
    for name, module in list(sys.modules.items()):
        if name.startswith("qaff") and hasattr(module, "exact_div_linear"):
            module.exact_div_linear = _refuse


def _guarded_runs() -> dict:
    _install_guard()
    from qaff.cli import main
    from test_cli_golden import CALLS, GOLDEN, run_call

    verify = {}
    for lt in VERIFY_TYPES:
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                verify[lt] = main(["verify", "--type", lt])
            except SubstitutionReached as exc:
                verify[lt] = str(exc)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    mismatched = []
    for k, argv in enumerate(CALLS):
        try:
            ok = run_call(argv) == golden[k]
        except SubstitutionReached:
            ok = False
        if not ok:
            mismatched.append(" ".join(argv))
    # the guard itself is live: the polynomial oracle trips it
    from bgg_oracle import PolynomialBGG
    from qaff.bgg import finite_schubert

    oracle = PolynomialBGG(finite_schubert("A", 2))
    try:
        oracle.rep(oracle.w0)
        guard_live = False
    except SubstitutionReached:
        guard_live = True
    return {"verify": verify, "calls": len(CALLS), "mismatched": mismatched,
            "guard_live": guard_live}


@pytest.fixture(scope="module")
def guarded():
    env = dict(os.environ)
    src = TESTS.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(TESTS)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve())], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def test_guard_trips_the_polynomial_oracle(guarded):
    assert guarded["guard_live"]


@pytest.mark.parametrize("lt", VERIFY_TYPES)
def test_verify_passes_without_substitution(guarded, lt):
    assert guarded["verify"][lt] == 0


def test_golden_calls_match_without_substitution(guarded):
    assert guarded["calls"] == 57
    assert guarded["mismatched"] == []


if __name__ == "__main__":
    print(json.dumps(_guarded_runs()))
