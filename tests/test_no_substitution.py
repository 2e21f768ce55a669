"""No run-time path reaches polynomial substitution, and the runs reach the package.

``Poly.substitute`` and ``exact_div_linear`` are used only by the test-side
polynomial oracle (``bgg_oracle.py``) and by tests.  A fresh interpreter
replaces both with a function that raises, then runs ``verify`` with every
suite on A2, B2 and G2 and every call of the CLI golden.  A fresh
interpreter starts with empty memos, so no cached result hides a call.

The same runs record each function they enter, by a ``sys.settrace`` hook
that returns ``None`` and so traces no lines.  A code object's file and
first line name its definition, so a dead method is seen even when a live
one shares its name.  Every function or method of the package that the runs
never enter, dunders included, must be one the benchmark keeps or a dunder
kept for a stated reason (``NOT_REACHED``).

Run directly, this file performs those runs and prints the results as JSON,
the unreached definitions included.
"""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "qaff"
VERIFY_TYPES = ["A2", "B2", "G2"]

# What the runs never enter, as ``module.qualified.name``, by why it is kept:
# perfbench/tracer.py wraps these, and its install() fails on a missing one;
TRACED = {"bgg.FiniteSchubert.chevalley_cup", "bgg.FiniteSchubert.divisor_monomials",
          "bgg.FiniteSchubert.express_in_divisors", "polynomials.Poly.substitute",
          "polynomials.exact_div_linear"}
# perfbench/session.py and perfbench/record.py read these;
BENCH_READS = {"affine.affine_coh", "polynomials.QClass.homogeneous_degree",
               "weyl.AffineWeylGroup.simple"}
# only the tracer target ``FiniteSchubert.express_in_divisors`` reaches these;
VIA_TRACED = {"bgg.FiniteSchubert.monomial_class"}
# and these dunders are kept for the reason given.
DUNDERS = {
    # only the tracer target ``Poly.substitute`` raises a Poly to a power
    "polynomials.Poly.__pow__",
    # the module doctest and the display of a Poly
    "polynomials.Poly.__str__", "polynomials.Poly.__repr__",
    # a value API that tests/test_roots.py checks
    "roots.AffineRoot.__neg__",
    # the tests compare boundary forms by value and put them in sets
    "weyl.FinW.__eq__", "weyl.FinW.__hash__",
    # the name of a group in an id refusal, which the runs never make
    "weyl.FiniteWeyl.__str__", "weyl.AffineWeylGroup.__str__",
}
NOT_REACHED = TRACED | BENCH_READS | VIA_TRACED | DUNDERS


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


def _definitions() -> dict:
    """``(file, first line) -> "module.qualified.name"`` per module-level function and
    per method of a module-level class, dunders included.  A decorated definition
    starts at its first decorator, as its ``co_firstlineno`` does."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            scope = [(node, path.stem)]
            if isinstance(node, ast.ClassDef):
                scope = [(item, f"{path.stem}.{node.name}") for item in node.body]
            for fn, prefix in scope:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                    out[(str(path), first)] = f"{prefix}.{fn.name}"
    return out


def _unreached(codes) -> list:
    """The definitions none of ``codes`` (entered code objects) starts."""
    defs = _definitions()
    reached = {defs.get((str(Path(code.co_filename).resolve()), code.co_firstlineno))
               for code in codes}
    return sorted(set(defs.values()) - reached)


def _guarded_runs() -> dict:
    entered = set()

    def on_call(frame, event, arg):
        entered.add(frame.f_code)  # returns None: no line events in the frame

    sys.settrace(on_call)  # before the first import of the package
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
    sys.settrace(None)  # what the oracle below enters is not a run-time path
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
            "guard_live": guard_live, "unreached": _unreached(entered)}


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


def test_runs_reach_every_definition_the_benchmark_does_not_keep(guarded):
    from test_source_hygiene import _tracer_targets  # it imports qaff, so not at the top

    targets = {f"{mod.removeprefix('qaff.')}.{path}" for _, mod, path, _ in _tracer_targets()}
    assert TRACED <= targets
    assert guarded["unreached"] == sorted(NOT_REACHED)


if __name__ == "__main__":
    print(json.dumps(_guarded_runs()))
