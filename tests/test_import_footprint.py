"""What a run that is not ``verify``, ``qsharp`` or a single command imports.

A benchmark session imports ``qaff`` and four of its modules, and without a
bytecode cache it compiles every line of them.  The cross-checks of
``verify`` (``qaff.verify``), the first ring ``q#`` (``qaff.divisor_ring``)
and the command-only code (``qaff.cli``) are kept out of that import, while
every name the benchmark reads stays at its path.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_source_hygiene import _tracer_targets

from qaff import cli, verify

SRC = Path(__file__).resolve().parents[1] / "src"
LEFT_OUT = ["qaff.cli", "qaff.verify", "qaff.divisor_ring"]
# (module, attribute path) per name that perfbench/session.py and perfbench/record.py read
SESSION_READS = [
    ("qaff.quantum", "quantum_aff"), ("qaff.quantum", "ordinary_qh"),
    ("qaff.quantum", "QuantumAff.star"), ("qaff.quantum", "QuantumAff.basis"),
    ("qaff.quantum", "QuantumAff.specialize_q0"), ("qaff.quantum", "OrdinaryQH.star"),
    ("qaff.affine", "affine_coh"), ("qaff.affine", "AffineCoh.modified_lambda"),
    ("qaff.toda", "relations_for"), ("qaff.toda", "verify_relation"),
    ("qaff.neighborhoods", "curve_neighborhood"), ("qaff.neighborhoods", "neighborhood_by_search"),
    ("qaff.roots", "parse_lie_type"), ("qaff.polynomials", "QClass.homogeneous_degree"),
    ("qaff.polynomials", "QClass.to_json_obj"), ("qaff.weyl", "AffineWeylGroup.simple"),
    ("qaff.weyl", "AffineWeylGroup.parse"), ("qaff.weyl", "AffineWeylGroup.reduced_word"),
    ("qaff.weyl", "FiniteWeyl.parse"),
]

# reads (module, path) pairs from stdin; prints the modules left out that were loaded
# and the pairs that did not resolve
CHILD = """
import json, sys
import qaff
from qaff import affine, neighborhoods, quantum, toda
loaded = [m for m in %r if m in sys.modules]
missing = []
for mod, path in json.load(sys.stdin):
    owner = sys.modules.get(mod)
    for part in path.split("."):
        owner = getattr(owner, part, None)
    if owner is None:
        missing.append([mod, path])
print(json.dumps({"loaded": loaded, "missing": missing}))
""" % LEFT_OUT


def test_session_import_leaves_out_verify_divisor_ring_and_cli():
    reads = SESSION_READS + [(mod, path) for _, mod, path, _ in _tracer_targets()]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(reads), env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == {"loaded": [], "missing": []}


def test_parser_names_every_suite_in_run_order():
    assert cli.SUITE_NAMES == tuple(verify.SUITES)
