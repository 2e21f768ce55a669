"""The benchmark tracer (``perfbench/tracer.py``) still fits the package.

The tracer wraps qaff functions by name and reads memo attributes of live
instances, so a rename in ``src/qaff`` breaks ``perfbench/run.py --trace``
without failing any other test.  The tracer is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from qaff.bgg import FiniteSchubert
from qaff.quantum import QuantumAff
from qaff.roots import affinize, build_root_system
from qaff.weyl import AffineWeylGroup

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_as_install_does(tracer):
    missing = []
    for span, mod, path, _ in tracer.TARGETS:
        owner = importlib.import_module(mod)
        *head, attr = path.split(".")
        for part in head:
            owner = getattr(owner, part)
        if attr not in vars(owner):
            missing.append(span)
    assert missing == []


def test_fresh_instances_carry_the_memos_layer_metrics_reads(tracer):
    instances = {
        "AffineWeylGroup": AffineWeylGroup(affinize("A", 2)),
        "FiniteSchubert": FiniteSchubert(build_root_system("A", 2)),
        "QuantumAff": QuantumAff("A", 2),
    }
    assert {cls for _, cls in tracer.TRACKED} == set(instances)
    memos = {
        "AffineWeylGroup": ["_covers_memo", "_bruhat_memo", "_word_memo"],
        "FiniteSchubert": ["_divisor_expr"],
        "QuantumAff": ["_lift_img", "_lambda_img"],
    }
    for cls, attrs in memos.items():
        for attr in attrs:
            assert len(getattr(instances[cls], attr)) == 0, (cls, attr)
