"""Tests of the benchmark itself: statistics, spans, checks and inputs.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import run
import session
import stats
import tracer
import workloads

ROOT = run.ROOT


# -- the percentile rule ------------------------------------------------------------


def test_percentile_interpolates_between_order_statistics():
    assert stats.percentile([4, 1, 3, 2], 50) == 2.5
    assert stats.percentile(list(range(101)), 90) == 90


@pytest.mark.parametrize("n, want, expect", [
    (100, 90, 90.0),    # exactly ten samples beyond p90
    (1000, 90, 90.0),
    (50, 90, 80.0),     # p80 is the highest with ten beyond
    (99, 90, 100 * (1 - 10 / 99)),
    (20, 90, 50.0),
    (4, 90, 50.0),      # never below the median
])
def test_tail_rank_keeps_ten_samples_beyond(n, want, expect):
    p = stats.tail_rank(n, want)
    assert p == pytest.approx(expect)
    if p > 50:
        value = stats.percentile([float(i) for i in range(n)], p)
        assert sum(1 for i in range(n) if i > value) >= stats.MIN_BEYOND


# -- spans and self time --------------------------------------------------------------


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 6]
    rec = tracer.SpanRecorder(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    outer = rec.begin("outer")
    a = rec.begin("a")
    g = rec.begin("g")
    rec.end(g)
    rec.end(a)
    b = rec.begin("b")
    rec.end(b)
    rec.end(outer)
    s = rec.summary()
    assert s["outer"] == {"calls": 1, "total_s": 10, "self_s": 6}
    assert s["a"] == {"calls": 1, "total_s": 3, "self_s": 2}
    assert s["g"]["self_s"] == 1 and s["b"]["self_s"] == 1
    assert rec.edges() == {"<root> -> outer": 1, "outer -> a": 1, "a -> g": 1, "outer -> b": 1}


def test_wrapped_recursion_splits_self_time_per_call():
    rec = tracer.SpanRecorder(clock=FakeClock(range(100)))

    def fact(n):
        return 1 if n == 0 else n * traced(n - 1)

    traced = rec.wrap("fact", fact)
    assert traced(3) == 6
    s = rec.summary()["fact"]
    # four nested spans; self times add up to the outermost duration
    assert s["calls"] == 4
    assert s["self_s"] == rec.span_end[0] - rec.span_start[0]


def test_disabled_recorder_records_nothing():
    rec = tracer.SpanRecorder()
    traced = rec.wrap("f", lambda: 1)
    rec.enabled = False
    assert traced() == 1 and len(rec) == 0


# -- output checks --------------------------------------------------------------------


@pytest.fixture(scope="module")
def sess():
    return session.Session(["quantum|A3", "affine|A3"])


def test_oracles_accept_real_outputs_and_reject_corrupted_ones(sess):
    star = "star|A3|s1s2|s2s3"
    out = sess.run(star)
    assert sess.oracle(star, out)
    ring = session.quantum.quantum_aff("A", 3)
    assert not sess.oracle(star, out + ring.basis(ring.FW.w0))

    comm = "commutator|A3|s0s1|1|2"
    a, b = sess.run(comm)
    assert sess.oracle(comm, (a, b))
    calc = session.affine.affine_coh("A", 3)
    assert not sess.oracle(comm, (a, b + calc.unit().scale(Fraction(1))))

    nbhd = "nbhd|A3|s1|1,0,0,0"
    comps = sess.run(nbhd)
    assert sess.oracle(nbhd, comps)
    assert not sess.oracle(nbhd, comps + [calc.W.identity])

    rel = "relation|A3|H1"
    assert sess.oracle(rel, sess.run(rel)) and not sess.oracle(rel, False)


def test_corrupted_output_raises_failed_count(sess):
    digests = workloads.load_digests()["qh-table"]
    queries = ["star|A3|s1|s2", "star|A3|s2|s3s2", "relation|A3|H2"]
    outs = [sess.run(q) for q in queries]
    good = [session.digest(sess.canonical(q, o)) for q, o in zip(queries, outs)]
    job = {"queries": queries}
    clean = {"errors": [], "digests": good, "oracle_failed": []}
    assert run.count_failures([(job, clean)], digests) == (3, 0)

    ring = session.quantum.quantum_aff("A", 3)
    corrupt = session.digest(sess.canonical(queries[0], outs[0] + ring.basis(ring.FW.w0)))
    bad = dict(clean, digests=[corrupt] + good[1:])
    assert run.count_failures([(job, bad)], digests) == (3, 1)
    raised = dict(clean, errors=[[2, "ValueError: x"]], digests=good[:2] + [None])
    assert run.count_failures([(job, raised)], digests) == (3, 1)
    rejected = dict(clean, oracle_failed=[1])
    assert run.count_failures([(job, clean), (job, rejected)], digests) == (6, 1)


def test_recorded_digests_match_outputs(sess):
    digests = workloads.load_digests()
    for name, queries in [("qh-table", ["star|A3|s1s2|s2s3", "relation|A3|H3"]),
                          ("affine-sweep", ["commutator|A3|s0s1|1|2", "nbhd|A3|s1|1,0,0,0"])]:
        for q in queries:
            assert digests[name][q] == session.digest(sess.canonical(q, sess.run(q)))


# -- seeded inputs ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_determines_inputs(name):
    population = sorted(workloads.load_digests()[name])
    wl = workloads.WORKLOADS[name]
    runs = [[wl.queries(name, population, seed, k) for k in range(3)] for seed in (7, 7, 8)]
    assert runs[0] == runs[1]
    assert runs[0] != runs[2]
    assert runs[0][0] != runs[0][1]  # sessions of one run draw differently
    assert all(set(qs) <= set(population) for qs in runs[2])


def test_table_covers_every_product_in_length_order():
    population = sorted(workloads.load_digests()["qh-table"])
    qs = workloads.WORKLOADS["qh-table"].queries("qh-table", population, 3, 0)
    assert sorted(qs) == population
    rows = [workloads.word_length(q.split("|")[2]) for q in qs if q.startswith("star|")]
    assert rows == sorted(rows)


def test_sweep_covers_every_element_and_neighborhood():
    population = sorted(workloads.load_digests()["affine-sweep"])
    qs = workloads.WORKLOADS["affine-sweep"].queries("affine-sweep", population, 3, 1)
    comms = [q.split("|")[2] for q in qs if q.startswith("commutator|")]
    assert sorted(comms) == sorted({q.split("|")[2] for q in population
                                    if q.startswith("commutator|")})
    assert sorted(q for q in qs if q.startswith("nbhd|")) == [
        q for q in population if q.startswith("nbhd|")]


# -- the contract with BENCHMARK.json -------------------------------------------------------


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [m["name"] for m in spec["per_layer"]] == tracer.PER_LAYER
    assert all(m["unit"] == tracer.unit_of(m["name"]) for m in spec["per_layer"])


def test_traced_session_reports_every_layer_metric():
    job = {"src": str(run.SRC), "setup": ["quantum|G2"], "queries": ["star|G2|s1|s2s1"],
           "oracles": True, "trace": True}
    res = run.run_session(job)
    assert set(res["layers"]) == set(tracer.PER_LAYER) - {"trace.overhead_frac"}
    assert res["layers"]["quantum.star.calls"] == 1
    assert res["layers"]["bgg.theta_matrix.self_s"] > 0
    assert res["oracle_failed"] == [] and res["errors"] == []


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qh-table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
