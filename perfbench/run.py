"""The qaff benchmark: one command, run from the root of a checkout.

    python3 perfbench/run.py --workload qh-table --seed 1 --seconds 25 --trace 0

It draws inputs from the seed, runs cold sessions of the workload one after
another (each a fresh interpreter, see session.py) until ``--seconds`` have
passed, checks every output, and prints every metric by name and unit.  The
last line of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
sessions alternate between untraced and traced, and the metrics are the
per-layer ones.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = HERE / "out"

# At least this many sessions of each kind per run, however long they take.
MIN_SESSIONS = 3
SESSION_TIMEOUT_S = 150
# Workloads with at most this many queries also get each query's time printed.
SHOW_QUERIES = 10
# How long one speed sample (session.SpeedProbe.measure) takes on an
# uncontended core of the host the bounds were set on.  Reported times are
# scaled to this speed; see README.md.
REF_PROBE_S = 0.0016
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "query_p50_ms": "ms", "query_p90_ms": "ms",
             "peak_rss_mb": "MB"}


class SessionFailed(RuntimeError):
    pass


def run_session(job: dict) -> dict:
    """Run one session in a fresh interpreter and wait for it to end."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, str(HERE / "session.py")],
        input=json.dumps(job), capture_output=True, text=True, env=env,
        cwd=ROOT, timeout=SESSION_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SessionFailed(f"session exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout)


def count_failures(sessions: list[tuple[dict, dict]], digests: dict[str, str]) -> tuple[int, int]:
    """``(attempted, failed)``.  A query fails when it raised, when its digest
    differs from the recorded one, or when its oracle rejected the output."""
    attempted = failed = 0
    for job, res in sessions:
        bad = {idx for idx, _msg in res["errors"]} | set(res.get("oracle_failed", ()))
        for idx, (query, got) in enumerate(zip(job["queries"], res["digests"])):
            if digests.get(query) != got:
                bad.add(idx)
        attempted += len(job["queries"])
        failed += len(bad)
    return attempted, failed


def raw(interval: list[float]) -> float:
    start, end, spent = interval
    return end - start - spent


def scaled(interval: list[float], probe: list[list[float]]) -> float:
    """An interval's time at the reference speed: its raw time times
    REF_PROBE_S over the mean speed sample taken during it (or, for a short
    interval with none, the samples just before and after it)."""
    starts = [t for t, _ in probe]
    lo = bisect.bisect_left(starts, interval[0])
    hi = bisect.bisect_right(starts, interval[1])
    near = [d for _, d in probe[lo:hi]] or [d for _, d in probe[max(lo - 1, 0):hi + 1]]
    return raw(interval) * REF_PROBE_S * len(near) / sum(near)


def session_metrics(res: dict) -> dict[str, float]:
    """The end-to-end metrics of one untraced session, at the reference speed."""
    latency_ms = [scaled(q, res["probe"]) * 1e3 for q in res["queries"]]
    return {
        "wall_s": sum(latency_ms) / 1e3,
        "setup_s": scaled(res["setup"], res["probe"]),
        "query_p50_ms": stats.percentile(latency_ms, 50),
        "query_p90_ms": stats.percentile(latency_ms, stats.tail_rank(len(latency_ms))),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def end_to_end(results: list[dict]) -> tuple[dict[str, float], dict[str, str]]:
    """Each end-to-end metric as its median over the untraced sessions, and a note."""
    per_session = [session_metrics(r) for r in results]
    metrics = {k: statistics.median([m[k] for m in per_session]) for k in E2E_UNITS}
    n, nq = len(results), len(results[0]["queries"])
    sessions = f"median of {n} sessions"
    notes = {
        "wall_s": f"{sessions}; unscaled "
                  f"{statistics.median([sum(map(raw, r['queries'])) for r in results]):.4g} s",
        "setup_s": f"{sessions}; unscaled {statistics.median([raw(r['setup']) for r in results]):.4g} s",
        "query_p50_ms": f"{sessions} of {nq} queries",
        "query_p90_ms": f"{sessions} of {nq} queries; p{stats.tail_rank(nq):.4g}",
        "peak_rss_mb": sessions,
    }
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qaff" / "__init__.py").is_file():
        print(f"error: no qaff sources under {SRC}", file=sys.stderr)
        return 2
    digests = workloads.load_digests()[args.workload]
    population = sorted(digests)
    workload = workloads.WORKLOADS[args.workload]

    plain: list[tuple[dict, dict]] = []
    traced: list[tuple[dict, dict]] = []
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        trace = bool(args.trace) and index % 2 == 1
        job = {
            "src": str(SRC),
            "setup": list(workload.setup),
            "queries": workload.queries(args.workload, population, args.seed, index),
            "oracles": index == 0,
            "trace": trace,
        }
        try:
            res = run_session(job)
        except (SessionFailed, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        (traced if trace else plain).append((job, res))
        index += 1
        done = len(plain) >= MIN_SESSIONS and (not args.trace or len(traced) >= MIN_SESSIONS)
        if done and time.perf_counter() >= deadline:
            break

    attempted, failed = count_failures(plain + traced, digests)
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced sessions")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} queries)")
    e2e, notes = end_to_end([r for _, r in plain])
    for name, value in e2e.items():
        print(f"{name} {value:.6g} {E2E_UNITS[name]} ({notes[name]})")
    if len(plain[0][0]["queries"]) <= SHOW_QUERIES:
        for job, res in plain:
            print("  " + "  ".join(f"{q} {scaled(i, res['probe']):.4g} s"
                                   for q, i in zip(job["queries"], res["queries"])))
    if args.trace:
        layers = {m: statistics.median([r["layers"][m] for _, r in traced])
                  for m in tracer.PER_LAYER if m != "trace.overhead_frac"}
        # traced sessions run without the speed probe, so compare unscaled walls
        walls = [[sum(map(raw, r["queries"])) for _, r in runs] for runs in (traced, plain)]
        layers["trace.overhead_frac"] = statistics.median(walls[0]) / statistics.median(walls[1]) - 1
        for name, value in layers.items():
            print(f"{name} {value:.6g} {tracer.unit_of(name)}")
        write_trace(args, traced)
        metrics = layers
    else:
        metrics = e2e
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": tracer.unit_of(k) if args.trace else E2E_UNITS[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def write_trace(args, traced: list[tuple[dict, dict]]) -> None:
    """The span summaries of the traced sessions, one file per run."""
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump([{"queries": len(job["queries"]), **res["spans"]} for job, res in traced],
                  fh, indent=1)
    print(f"spans written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
