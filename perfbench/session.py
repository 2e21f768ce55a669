"""One cold session of a workload, run in a fresh interpreter by run.py.

A CLI user never gets a warm process: the lru_cache factories and the memos
inside the calculators they return live as long as the process.  So every
session imports qaff, builds its calculators (``setup_s``), answers its
queries (the timed phase) and exits.  It reads one job from stdin::

    {"src": "<dir holding qaff>", "setup": ["quantum|A3", ...],
     "queries": ["star|A3|s1s2|s3", ...], "oracles": true, "trace": false}

and writes one JSON object to stdout.  The queries are plain strings, and
the same strings key the recorded digests in ``data/digests.json``:

* ``star|T|u|v``          -- ``sigma_u * sigma_v`` in QH*_aff(G/B) of type T;
* ``relation|T|name``     -- ``toda.verify_relation`` on the warm ring;
* ``commutator|T|w|i|j``  -- ``M_i M_j eps_w`` and ``M_j M_i eps_w`` with
  ``M = modified_lambda``;
* ``nbhd|T|u|d``          -- ``curve_neighborhood(W, u, d)``.

Output checks (digests and oracles) run after the timed phase.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PROBE_PERIOD_S = 0.05


class SpeedProbe:
    """Samples the host's CPU speed every PROBE_PERIOD_S from a timer signal.

    Each sample times a fixed pure-Python computation that calls no qaff
    code.  The host's speed is not steady (see README.md), so run.py scales
    every measured interval by a nominal sample time over the samples taken
    during it.  Time spent in the handler is kept in ``spent`` and taken out
    of the intervals it interrupts.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self.spent = 0.0

    @staticmethod
    def measure() -> float:
        t = time.perf_counter()
        s = Fraction(0)
        for i in range(1, 600):
            s += Fraction(1, i % 97 + 1)
        return time.perf_counter() - t

    def _sample(self, signum=None, frame=None) -> None:
        t = time.perf_counter()
        self.samples.append((t, self.measure()))
        self.spent += time.perf_counter() - t

    def mark(self) -> tuple[float, float]:
        """``(now, spent)``, read with the timer signal held off so they agree."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return time.perf_counter(), self.spent
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()


PROBE = SpeedProbe()
if __name__ == "__main__":
    PROBE.start()
SETUP_MARK = PROBE.mark()  # set-up time counts the qaff import

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import qaff  # noqa: E402
from qaff import affine, neighborhoods, quantum, toda  # noqa: E402
from qaff.roots import parse_lie_type  # noqa: E402


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Session:
    """The calculators of one session and the four query kinds on them."""

    def __init__(self, setup: list[str]):
        for item in setup:
            kind, label = item.split("|")
            letter, rank = parse_lie_type(label)
            if kind == "quantum":
                quantum.quantum_aff(letter, rank)
            elif kind == "affine":
                affine.affine_coh(letter, rank)
            else:
                raise ValueError(f"unknown set-up item {item!r}")

    # -- the timed part ----------------------------------------------------------

    def run(self, query: str):
        kind, label, *args = query.split("|")
        letter, rank = parse_lie_type(label)
        if kind == "star":
            ring = quantum.quantum_aff(letter, rank)
            u, v = (ring.FW.parse(x) for x in args)
            return ring.star(ring.basis(u), ring.basis(v))
        if kind == "relation":
            ring = quantum.quantum_aff(letter, rank)
            rels, _status = toda.relations_for(letter, rank)
            (rel,) = [r for r in rels if r.name == args[0]]
            return toda.verify_relation(rel, ring)
        if kind == "commutator":
            calc = affine.affine_coh(letter, rank)
            b = calc.basis(calc.W.parse(args[0]))
            i, j = int(args[1]), int(args[2])
            return (calc.modified_lambda(i, calc.modified_lambda(j, b)),
                    calc.modified_lambda(j, calc.modified_lambda(i, b)))
        if kind == "nbhd":
            W = affine.affine_coh(letter, rank).W
            d = tuple(int(x) for x in args[1].split(","))
            return neighborhoods.curve_neighborhood(W, W.parse(args[0]), d)
        raise ValueError(f"unknown query kind {kind!r}")

    # -- checks, outside the timed part ---------------------------------------

    def canonical(self, query: str, out) -> str:
        kind, label, *args = query.split("|")
        letter, rank = parse_lie_type(label)
        if kind == "star":
            return canonical_json(out.to_json_obj())
        if kind == "relation":
            return canonical_json(out)
        if kind == "commutator":
            return canonical_json(out[0].to_json_obj())
        W = affine.affine_coh(letter, rank).W
        return canonical_json([list(W.reduced_word(z)) for z in out])

    def oracle(self, query: str, out) -> bool:
        """The repo's independent check for one output."""
        kind, label, *args = query.split("|")
        letter, rank = parse_lie_type(label)
        if kind == "star":
            ring = quantum.quantum_aff(letter, rank)
            oq = quantum.ordinary_qh(letter, rank)
            u, v = (ring.FW.parse(x) for x in args)
            expect = oq.star(oq.basis(u), oq.basis(v))
            return (ring.specialize_q0(out).terms == expect.terms
                    and out.homogeneous_degree() == ring.FW.length[u] + ring.FW.length[v])
        if kind == "relation":
            return out is True
        if kind == "commutator":
            return out[0] == out[1]
        W = affine.affine_coh(letter, rank).W
        d = tuple(int(x) for x in args[1].split(","))
        return set(out) == set(neighborhoods.neighborhood_by_search(W, W.parse(args[0]), d))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    job = json.load(sys.stdin)
    src = Path(job["src"]).resolve()
    if Path(qaff.__file__).resolve().parent.parent != src:
        print(f"imported qaff from {qaff.__file__}, expected it under {src}", file=sys.stderr)
        return 2
    rec = installed = None
    if job["trace"]:
        PROBE.stop()  # spans stay raw; the handler would add to them
        import tracer

        rec = tracer.SpanRecorder()
        installed = tracer.install(rec)
    session = Session(job["setup"])

    def interval(start: tuple[float, float]) -> list[float]:
        """``[start, end, time spent in the probe in between]``."""
        end = PROBE.mark()
        return [start[0], end[0], end[1] - start[1]]

    setup = interval(SETUP_MARK)
    outputs, intervals, errors = [], [], []
    for idx, query in enumerate(job["queries"]):
        start = PROBE.mark()
        try:
            outputs.append(session.run(query))
        except Exception as exc:  # a failed query is counted, not fatal
            outputs.append(None)
            errors.append([idx, f"{type(exc).__name__}: {exc}"])
        intervals.append(interval(start))
    if not job["trace"]:
        PROBE.stop()
    rss = peak_rss_mb()

    result = {"setup": setup, "queries": intervals, "probe": PROBE.samples,
              "peak_rss_mb": rss, "errors": errors}
    if rec is not None:
        rec.enabled = False
        result["layers"] = tracer.layer_metrics(rec, installed)
        result["spans"] = {"summary": rec.summary(), "edges": rec.edges()}
    result["digests"] = [
        None if out is None else digest(session.canonical(q, out))
        for q, out in zip(job["queries"], outputs)
    ]
    if job["oracles"]:
        result["oracle_failed"] = [
            idx for idx, (q, out) in enumerate(zip(job["queries"], outputs))
            if out is not None and not session.oracle(q, out)
        ]
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
