"""Span recorder that wraps qaff's public functions and methods at run time.

Nothing under ``src/`` knows about it: :func:`install` replaces each target
with a wrapper that records one span per call (name, parent span, start,
end) in compact in-memory arrays.  Self time is computed after the fact as
a span's duration minus the durations of its direct children, which is
exact because the program is single-threaded and spans nest strictly.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array


class SpanRecorder:
    """Collects spans; ``enabled`` gates recording without unwrapping."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = True
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict[str, int] = {}
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.span_name)

    def begin(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._open[-1] if self._open else -1)
        self.span_start.append(self.clock())
        self.span_end.append(0.0)
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.span_end[idx] = self.clock()
        self._open.pop()

    def count(self, name: str, k: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + k

    def wrap(self, name: str, fn, counter=None):
        """Return ``fn`` wrapped in a span; ``counter(result, args)`` adds to a count."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            idx = rec.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.end(idx)
            if counter is not None:
                counter(rec, out, args)
            return out

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            dur = self.span_end[i] - self.span_start[i]
            row = out.setdefault(self.names[self.span_name[i]],
                                 {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        return out

    def edges(self) -> dict[str, int]:
        """Call counts per ``parent -> child`` span-name pair, for the trace file."""
        out: dict[str, int] = {}
        for i in range(len(self.span_name)):
            p = self.span_parent[i]
            parent = self.names[self.span_name[p]] if p >= 0 else "<root>"
            key = f"{parent} -> {self.names[self.span_name[i]]}"
            out[key] = out.get(key, 0) + 1
        return out


def _rebind(old, new, owners) -> None:
    """Point every module or class attribute that holds ``old`` at ``new``."""
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if value is old:
                setattr(owner, attr, new)


def _count_cols(key):
    def counter(rec, out, args):
        rec.count(key, len(out))
    return counter


def _count_solve_cols(rec, out, args):
    rows = args[0]
    rec.count("polynomials.solve_exact.cols", len(rows[0]) if rows else 0)


# (span name, module, owner attribute path, counter)
TARGETS = [
    ("roots.rs_coroot", "qaff.roots", "RootSystem.coroot", None),
    ("roots.ard_coroot", "qaff.roots", "AffineRootData.coroot", None),
    ("weyl.finw_mul", "qaff.weyl", "FinW.__mul__", None),
    ("weyl.finite_weyl", "qaff.weyl", "finite_weyl", None),
    ("weyl.finite_reflection", "qaff.weyl", "finite_reflection", None),
    ("weyl.affw_multiply", "qaff.weyl", "AffineWeylGroup.multiply", None),
    ("weyl.affw_length", "qaff.weyl", "AffineWeylGroup.length", None),
    ("weyl.affw_reflection", "qaff.weyl", "AffineWeylGroup.reflection", None),
    ("weyl.bruhat_covers_up", "qaff.weyl", "AffineWeylGroup.bruhat_covers_up", None),
    ("weyl.bruhat_leq", "qaff.weyl", "AffineWeylGroup.bruhat_leq", None),
    ("weyl.hecke_product", "qaff.weyl", "AffineWeylGroup.hecke_product", None),
    ("polynomials.substitute", "qaff.polynomials", "Poly.substitute", None),
    ("polynomials.exact_div_linear", "qaff.polynomials", "exact_div_linear", None),
    ("polynomials.mul", "qaff.polynomials", "Poly.__mul__", None),
    ("polynomials.add", "qaff.polynomials", "Poly.__add__", None),
    ("polynomials.solve_exact", "qaff.polynomials", "solve_exact", _count_solve_cols),
    ("bgg.theta_matrix", "qaff.bgg", "FiniteSchubert.theta_matrix", None),
    ("bgg.express_in_divisors", "qaff.bgg", "FiniteSchubert.express_in_divisors", None),
    ("bgg.divisor_monomials", "qaff.bgg", "FiniteSchubert.divisor_monomials",
     _count_cols("bgg.divisor_monomials.cols")),
    ("bgg.chevalley_cup", "qaff.bgg", "FiniteSchubert.chevalley_cup", None),
    ("bgg.pi_word", "qaff.bgg", "FiniteSchubert.pi_word", None),
    ("chevalley.enumerate", "qaff.chevalley", "enumerate_chevalley_roots", None),
    ("quantum.star", "qaff.quantum", "QuantumAff.star", None),
    ("quantum.lift_apply", "qaff.quantum", "QuantumAff.lift_apply", None),
    ("quantum.lift_apply_basis", "qaff.quantum", "QuantumAff._lift_apply_basis", None),
    ("quantum.T_apply", "qaff.quantum", "QuantumAff._T_apply", None),
    ("quantum.lambda_bar", "qaff.quantum", "QuantumAff.lambda_bar", None),
    ("quantum.lambda_basis", "qaff.quantum", "QuantumAff._lambda_basis", None),
    ("affine.lambda_op", "qaff.affine", "AffineCoh.lambda_op", None),
    ("affine.chevalley", "qaff.affine", "AffineCoh.chevalley", None),
    ("affine.D_word", "qaff.affine", "AffineCoh.D_word", None),
    ("neighborhoods.curve_neighborhood", "qaff.neighborhoods", "curve_neighborhood", None),
    ("toda.verify_relation", "qaff.toda", "verify_relation", None),
]

# lru_cache factories whose cache_info() is read for the lru.* metrics
LRU_FACTORIES = [
    ("qaff.quantum", "quantum_aff"),
    ("qaff.bgg", "finite_schubert"),
    ("qaff.weyl", "finite_weyl"),
    ("qaff.weyl", "affine_weyl"),
    ("qaff.chevalley", "chevalley_root_set"),
    ("qaff.roots", "build_root_system"),
    ("qaff.roots", "affinize"),
]


def _qaff_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qaff" or name.startswith("qaff."))]


# classes whose instances own the memos read for entries and hit ratios
TRACKED = [("qaff.weyl", "AffineWeylGroup"), ("qaff.bgg", "FiniteSchubert"),
           ("qaff.quantum", "QuantumAff")]


class Installed:
    """What :func:`install` found: lru factories and every memo-owning instance."""

    def __init__(self, lru: dict):
        self.lru = lru
        self.instances: dict[str, list] = {cls: [] for _, cls in TRACKED}


def _track(installed: Installed, cls: type) -> None:
    init = cls.__init__

    @functools.wraps(init)
    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        installed.instances[cls.__name__].append(self)

    cls.__init__ = tracked_init


def install(rec: SpanRecorder) -> Installed:
    """Wrap every target in place.  Run after ``import qaff``, before any set-up."""
    modules = _qaff_modules()
    classes = [v for m in modules for v in vars(m).values() if isinstance(v, type)]
    owners = modules + classes
    installed = Installed({name: getattr(sys.modules[mod], name)
                           for mod, name in LRU_FACTORIES})
    for mod, cls in TRACKED:
        _track(installed, getattr(sys.modules[mod], cls))
    for span, mod, path, counter in TARGETS:
        owner = sys.modules[mod]
        *head, attr = path.split(".")
        for part in head:
            owner = getattr(owner, part)
        old = vars(owner)[attr]
        _rebind(old, rec.wrap(span, old, counter), owners)
    return installed


# Every per-layer metric, in the order BENCHMARK.json lists them.  ``.calls``,
# ``.self_s`` and ``.cols`` come from the spans and counters; the rest from
# memo sizes (see layer_metrics).
PER_LAYER = [
    "roots.rs_coroot.calls", "roots.rs_coroot.self_s",
    "roots.ard_coroot.calls", "roots.ard_coroot.self_s",
    "weyl.finw_mul.calls", "weyl.finw_mul.self_s", "weyl.finite_weyl.self_s",
    "weyl.finite_reflection.calls", "weyl.finite_reflection.self_s",
    "weyl.affw_multiply.calls", "weyl.affw_multiply.self_s",
    "weyl.affw_length.calls", "weyl.affw_length.self_s",
    "weyl.affw_reflection.calls", "weyl.affw_reflection.self_s",
    "weyl.bruhat_covers_up.calls", "weyl.bruhat_covers_up.self_s",
    "weyl.bruhat_covers_up.hit_ratio",
    "weyl.bruhat_leq.calls", "weyl.bruhat_leq.hit_ratio",
    "weyl.hecke_product.calls", "weyl.hecke_product.self_s",
    "weyl.memo_entries",
    "polynomials.substitute.calls", "polynomials.substitute.self_s",
    "polynomials.exact_div_linear.calls", "polynomials.exact_div_linear.self_s",
    "polynomials.mul.calls", "polynomials.mul.self_s",
    "polynomials.add.calls", "polynomials.add.self_s",
    "polynomials.solve_exact.calls", "polynomials.solve_exact.self_s",
    "polynomials.solve_exact.cols",
    "bgg.theta_matrix.self_s",
    "bgg.express_in_divisors.calls", "bgg.express_in_divisors.self_s",
    "bgg.express_in_divisors.hit_ratio",
    "bgg.divisor_monomials.cols",
    "bgg.chevalley_cup.calls", "bgg.chevalley_cup.self_s",
    "bgg.pi_word.calls", "bgg.pi_word.self_s",
    "chevalley.enumerate.self_s",
    "quantum.star.calls", "quantum.star.self_s",
    "quantum.lift_apply.calls", "quantum.lift_apply.self_s",
    "quantum.T_apply.calls",
    "quantum.lift_img.entries", "quantum.lift_img.hit_ratio",
    "quantum.lambda_bar.calls", "quantum.lambda_bar.self_s",
    "quantum.lambda_img.entries", "quantum.lambda_img.hit_ratio",
    "affine.lambda_op.calls", "affine.lambda_op.self_s",
    "affine.chevalley.calls", "affine.chevalley.self_s",
    "affine.D_word.calls", "affine.D_word.self_s",
    "neighborhoods.curve_neighborhood.calls", "neighborhoods.curve_neighborhood.self_s",
    "toda.verify_relation.calls", "toda.verify_relation.self_s",
    "lru.entries", "lru.hit_ratio",
    "trace.overhead_frac",
]


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("hit_ratio", "_frac")):
        return "ratio"
    return "count"


def _hit_ratio(entries: int, calls: int) -> float:
    """Each memo entry is one miss; 0 when the layer was never called."""
    return 1 - entries / calls if calls else 0.0


def layer_metrics(rec: SpanRecorder, installed: Installed) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_frac``, which needs two runs.

    Memos are only read: their sizes with ``len`` and the lru statistics with
    ``cache_info()``.
    """
    spans = rec.summary()

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    weyls = installed.instances["AffineWeylGroup"]
    schuberts = installed.instances["FiniteSchubert"]
    rings = installed.instances["QuantumAff"]
    covers = sum(len(W._covers_memo) for W in weyls)
    leq = sum(len(W._bruhat_memo) for W in weyls)
    lift = sum(len(r._lift_img) for r in rings)
    lam = sum(len(r._lambda_img) for r in rings)
    infos = [f.cache_info() for f in installed.lru.values()]
    lru_entries = sum(i.currsize for i in infos)
    derived = {
        "weyl.bruhat_covers_up.hit_ratio": _hit_ratio(covers, calls("weyl.bruhat_covers_up")),
        "weyl.bruhat_leq.hit_ratio": _hit_ratio(leq, calls("weyl.bruhat_leq")),
        "weyl.memo_entries": covers + leq + sum(
            len(W._word_memo) + len(getattr(W, "_layer_seen", ())) for W in weyls),
        "bgg.express_in_divisors.hit_ratio": _hit_ratio(
            sum(len(fs._divisor_expr) for fs in schuberts),
            calls("bgg.express_in_divisors")),
        "quantum.lift_img.entries": lift,
        "quantum.lift_img.hit_ratio": _hit_ratio(lift, calls("quantum.lift_apply_basis")),
        "quantum.lambda_img.entries": lam,
        "quantum.lambda_img.hit_ratio": _hit_ratio(lam, calls("quantum.lambda_basis")),
        "lru.entries": lru_entries,
        "lru.hit_ratio": _hit_ratio(lru_entries, sum(i.hits + i.misses for i in infos)),
    }
    out: dict[str, float] = {}
    for metric in PER_LAYER:
        name, _, stat = metric.rpartition(".")
        if metric in derived:
            out[metric] = derived[metric]
        elif stat == "calls":
            out[metric] = calls(name)
        elif stat == "self_s":
            out[metric] = spans.get(name, {}).get("self_s", 0.0)
        elif stat == "cols":
            out[metric] = rec.counters.get(metric, 0)
    return out
