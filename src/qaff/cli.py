"""Command-line front end.

Subcommands: chevalley-roots, curve-nbhd, gw, lambda, product, table, qsharp,
relations, present, verify.  Weyl elements are hyphen-free generator strings
("s0s1s2", "e" for the identity); words need not be reduced.  Exit codes:
0 success, 1 a failed check (`verify`, `relations --verify`, `curve-nbhd
--check-oracle`), 2 refused input, 3 truncation overflow (the message names the
truncation that would suffice), 4 internal error (a broken invariant, or the
run ran out of memory).

The library refuses bad input itself, each rule in one place, with
``ValueError``; a handler here checks no range or shape, and :func:`main` only
maps exceptions to exit codes.  ``table``'s cap, a cost guard, is
:func:`check_table_cap`, which runs before W is enumerated.

Code that one command alone reads lives here rather than in the library
modules every run imports: the multiplication table, the presentation record
and the moment-graph slice of ``curve-nbhd --format dot``.  The verify suites
are :mod:`qaff.verify`, which only :func:`cmd_verify` imports, and the
``#``-product is :mod:`qaff.divisor_ring`, which only :func:`cmd_qsharp` and
the suites import.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import toda
from .affine import AffineCoh, TruncationOverflow
from .chevalley import enumerate_chevalley_roots
from .neighborhoods import curve_neighborhood, gw_invariant, neighborhood_by_search
from .polynomials import SCHEMA_VERSION, Poly, QClass
from .quantum import FiniteQRing, quantum_aff
from .roots import AffineRoot, CorootVec, _check_lie_type, parse_lie_type
from .weyl import AffineWeylGroup, affine_weyl, weyl_order


def _type_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--type", required=True, metavar="XN",
                        help='Lie type, e.g. "A2", "B2", "G2" (case-insensitive)')


def nonnegative_int(text: str) -> int:
    """A bound flag's value, an ``int >= 0``; argparse exits 2 naming the flag otherwise."""
    if (n := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {n}")
    return n


def degree(text: str) -> tuple[int, ...]:
    """``--d`` as comma-separated ints; argparse exits 2 naming the flag otherwise.
    Its length and signs are the library's to refuse."""
    return tuple(int(p) for p in text.split(","))


# -- JSON output ----------------------------------------------------------------------

_json_str = json.encoder.encode_basestring_ascii


def json_text(obj, nl: str = "\n") -> str:
    """``json.dumps(obj, indent=2)``, byte for byte; ``nl`` is the current indent.

    With an indent, ``json.dumps`` leaves its C encoder for the pure-Python
    one; this writer builds the same text directly.  Strings go through the
    encoder's own escaping, and scalars other than ``str`` and ``int`` through
    ``json.dumps``.
    """
    if isinstance(obj, str):
        return _json_str(obj)
    if isinstance(obj, int) and not isinstance(obj, bool):
        return int.__repr__(obj)
    inner = nl + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [json_text(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_json_str(_json_key(k)) + ": " + json_text(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    return json.dumps(obj)


def _json_key(key) -> str:
    """A dict key as ``json.dumps`` writes it: str as is, other scalars as their JSON."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def print_json(obj, indent: bool = True) -> None:
    """Every JSON print of the CLI: indented by two spaces, or on one line."""
    print(json_text(obj) if indent else json.dumps(obj))


# -- JSON serialization of classes ------------------------------------------------


def class_json(a: QClass, lie_type: str, trunc: int | None = None) -> dict:
    """The record of one class: a class of ``QH*_aff(G/B)`` (``product``) on the
    ``sigma`` basis, or, given its truncation, an affine class (``lambda``,
    ``qsharp``) on the ``eps`` basis."""
    record = {"schema_version": SCHEMA_VERSION, "type": lie_type, "basis": "sigma"}
    if trunc is not None:
        record.update(basis="eps", trunc=trunc)  # "basis" keeps its place
    record["terms"] = a.to_json_obj()
    return record


def _latex_poly(p: Poly, qnames: list[str]) -> str:
    return p.format(qnames).replace("*", " ")


def _latex_class(ring, a: QClass) -> str:
    return a.format(
        [f"q_{i}" for i in range(ring.nq)],
        lambda w: "\\sigma_{%s}" % " ".join(f"s_{i + 1}" for i in ring.FW.word[w]),
        sep=" ",
    )


# -- subcommand handlers ----------------------------------------------------------


def cmd_chevalley_roots(args, letter: str, rank: int) -> int:
    W = affine_weyl(letter, rank)
    crs = enumerate_chevalley_roots(W)
    rows = [
        {
            "level": cr.root.level,
            "finite": list(cr.root.finite),
            "coroot": list(cr.coroot),
            "length": cr.reflection_length,
            "word": list(cr.word),
        }
        for cr in crs
    ]
    if args.format == "json":
        print_json({"schema_version": SCHEMA_VERSION, "type": f"{letter}{rank}",
                    "count": len(rows), "roots": rows})
    elif args.format == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(["level", "finite", "coroot", "length", "word"])
        for r in rows:
            w.writerow([r["level"], " ".join(map(str, r["finite"])),
                        " ".join(map(str, r["coroot"])), r["length"],
                        "".join(f"s{i}" for i in r["word"])])
    else:
        print(f"{len(rows)} Chevalley roots in type {letter}{rank} affine:")
        for r in rows:
            word = "".join(f"s{i}" for i in r["word"])
            print(f"  level {r['level']}  finite {tuple(r['finite'])}  "
                  f"coroot {tuple(r['coroot'])}  l(s_a) {r['length']}  word {word}")
    return 0


# -- the moment-graph slice of curve-nbhd --format dot ---------------------------------


class MomentGraphSlice:
    __slots__ = ("W", "vertices", "edges")

    def __init__(
        self,
        W: AffineWeylGroup,
        vertices: list[int],
        edges: list[tuple[int, int, AffineRoot, CorootVec]],
    ):
        self.W = W
        self.vertices = vertices
        self.edges = edges

    def to_dot(self) -> str:
        fmt = self.W.format
        lines = ["graph moment_slice {"]
        for w in self.vertices:
            lines.append(f'  "{fmt(w)}" [len={self.W.length(w)}];')
        for u, v, _, deg in self.edges:
            lines.append(
                f'  "{fmt(u)}" -- "{fmt(v)}" [label="{list(deg)}"];'
            )
        lines.append("}")
        return "\n".join(lines)


def moment_graph_slice(W: AffineWeylGroup, L: int) -> MomentGraphSlice:
    """All vertices of length <= L and the edges staying inside the slice."""
    layers = W.enumerate_up_to(L)
    vertices = [w for ell in sorted(layers) for w in layers[ell]]
    index = set(vertices)
    # a reflection moving within the slice has len(s_alpha) <= 2L, and one at level k
    # has len(s_alpha) >= 2k - #(positive roots)
    top = (2 * L + W.rs.num_positive) // 2
    refs = [(s, alpha, coroot) for level in W.ard.levels(top) for _, _, alpha, coroot in level
            if W.length(s := W.reflection(alpha)) <= 2 * L]
    edges = []
    for w in vertices:
        lw = W.length(w)
        for s, alpha, coroot in refs:
            u = W.multiply(w, s)
            if u in index and W.length(u) > lw:
                edges.append((w, u, alpha, coroot))
    return MomentGraphSlice(W, vertices, edges)


def cmd_curve_nbhd(args, letter: str, rank: int) -> int:
    W = affine_weyl(letter, rank)
    u = W.parse(args.u)
    d = args.d
    comps = curve_neighborhood(W, u, d)
    if args.check_oracle:
        alt = neighborhood_by_search(W, u, d)
        if set(comps) != set(alt):
            print("error: Hecke and search oracles disagree", file=sys.stderr)
            return 1
    if args.format == "json":
        print_json({
            "schema_version": SCHEMA_VERSION,
            "type": f"{letter}{rank}",
            "u": list(W.reduced_word(u)),
            "d": list(d),
            "components": [list(W.reduced_word(z)) for z in comps],
        })
    elif args.format == "dot":
        L = args.graph_l if args.graph_l is not None else max(
            (W.length(z) for z in comps), default=0)
        print(moment_graph_slice(W, L).to_dot())
    else:
        names = ", ".join(W.format(z) for z in comps) or "-"
        print(f"Theta_{tuple(d)}({W.format(u)}) components: {names}")
    return 0


def cmd_gw(args, letter: str, rank: int) -> int:
    W = affine_weyl(letter, rank)
    u, w = W.parse(args.u), W.parse(args.w)
    d = args.d
    val = gw_invariant(W, args.i, u, w, d)
    if args.format == "json":
        print_json({"schema_version": SCHEMA_VERSION, "type": f"{letter}{rank}",
                    "i": args.i, "u": list(W.reduced_word(u)),
                    "w": list(W.reduced_word(w)), "d": list(d), "value": val}, indent=False)
    else:
        print(val)
    return 0


def cmd_lambda(args, letter: str, rank: int) -> int:
    calc = AffineCoh(affine_weyl(letter, rank), args.trunc)
    w = calc.W.parse(args.w)
    a = calc.basis(w)
    out = (calc.modified_lambda if args.modified else calc.lambda_op)(args.i, a)
    if args.format == "json":
        print_json(class_json(out, f"{letter}{rank}", calc.L))
    else:
        print(calc.format_class(out))
    return 0


def cmd_product(args, letter: str, rank: int) -> int:
    ring = quantum_aff(letter, rank)
    u = ring.FW.parse(args.u)
    v = ring.FW.parse(args.v)
    out = ring.star(ring.basis(u), ring.basis(v))
    if args.format == "json":
        print_json(class_json(out, f"{letter}{rank}"))
    elif args.format == "latex":
        print(_latex_class(ring, out))
    else:
        print(ring.format_class(out))
    return 0


# -- the table command ---------------------------------------------------------------


def check_table_cap(letter: str, rank: int, cap: int) -> None:
    """Refuse a multiplication table of a type with more than ``cap`` Weyl group
    elements.  It reads ``|W|`` from :func:`~qaff.weyl.weyl_order`, before W is
    enumerated; only E, F and G, of rank at most 8, read their positive roots first.
    An order too long to print as an ``int`` is named by a power of ten below it.

    Every fundamental degree is at least 2, so ``|W| >= 2^rank``.  When that bound
    is already above the cap and has more digits than the interpreter converts to
    text, the order itself (``(n+1)!`` in type A) is not computed, and the refusal
    names ``10^k <= 2^rank``."""
    _check_lie_type(letter, rank)
    k = rank * 30102 // 100000  # 0.30102 < log10 2, so 10^k <= 2^rank
    limit = sys.get_int_max_str_digits()  # 0: no limit
    if 0 < limit <= k and cap < 1 << rank:
        raise ValueError(f"|W| >= 10^{k} exceeds the table cap {cap}")
    order = weyl_order(letter, rank)
    if order > cap:
        try:
            shown = f"= {order}"
        except ValueError:  # more digits than the interpreter converts to text
            shown = f">= 10^{(order.bit_length() - 1) * 30102 // 100000}"
        raise ValueError(f"|W| {shown} exceeds the table cap {cap}")


def multiplication_table(ring: FiniteQRing) -> dict[tuple[int, int], QClass]:
    """All ordered products of ``ring``; computed on unordered pairs and mirrored.
    :func:`check_table_cap` is the guard that runs before W is enumerated."""
    elts = ring.FW.elements  # ids ascend in printing order
    table = {}
    for i, u in enumerate(elts):
        for v in elts[i:]:
            prod = ring.star(ring.basis(u), ring.basis(v))
            table[(u, v)] = prod
            table[(v, u)] = prod
    return table


def cmd_table(args, letter: str, rank: int) -> int:
    check_table_cap(letter, rank, args.cap)  # before the ring: enumerating W is the cost
    ring = quantum_aff(letter, rank)
    table = multiplication_table(ring)
    FW = ring.FW
    items = sorted(table.items())  # ids ascend in printing order
    if args.format == "json":
        # json_text of the whole record, one entry's text at a time: A4 is 242 MB
        write = sys.stdout.write
        write('{\n  "schema_version": ' + json_text(SCHEMA_VERSION)
              + ',\n  "type": ' + json_text(f"{letter}{rank}") + ',\n  "entries": [')
        sep = "\n    "
        for (u, v), prod in items:
            entry = {"u": list(FW.word[u]), "v": list(FW.word[v]), "product": prod.to_json_obj()}
            write(sep + json_text(entry, "\n    "))
            sep = ",\n    "
        write("\n  ]\n}\n")
    elif args.format == "latex":
        print("\\begin{tabular}{|c|c|c|}")
        print("\\hline")
        print("$u$ & $v$ & $\\sigma_u \\star \\sigma_v$\\\\")
        print("\\hline")
        for (u, v), prod in items:
            lu = "\\," .join(f"s_{i + 1}" for i in FW.word[u]) or "e"
            lv = "\\,".join(f"s_{i + 1}" for i in FW.word[v]) or "e"
            print(f"${lu}$ & ${lv}$ & ${_latex_class(ring, prod)}$\\\\")
        print("\\hline")
        print("\\end{tabular}")
    else:
        w = csv.writer(sys.stdout)
        w.writerow(["u", "v", "product"])
        for (u, v), prod in items:
            w.writerow([FW.format(u), FW.format(v), ring.format_class(prod)])
    return 0


def cmd_qsharp(args, letter: str, rank: int) -> int:
    from .divisor_ring import qsharp_product  # only this command and verify read it

    calc = AffineCoh(affine_weyl(letter, rank), args.trunc)
    u = calc.W.parse(args.u)
    v = calc.W.parse(args.v)
    out = qsharp_product(calc, calc.basis(u), calc.basis(v))
    if args.format == "json":
        print_json(class_json(out, f"{letter}{rank}", calc.L))
    else:
        print(calc.format_class(out))
    return 0


def cmd_relations(args, letter: str, rank: int) -> int:
    rels, status = toda.relations_for(letter, rank)
    bad = 0
    for rel in rels:
        line = f"{rel.name} (degree {rel.degree()}): {rel.format()}"
        if args.verify:
            ok = toda.verify_relation(rel)
            bad += not ok
            line += f"   Phi({rel.name}) = 0: {'ok' if ok else 'FAIL'}"
        print(line)
    print(f"relation set: {status}")
    return 1 if bad else 0


def present_ring(letter: str, rank: int, rels: list[toda.RelationPoly], status: str) -> dict:
    """The presentation record of ``(rels, status) = toda.relations_for(letter, rank)``."""
    ring = quantum_aff(letter, rank)
    entries = []
    for rel in rels:
        phi_zero, classical_invariant = toda.relation_checks(rel, ring)
        entries.append({"name": rel.name, "degree": rel.degree(), "poly": rel.format(),
                        "phi_zero": phi_zero, "classical_invariant": classical_invariant})
    record = {
        "schema_version": SCHEMA_VERSION,
        "type": f"{letter}{rank}",
        "generators": [f"x{i}" for i in range(1, rank + 1)],
        "coefficients": [f"q{i}" for i in range(rank + 1)],
        "relations": entries,
        "status": status,
    }
    if status == "partial":
        record["gap"] = (
            "only the quadratic conserved quantity is constructed for this type; "
            "the higher integrals of motion are not generated"
        )
    return record


def cmd_present(args, letter: str, rank: int) -> int:
    rels, status = toda.relations_for(letter, rank)
    record = present_ring(letter, rank, rels, status)
    if args.format == "latex":
        gens = ", ".join(f"x_{i}" for i in range(1, rank + 1))
        qs = ", ".join(f"q_{i}" for i in range(rank + 1))
        names = ", ".join(e["name"] for e in record["relations"])
        print("\\[ \\mathrm{QH}^*_{\\mathrm{aff}}(G/B) \\cong "
              f"\\mathbb{{Q}}[{qs}][{gens}] / \\langle {names} \\rangle \\]")
        qx = [f"q_{i}" for i in range(rank + 1)] + [f"x_{i}" for i in range(1, rank + 1)]
        for e, rel in zip(record["relations"], rels):
            print(f"\\[ {e['name']} = {_latex_poly(rel.poly, qx)} \\]")
        if record["status"] == "partial":
            print(f"% {record['gap']}")
    else:
        print_json(record)
    return 0


# the suites of qaff.verify, in the order a full run takes them; the parser reads the
# names here, so only a verify run imports the suites
SUITE_NAMES = ("commutativity", "frobenius", "associativity", "divisor-law", "quadratic",
               "fw", "chevalley-roots", "neighborhoods", "intertwining", "toda")


def cmd_verify(args, letter: str, rank: int) -> int:
    from .verify import SUITES  # only this command compiles the suites

    names = args.suite or SUITE_NAMES
    passed = failed = 0

    def report(label: str, ok: bool) -> None:
        nonlocal passed, failed
        passed += ok
        failed += not ok
        print(f"  {'ok  ' if ok else 'FAIL'} {label}")

    for name in names:
        print(f"suite {name} [{letter}{rank}]")
        SUITES[name](letter, rank, report)
    print(f"{passed} passed, {failed} failed")
    return 0 if failed == 0 else 1


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qaff",
        description="Exact Schubert calculus for affine flag manifolds and "
                    "the affine quantum cohomology ring of G/B.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("chevalley-roots", help="list the quantum-contributing affine roots")
    _type_arg(s)
    s.add_argument("--format", choices=["text", "csv", "json"], default="text")
    s.set_defaults(fn=cmd_chevalley_roots)

    s = sub.add_parser("curve-nbhd", help="curve neighborhood Theta_d(u)")
    _type_arg(s)
    s.add_argument("--u", required=True, help='Weyl element, e.g. "s0s1"')
    s.add_argument("--d", type=degree, required=True, help='degree coordinates "d0,d1,..."')
    s.add_argument("--format", choices=["text", "json", "dot"], default="text")
    s.add_argument("--graph-l", type=nonnegative_int, default=None,
                   help="length bound for the DOT moment-graph slice")
    s.add_argument("--check-oracle", action="store_true",
                   help="cross-check against the moment-graph search")
    s.set_defaults(fn=cmd_curve_nbhd)

    s = sub.add_parser("gw", help="affine Gromov-Witten number <eps_u, eps_i, [X(w)]>_d")
    _type_arg(s)
    s.add_argument("--i", type=int, required=True)
    s.add_argument("--u", required=True)
    s.add_argument("--w", required=True)
    s.add_argument("--d", type=degree, required=True)
    s.add_argument("--format", choices=["text", "json"], default="text")
    s.set_defaults(fn=cmd_gw)

    s = sub.add_parser("lambda", help="apply a quantum Chevalley operator to eps_w")
    _type_arg(s)
    s.add_argument("--i", type=int, required=True)
    s.add_argument("--w", required=True)
    s.add_argument("--modified", action="store_true",
                   help="apply Lambda_i - m_i Lambda_0 instead")
    s.add_argument("--trunc", type=nonnegative_int, default=None, help="truncation bound L")
    s.add_argument("--format", choices=["text", "json"], default="text")
    s.set_defaults(fn=cmd_lambda)

    s = sub.add_parser("product", help="sigma_u * sigma_v in QH*_aff(G/B)")
    _type_arg(s)
    s.add_argument("--u", required=True)
    s.add_argument("--v", required=True)
    s.add_argument("--format", choices=["text", "json", "latex"], default="text")
    s.set_defaults(fn=cmd_product)

    s = sub.add_parser("table", help="full multiplication table of QH*_aff(G/B)")
    _type_arg(s)
    s.add_argument("--format", choices=["csv", "json", "latex"], default="csv")
    s.add_argument("--cap", type=nonnegative_int, default=48, help="refuse when |W| exceeds this")
    s.set_defaults(fn=cmd_table)

    s = sub.add_parser("qsharp", help="product in the divisor subring of the affine flag manifold")
    _type_arg(s)
    s.add_argument("--u", required=True)
    s.add_argument("--v", required=True)
    s.add_argument("--trunc", type=nonnegative_int, default=None, help="truncation bound L")
    s.add_argument("--format", choices=["text", "json"], default="text")
    s.set_defaults(fn=cmd_qsharp)

    s = sub.add_parser("relations", help="Toda conserved quantities for one type")
    _type_arg(s)
    s.add_argument("--verify", action="store_true", help="evaluate Phi on each relation")
    s.set_defaults(fn=cmd_relations)

    s = sub.add_parser("present", help="presentation record of QH*_aff(G/B)")
    _type_arg(s)
    s.add_argument("--format", choices=["json", "latex"], default="json")
    s.set_defaults(fn=cmd_present)

    s = sub.add_parser("verify", help="run invariant suites; exit 0 iff all pass")
    _type_arg(s)
    s.add_argument("--suite", action="append", default=None, choices=SUITE_NAMES,
                   help="suite name (repeatable); default: all suites")
    s.set_defaults(fn=cmd_verify)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, *parse_lie_type(args.type))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TruncationOverflow as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print(f"internal error: out of memory ({args.command} --type {args.type})",
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
