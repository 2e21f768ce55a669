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
:func:`~qaff.quantum.check_table_cap`, which runs before W is enumerated.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from . import toda
from .affine import AffineCoh, TruncationOverflow
from .bgg import finite_schubert
from .chevalley import enumerate_chevalley_roots, posir_reconstruct
from .neighborhoods import (
    curve_neighborhood,
    gw_invariant,
    moment_graph_slice,
    neighborhood_by_search,
)
from .polynomials import SCHEMA_VERSION, Poly, QClass
from .quantum import check_table_cap, ordinary_qh, quantum_aff
from .roots import parse_lie_type
from .weyl import affine_weyl, finite_weyl


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
        [f"q_{i}" for i in range(a.nq)],
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


def cmd_table(args, letter: str, rank: int) -> int:
    check_table_cap(letter, rank, args.cap)  # before the ring: enumerating W is the cost
    ring = quantum_aff(letter, rank)
    table = ring.multiplication_table()
    FW = ring.FW
    items = sorted(
        table.items(),
        key=lambda kv: (FW.length[kv[0][0]], FW.word[kv[0][0]],
                        FW.length[kv[0][1]], FW.word[kv[0][1]]),
    )
    if args.format == "json":
        print_json({
            "schema_version": SCHEMA_VERSION,
            "type": f"{letter}{rank}",
            "entries": [
                {"u": list(FW.word[u]), "v": list(FW.word[v]),
                 "product": table[(u, v)].to_json_obj()}
                for (u, v), _ in items
            ],
        })
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
    calc = AffineCoh(affine_weyl(letter, rank), args.trunc)
    u = calc.W.parse(args.u)
    v = calc.W.parse(args.v)
    out = calc.qsharp_product(calc.basis(u), calc.basis(v))
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


def cmd_present(args, letter: str, rank: int) -> int:
    rels, status = toda.relations_for(letter, rank)
    record = toda.present_ring(letter, rank, rels, status)
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


# -- the verify suites --------------------------------------------------------------


def _suite_commutativity(letter: str, rank: int, report) -> None:
    calc = AffineCoh(affine_weyl(letter, rank))
    W = calc.W
    lmax = min(5, calc.L - 2)
    layers = W.enumerate_up_to(lmax)
    for i in range(rank + 1):
        for j in range(i + 1, rank + 1):
            defect_seen = False
            ok = True
            for ws in layers.values():
                for w in ws:
                    b = calc.basis(w)
                    comm = calc.lambda_op(i, calc.lambda_op(j, b)) - calc.lambda_op(
                        j, calc.lambda_op(i, b)
                    )
                    defect_seen |= not comm.is_zero()
                    ok &= calc.reduce_mod_qc(comm).is_zero()
            tag = "expected-mod-q^c" if defect_seen else "exact"
            report(f"[Lambda_{i}, Lambda_{j}] = 0 mod q^c on l <= {lmax} ({tag})", ok)
    ok = all(calc.lambda_op(i, calc.basis(w)) == calc.lambda_op_by_words(i, calc.basis(w))
             for i in range(rank + 1) for ws in layers.values() for w in ws)
    report(f"Lambda_i by the length condition equals q^a D_(s_a) on l <= {lmax}", ok)
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            ok = True
            for ws in layers.values():
                for w in ws:
                    b = calc.basis(w)
                    ok &= calc.modified_lambda(i, calc.modified_lambda(j, b)) == \
                        calc.modified_lambda(j, calc.modified_lambda(i, b))
            report(f"modified [Lambda_{i} - m Lambda_0, Lambda_{j} - m Lambda_0] = 0 exactly", ok)
    ring = quantum_aff(letter, rank)
    ok = True
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            for w in ring.FW.elements:
                b = ring.basis(w)
                ok &= ring.lambda_bar(i, ring.lambda_bar(j, b)) == ring.lambda_bar(
                    j, ring.lambda_bar(i, b)
                )
    report("lambda_bar operators commute on the full finite basis", ok)


def _suite_frobenius(letter: str, rank: int, report) -> None:
    ring = quantum_aff(letter, rank)
    elts = ring.FW.elements
    cache = {(u, v): ring.star(ring.basis(u), ring.basis(v)) for u in elts for v in elts}
    ok = all(
        ring.poincare_pairing(cache[(u, v)], ring.basis(w))
        == ring.poincare_pairing(ring.basis(u), cache[(v, w)])
        for u in elts for v in elts for w in elts
    )
    report("Frobenius pairing symmetric on all Schubert triples", ok)
    # star lifts the shorter factor, so compare the two lift routes, not star both ways
    sym = all(ring.lift_apply(u, ring.basis(v)) == ring.lift_apply(v, ring.basis(u))
              for u in elts for v in elts)
    report("star product commutes on all Schubert pairs", sym)


def _suite_associativity(letter: str, rank: int, report) -> None:
    ring = quantum_aff(letter, rank)
    elts = ring.FW.elements
    if len(elts) > 24:
        elts = [w for w in elts if ring.FW.length[w] <= 3]
    cache = {(u, v): ring.star(ring.basis(u), ring.basis(v)) for u in elts for v in elts}
    ok = True
    for u in elts:
        for v in elts:
            for w in elts:
                ok &= ring.star(cache[(u, v)], ring.basis(w)) == ring.star(
                    ring.basis(u), cache[(v, w)]
                )
    report(f"associativity on {len(elts)}^3 Schubert triples", ok)


def _suite_divisor_law(letter: str, rank: int, report) -> None:
    ring = quantum_aff(letter, rank)
    # the classical part from OrdinaryQH's root-table Chevalley rule, not from
    # ring.fs, which star itself reads
    ord_ring = ordinary_qh(letter, rank)
    marks = ring.rs.theta_coroot
    ok = True
    for i in range(1, rank + 1):
        for j in range(1, rank + 1):
            prod = ring.star(ring.basis_simple(i), ring.basis_simple(j))
            classical = ord_ring.chevalley_classical(i, ord_ring.basis(ring.FW.gens[j - 1]))
            cup = ring.from_finite({w: p.constant_term for w, p in classical.terms.items()})
            extra = Poly.monomial(rank + 1, (1,) + (0,) * rank, marks[i - 1] * marks[j - 1])
            if i == j:
                extra = extra + Poly.monomial(
                    rank + 1, tuple(1 if k == i else 0 for k in range(rank + 1)), 1
                )
            ok &= prod == cup + ring.basis(ring.FW.identity, extra)
    report("divisor product law sigma_i * sigma_j", ok)


def _suite_quadratic(letter: str, rank: int, report) -> None:
    report("quadratic relation",
           toda.verify_relation(toda.quadratic_relation(letter, rank), quantum_aff(letter, rank)))


def _suite_fw(letter: str, rank: int, report) -> None:
    ring = quantum_aff(letter, rank)
    rep = ring.verify_fw_chevalley()
    report(f"q0=0 Chevalley matches the finite-root rule ({rep['checked']} images)", rep["ok"])
    if len(ring.FW.elements) <= 10:
        ord_ring = ordinary_qh(letter, rank)
        ok = all(
            ring.specialize_q0(ring.star(ring.basis(u), ring.basis(v))).terms
            == ord_ring.star(ord_ring.basis(u), ord_ring.basis(v)).terms
            for u in ring.FW.elements for v in ring.FW.elements
        )
        report("q0=0 collapse of every product equals ordinary QH", ok)


def _suite_chevalley_roots(letter: str, rank: int, report) -> None:
    W = affine_weyl(letter, rank)
    crs = enumerate_chevalley_roots(W)
    recon = posir_reconstruct(W)
    report(
        "upward induction reconstructs the Chevalley roots",
        set(recon) == {cr.root for cr in crs},
    )
    if all(d == 1 for d in W.rs.d):
        ard = W.ard
        ok = {cr.root for cr in crs} == {
            mu for mu, coroot in ard.real_positive_roots_leq(ard.c) if coroot != ard.c}
        report("simply-laced: Chevalley roots = {alpha : alpha^vee < c}", ok)


def _suite_neighborhoods(letter: str, rank: int, report) -> None:
    from itertools import product as iproduct

    W = affine_weyl(letter, rank)
    layers = W.enumerate_up_to(2)
    elts = [w for ws in layers.values() for w in ws]
    ok = True
    for u in elts:
        for d in iproduct(range(3), repeat=rank + 1):
            if sum(d) == 0 or sum(d) > 3:
                continue
            ok &= set(curve_neighborhood(W, u, d)) == set(neighborhood_by_search(W, u, d))
    report("curve neighborhoods: Hecke route equals moment-graph search", ok)


def _suite_intertwining(letter: str, rank: int, report) -> None:
    FW = finite_weyl(letter, rank)
    calc = AffineCoh(affine_weyl(letter, rank), L=FW.length[FW.w0])
    fs = finite_schubert(letter, rank)
    ok = True
    for v in FW.elements:
        img = calc.e1_pullback({v: Fraction(1)})
        for w in FW.elements:
            if not 1 <= FW.length[w] <= 3:
                continue
            word = tuple(i + 1 for i in FW.word[w])
            ok &= calc.D_word(word, img) == calc.e1_pullback(
                fs.pi_word(word, {v: Fraction(1)})
            )
    report("D_w intertwines e1-pullback with pi(D_w), l(w) <= 3", ok)


def _suite_toda(letter: str, rank: int, report) -> None:
    rels, status = toda.relations_for(letter, rank)
    ring = quantum_aff(letter, rank)
    for rel in rels:
        phi_zero, classical_invariant = toda.relation_checks(rel, ring)
        report(f"Phi({rel.name}) = 0", phi_zero)
        report(f"{rel.name} classical part is a Borel invariant", classical_invariant)
    report(f"relation set status: {status}", True)


SUITES = {
    "commutativity": _suite_commutativity,
    "frobenius": _suite_frobenius,
    "associativity": _suite_associativity,
    "divisor-law": _suite_divisor_law,
    "quadratic": _suite_quadratic,
    "fw": _suite_fw,
    "chevalley-roots": _suite_chevalley_roots,
    "neighborhoods": _suite_neighborhoods,
    "intertwining": _suite_intertwining,
    "toda": _suite_toda,
}


def cmd_verify(args, letter: str, rank: int) -> int:
    names = args.suite or list(SUITES)
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
    s.add_argument("--suite", action="append", default=None, choices=list(SUITES),
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
