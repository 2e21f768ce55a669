"""The invariant suites of ``qaff verify`` and the cross-checks only they and the tests run.

Each suite checks one family of identities on one type and reports every
check through ``report(label, ok)``; ``SUITES`` maps the suite names that
``verify --suite`` takes to them, in the order a full run takes them.  The
cross-checks are second routes to what the run-time code computes:

* ``lambda_op_by_words`` — ``Lambda_i`` as cup plus ``<lambda_i, alpha^vee>
  q^{alpha^vee} D_{s_alpha}`` along each distinguished root's word, against
  :meth:`~qaff.affine.AffineCoh.lambda_op` and its quantum-cover length condition;
* ``verify_fw_chevalley`` — ``lambda_bar`` at ``q0 = 0`` against the finite-root
  quantum Chevalley rule of :class:`~qaff.quantum.OrdinaryQH`;
* ``poincare_pairing`` — the Schubert duality pairing, which the Frobenius
  suite reads;
* ``posir_reconstruct`` — the Chevalley roots rebuilt by upward closure,
  without the ``2 ht - 1`` criterion.

Only ``qaff verify`` (inside :func:`qaff.cli.cmd_verify`) and the tests import
this module, so no other run compiles it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct

from . import toda
from .affine import AffineCoh
from .bgg import finite_schubert
from .chevalley import enumerate_chevalley_roots
from .divisor_ring import e1_pullback, q_monomial, reduce_mod_qc
from .neighborhoods import curve_neighborhood, neighborhood_by_search
from .polynomials import Poly, QClass
from .quantum import QuantumAff, ordinary_qh, quantum_aff
from .roots import AffineRoot
from .weyl import AffineWeylGroup, affine_weyl, finite_weyl


# -- the cross-checks -----------------------------------------------------------------


def lambda_op_by_words(calc: AffineCoh, i: int, a: QClass) -> QClass:
    """``Lambda_i`` as cup plus ``<lambda_i, alpha^vee> q^{alpha^vee} D_{s_alpha}``.

    The letters of each distinguished root's palindromic word are applied
    one by one.  This is the oracle that ``verify`` and the tests compare
    :meth:`~qaff.affine.AffineCoh.lambda_op` against.
    """
    out = calc.chevalley(i, a)
    for cr in enumerate_chevalley_roots(calc.W):
        k = cr.coroot[i]
        if k:
            out = out + calc.D_word(cr.word, a).scale(q_monomial(calc, cr.coroot, k))
    return out


def poincare_pairing(ring: QuantumAff, a: QClass, b: QClass) -> Poly:
    """Q[q]-extension of the Schubert duality pairing <s_u, s_{w0 u}> = 1."""
    ring.check_classes(a, b)
    total = Poly.zero(ring.nq)
    FW = ring.FW
    for u, c in a.terms.items():
        d = b.terms.get(FW.mul(FW.w0, u))
        if d is not None:
            total = total + c * d
    return total


def verify_fw_chevalley(ring: QuantumAff) -> dict:
    """Compare lambda_bar at q0=0 with the finite-root quantum Chevalley rule."""
    ord_ring = ordinary_qh(ring.rs.letter, ring.rs.rank)
    checked = mismatches = 0
    for i in range(1, ring.n + 1):
        for w in ring.FW.elements:
            lhs = ring.specialize_q0(ring.lambda_bar(i, ring.basis(w)))
            rhs = ord_ring.chevalley(i, ord_ring.basis(w))
            checked += 1
            if lhs.terms != rhs.terms:
                mismatches += 1
    return {
        "type": ring.rs.lie_type,
        "checked": checked,
        "mismatches": mismatches,
        "ok": mismatches == 0,
    }


def posir_reconstruct(W: AffineWeylGroup) -> dict[AffineRoot, tuple[int, ...]]:
    """Rebuild the set by upward closure, without the ``2 ht - 1`` criterion.

    Start from the affine simple roots and repeatedly apply
    ``beta -> s_i(beta)`` whenever ``<alpha_i, beta^vee> = -1`` and the
    conjugated word stays reduced (word length grows by exactly 2).  Tests
    compare the result against the direct length-test enumeration; agreement
    is precisely the peeling characterization.
    """
    ard = W.ard
    simple_roots = [ard.simple_root(i) for i in range(ard.n + 1)]
    found: dict[AffineRoot, tuple[int, ...]] = {
        s: (i,) for i, s in enumerate(simple_roots)
    }
    frontier = list(found)
    while frontier:
        nxt: list[AffineRoot] = []
        for beta in frontier:
            bv = ard.coroot(beta)
            wlen = len(found[beta])
            for i in range(ard.n + 1):
                if ard.pairing(simple_roots[i], bv) != -1:
                    continue
                alpha = ard.reflect(simple_roots[i], beta)
                if alpha in found:
                    continue
                if W.length(W.reflection(alpha)) == wlen + 2:
                    found[alpha] = (i,) + found[beta] + (i,)
                    nxt.append(alpha)
        frontier = nxt
    return found


# -- the suites -----------------------------------------------------------------------



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
                    ok &= reduce_mod_qc(calc, comm).is_zero()
            tag = "expected-mod-q^c" if defect_seen else "exact"
            report(f"[Lambda_{i}, Lambda_{j}] = 0 mod q^c on l <= {lmax} ({tag})", ok)
    ok = all(calc.lambda_op(i, calc.basis(w)) == lambda_op_by_words(calc, i, calc.basis(w))
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
        poincare_pairing(ring, cache[(u, v)], ring.basis(w))
        == poincare_pairing(ring, ring.basis(u), cache[(v, w)])
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
    rep = verify_fw_chevalley(ring)
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
        img = e1_pullback(calc, {v: Fraction(1)})
        for w in FW.elements:
            if not 1 <= FW.length[w] <= 3:
                continue
            word = tuple(i + 1 for i in FW.word[w])
            ok &= calc.D_word(word, img) == e1_pullback(
                calc, fs.pi_word(word, {v: Fraction(1)})
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
