"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line on the real stdout (so the lines
survive pytest's capture) and enforces its stated runtime budget.  The checks
here deliberately re-derive expected values through independent routes —
frozen tables, dual oracles, a separately coded finite-root engine — rather
than reusing the library call under test.
"""

import itertools
import sys
import time
from fractions import Fraction

import acceptance_log
from bgg_oracle import PolynomialBGG
from cover_oracles import short_reflections
from goldens_fl3 import all_21_products

from qaff.affine import AffineCoh, affine_coh
from qaff.bgg import finite_schubert
from qaff.chevalley import chevalley_root_set, posir_reconstruct
from qaff.neighborhoods import curve_neighborhood, neighborhood_by_search
from qaff.polynomials import Poly
from qaff.quantum import OrdinaryQH, QuantumAff, quantum_aff
from qaff.roots import coroot_leq
from qaff.toda import b2_relations, quadratic_relation, typeA_relations, verify_relation
from qaff.weyl import affine_weyl


def _report(num, label, ok, elapsed=None, budget=None):
    tag = "PASS" if ok else "FAIL"
    timing = ""
    if elapsed is not None:
        timing = f"  ({elapsed:.2f}s"
        timing += f" < {budget:.0f}s)" if budget else ")"
    line = f"criterion {num:>2} {tag}: {label}{timing}"
    acceptance_log.LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)  # also visible under -s
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_01_fl3_golden_table():
    t0 = time.perf_counter()
    ring = QuantumAff("A", 2)  # fresh instance: its own lift/operator caches
    ok = True
    for u, v, expected in all_21_products(ring):
        got = ring.star(ring.basis(ring.FW.parse(u)), ring.basis(ring.FW.parse(v)))
        if got != expected:
            ok = False
            break
    elapsed = time.perf_counter() - t0
    _report(1, "all 21 distinct Fl(3) products match the frozen table", ok and elapsed < 5, elapsed, 5)


def test_criterion_02_divisor_law():
    ok = True
    for lt in [("A", 2), ("B", 2), ("G", 2), ("A", 3)]:
        ring = quantum_aff(*lt)
        oracle = PolynomialBGG(ring.fs)
        marks = ring.ard.rs.theta_coroot
        n = ring.FW.n
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                got = ring.star(ring.basis_simple(i), ring.basis_simple(j))
                cup = oracle.cup_product(
                    {ring.FW.gens[i - 1]: Fraction(1)},
                    {ring.FW.gens[j - 1]: Fraction(1)},
                )
                want = ring.from_finite(cup)
                if i == j:
                    qi = [0] * ring.nq
                    qi[i] = 1
                    want = want + ring.unit().scale(
                        Poly.monomial(ring.nq, tuple(qi), Fraction(1))
                    )
                coef = marks[i - 1] * marks[j - 1]
                if coef:
                    q0 = (1,) + (0,) * (ring.nq - 1)
                    want = want + ring.unit().scale(
                        Poly.monomial(ring.nq, q0, Fraction(coef))
                    )
                ok = ok and got == want
    _report(2, "sigma_i * sigma_j = cup + delta_ij q_i + m_i m_j q0 in A2/B2/G2/A3", ok)


def test_criterion_03_sl2_commutator_and_mod_qc():
    H = affine_coh("A", 1, 8)
    a = H.basis(H.W.parse("s0s1"))
    lhs = H.lambda_op(0, H.lambda_op(1, a)) - H.lambda_op(1, H.lambda_op(0, a))
    want = H.basis(H.W.identity).scale(H.q_monomial((1, 1), 1))
    ok = lhs == want
    for lt in [("A", 1), ("A", 2), ("C", 2)]:
        calc = AffineCoh(affine_weyl(*lt), 8)
        n = calc.W.n
        for ws in calc.W.enumerate_up_to(5).values():
            for w in ws:
                cls = calc.basis(w)
                for i, j in itertools.combinations(range(n + 1), 2):
                    comm = calc.lambda_op(i, calc.lambda_op(j, cls)) - calc.lambda_op(
                        j, calc.lambda_op(i, cls)
                    )
                    ok = ok and calc.reduce_mod_qc(comm).is_zero()
    _report(3, "[L0,L1] eps_{s0s1} = q0 q1 eps_id; [L_i,L_j] = 0 mod q^c, l <= 5, A1/A2/C2", ok)


def test_criterion_04_modified_operators_commute_exactly():
    t0 = time.perf_counter()
    ok = True
    for lt in [("A", 1), ("A", 2), ("B", 2), ("C", 2), ("G", 2)]:
        calc = AffineCoh(affine_weyl(*lt), 8)
        n = calc.W.n
        for ws in calc.W.enumerate_up_to(5).values():
            for w in ws:
                cls = calc.basis(w)
                for i, j in itertools.combinations(range(1, n + 1), 2):
                    lhs = calc.modified_lambda(i, calc.modified_lambda(j, cls))
                    rhs = calc.modified_lambda(j, calc.modified_lambda(i, cls))
                    ok = ok and lhs == rhs
    elapsed = time.perf_counter() - t0
    _report(4, "modified operators commute exactly, l <= 5, all rank <= 2 types", ok and elapsed < 60, elapsed, 60)


def test_criterion_05_intertwining():
    ok = True
    for lt in [("A", 2), ("B", 2)]:
        H = affine_coh(*lt, 8)
        fs = finite_schubert(*lt)
        affine_elts = [w for ws in H.W.enumerate_up_to(3).values() for w in ws]
        for v in fs.W.elements:
            cls = {v: Fraction(1)}
            pulled = H.e1_pullback(cls)
            for w in affine_elts:
                word = H.W.reduced_word(w)
                lhs = H.D_word(word, pulled)
                rhs = H.e1_pullback(fs.pi_word(word, cls))
                ok = ok and lhs == rhs
    _report(5, "D_w e1* = e1* pi(D_w) for all v, l(w) <= 3, A2 and B2", ok)


def test_criterion_06_frobenius_and_associativity():
    ok = True
    for lt in [("A", 2), ("B", 2)]:
        ring = quantum_aff(*lt)
        elements = ring.FW.elements
        cache = {}

        def star(u, v, _ring=ring, _cache=cache):
            key = (u, v)
            if key not in _cache:
                _cache[key] = _ring.star(_ring.basis(u), _ring.basis(v))
            return _cache[key]

        for u, v, w in itertools.combinations_with_replacement(elements, 3):
            ab_c = ring.star(star(u, v), ring.basis(w))
            a_bc = ring.star(ring.basis(u), star(v, w))
            ok = ok and ab_c == a_bc
            lhs = ring.poincare_pairing(star(u, v), ring.basis(w))
            rhs = ring.poincare_pairing(ring.basis(u), star(v, w))
            ok = ok and lhs == rhs
    _report(6, "Frobenius pairing and associativity on all Schubert triples, A2 and B2", ok)


def test_criterion_07_quadratic_relation():
    ok = True
    for lt in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2), ("B", 3), ("C", 3), ("G", 2)]:
        rel = quadratic_relation(*lt)
        ok = ok and verify_relation(rel, quantum_aff(*lt))
    _report(7, "quadratic relation vanishes in A1/A2/A3/B2/C2/B3/C3/G2", ok)


def test_criterion_08_toda_relations():
    t0 = time.perf_counter()
    ok = True
    for n in (2, 3):
        for rel in typeA_relations(n):
            ok = ok and verify_relation(rel)
    for rel in b2_relations():
        ok = ok and verify_relation(rel)
    t4 = time.perf_counter()
    for rel in typeA_relations(4):
        ok = ok and verify_relation(rel)
    fl4_elapsed = time.perf_counter() - t4
    elapsed = time.perf_counter() - t0
    _report(8, "Phi(H_k) = 0 for Fl(2)/Fl(3)/Fl(4) and the verbatim B2 pair", ok and fl4_elapsed < 120, elapsed, 120)


def test_criterion_09_curve_neighborhoods_two_oracles():
    W1 = affine_weyl("A", 1)
    got_hecke = curve_neighborhood(W1, W1.identity, (1, 1))
    got_search = neighborhood_by_search(W1, W1.identity, (1, 1))
    names = {W1.format(w) for w in got_hecke}
    ok = names == {"s0s1", "s1s0"} and got_hecke == got_search

    W2 = affine_weyl("A", 2)
    crs = chevalley_root_set("A", 2)
    for ws in W2.enumerate_up_to(3).values():
        for w in ws:
            for cr in crs:
                via_hecke = curve_neighborhood(W2, w, cr.coroot)
                via_search = neighborhood_by_search(W2, w, cr.coroot)
                expected = [W2.hecke_product(w, W2.reflection(cr.root))]
                ok = ok and via_hecke == expected == via_search
    _report(9, "Theta_{(1,1)}(id) = {s0s1, s1s0} in A1; Theta_{a^vee}(w) = {w . s_a} in A2; both oracles", ok)


def _pairbij_bijection(letter, rank):
    """Construct both sides of the cover-pair bijection and verify it.

    Set A: pairs of distinguished roots with nonzero pairing, additive
    lengths, and coroot sum below c.  Set B: (gamma, eta) with gamma
    distinguished, eta positive real, and l(s_gamma s_eta) = l(s_gamma)-1 > 0.
    The map gamma^vee = alpha^vee + beta^vee, s_gamma s_eta = s_alpha s_beta
    must be a bijection, matching the closed-form images.
    """
    W = affine_weyl(letter, rank)
    ard = W.ard
    crs = list(chevalley_root_set(letter, rank))
    by_coroot = {cr.coroot: cr for cr in crs}
    # every element looked up below is a product of at most three Chevalley
    # reflections, so a reflection among them is in this table; the table
    # holds the positive real roots only
    root_of = {s: alpha for alpha, s in
               short_reflections(W, 3 * max(cr.reflection_length for cr in crs))}

    pairs_a = []
    for ca in crs:
        for cb in crs:
            pairing = ard.pairing(ca.root, cb.coroot)
            if pairing == 0:
                continue
            sa, sb = W.reflection(ca.root), W.reflection(cb.root)
            if W.length(W.multiply(sa, sb)) != ca.reflection_length + cb.reflection_length:
                continue
            total = tuple(x + y for x, y in zip(ca.coroot, cb.coroot))
            if coroot_leq(total, ard.c) and total != ard.c:
                pairs_a.append((ca, cb, pairing))

    pairs_b = set()
    for cg in crs:
        if cg.reflection_length <= 1:
            continue
        sg = W.reflection(cg.root)
        below = cg.reflection_length - 1
        for y in W.enumerate_up_to(below)[below]:
            eta = root_of.get(W.multiply(sg, y))
            if eta is not None:
                pairs_b.add((cg.root, eta))

    images = []
    for ca, cb, pairing in pairs_a:
        total = tuple(x + y for x, y in zip(ca.coroot, cb.coroot))
        cg = by_coroot.get(total)
        if cg is None:
            return False
        sg = W.reflection(cg.root)
        prod = W.multiply(W.reflection(ca.root), W.reflection(cb.root))
        eta = root_of.get(W.multiply(sg, prod))
        if eta is None:
            return False
        images.append((cg.root, eta))
        # closed-form image: (s_a(b), a) at pairing -1, else (s_b(a), s_b s_a(b))
        if pairing == -1:
            explicit = (ard.reflect(ca.root, cb.root), ca.root)
        elif pairing < -1:
            explicit = (
                ard.reflect(cb.root, ca.root),
                ard.reflect(cb.root, ard.reflect(ca.root, cb.root)),
            )
        else:
            return False  # positive pairings never occur in set A
        if explicit != (cg.root, eta):
            return False
    return len(set(images)) == len(images) and set(images) == pairs_b


def test_criterion_10_chevalley_root_structure():
    ok = True
    # simply-laced: the set is exactly {real positive, coroot < c}
    for lt in [("A", 2), ("A", 3), ("D", 4)]:
        W = affine_weyl(*lt)
        ard = W.ard
        members = {cr.root for cr in chevalley_root_set(*lt)}
        below = {mu for mu, coroot in ard.real_positive_roots_leq(ard.c) if coroot != ard.c}
        ok = ok and members == below
    # upward-closure reconstruction
    for lt in [("A", 1), ("A", 2), ("B", 2), ("C", 2), ("G", 2), ("A", 3), ("D", 4)]:
        W = affine_weyl(*lt)
        rebuilt = posir_reconstruct(W)
        ok = ok and set(rebuilt) == {cr.root for cr in chevalley_root_set(*lt)}
    # exhaustive cover-pair bijection in every rank <= 2 type
    for lt in [("A", 1), ("A", 2), ("B", 2), ("C", 2), ("G", 2)]:
        ok = ok and _pairbij_bijection(*lt)
    _report(10, "ADE equality (A2/A3/D4), peeling reconstruction, cover-pair bijection (rank <= 2)", ok)


def test_criterion_11_specialization_to_finite_quantum():
    ok = True
    for lt in [("A", 2), ("B", 2)]:
        ring = quantum_aff(*lt)
        independent = OrdinaryQH(*lt)  # separately coded finite-root engine
        report = ring.verify_fw_chevalley()
        ok = ok and report["ok"]
        for u, v in itertools.combinations_with_replacement(ring.FW.elements, 2):
            collapsed = ring.specialize_q0(ring.star(ring.basis(u), ring.basis(v)))
            finite = independent.star(independent.basis(u), independent.basis(v))
            ok = ok and collapsed == finite
    _report(11, "q0 := 0 of every A2/B2 product equals the independent finite-root engine", ok)
