import itertools
from fractions import Fraction

import pytest
from divisor_lift import lambda_word
from goldens_fl3 import FL3_TABLE, build_class

from qaff import quantum
from qaff.affine import affine_coh
from qaff.cli import multiplication_table
from qaff.polynomials import Poly, QClass
from qaff.quantum import OrdinaryQH, QuantumAff, ordinary_qh, quantum_aff
from qaff.toda import phi_evaluate, quadratic_relation, typeA_relations, verify_relation
from qaff.verify import poincare_pairing, verify_fw_chevalley
from qaff.weyl import FiniteWeyl


@pytest.fixture(scope="module")
def a2():
    return quantum_aff("A", 2)


@pytest.fixture(scope="module")
def b2():
    return quantum_aff("B", 2)


def qmono(nq, *exps):
    assert len(exps) == nq
    return Poly.monomial(nq, tuple(exps), Fraction(1))


def star_name(ring, u_name, v_name):
    return ring.star(
        ring.basis(ring.FW.parse(u_name)), ring.basis(ring.FW.parse(v_name))
    )


class TestGoldenTable:
    @pytest.mark.parametrize("pair", sorted(FL3_TABLE))
    def test_a2_products(self, a2, pair):
        got = star_name(a2, *pair)
        assert got == build_class(a2, FL3_TABLE[pair])

    def test_a2_unit_row(self, a2):
        for w in a2.FW.elements:
            assert a2.star(a2.unit(), a2.basis(w)) == a2.basis(w)

    def test_a1_table(self):
        ring = quantum_aff("A", 1)
        s1 = ring.basis_simple(1)
        prod = ring.star(s1, s1)
        expected = QClass(
            prod.ring,
            {
                ring.FW.identity: Poly(
                    2, {(1, 0): Fraction(1), (0, 1): Fraction(1)}
                )
            },
        )
        assert prod == expected

    def test_non_positive_structure_constant(self, a2):
        # the affine ring genuinely violates quantum positivity
        got = star_name(a2, "s1", "s1s2")
        coeff = got.terms[a2.FW.parse("s1")]
        assert coeff.terms.get((1, 0, 0)) == Fraction(-1)

    def test_table_is_full_and_symmetric(self, a2):
        table = multiplication_table(a2)
        assert len(table) == 36
        for (u, v), val in table.items():
            assert table[(v, u)] == val


class TestLifts:
    def test_length_two_lift(self, a2):
        # sigma_{s1s2} lifts to Lb_2 Lb_2 - (q0 + q2)
        FW = a2.FW
        for w in FW.elements:
            target = a2.basis(w)
            via_ops = a2.lambda_bar(2, a2.lambda_bar(2, target)) - target.scale(
                Poly(3, {(1, 0, 0): Fraction(1), (0, 0, 1): Fraction(1)})
            )
            assert via_ops == a2.star(a2.basis(FW.parse("s1s2")), target)

    def test_top_class_lift_on_unit(self, a2):
        # sigma_{w0} = Lb_1 Lb_2 Lb_2 (1) - q2 sigma_1 - q0 sigma_2
        val = lambda_word(a2, (1, 2, 2), a2.unit())
        val = val - a2.basis_simple(1).scale(qmono(3, 0, 0, 1))
        val = val - a2.basis_simple(2).scale(qmono(3, 1, 0, 0))
        assert val == a2.basis(a2.FW.w0)

    def test_two_lifts_agree_everywhere(self, a2):
        # an independent second route to the same lift: w0 = s1 s2 s1 read
        # through T-expressions must equal the stored recursion on every class
        FW = a2.FW
        for w in FW.elements:
            target = a2.basis(w)
            assert a2.lift_apply(FW.w0, target) == a2.star(
                a2.basis(FW.w0), target
            )


class TestRingAxioms:
    @pytest.mark.parametrize("ring_name", ["a2", "b2"])
    def test_commutative(self, ring_name, request):
        ring = request.getfixturevalue(ring_name)
        elements = ring.FW.elements
        # star lifts the shorter factor either way round, so compare the two lifts
        for u, v in itertools.combinations(elements, 2):
            assert ring.lift_apply(u, ring.basis(v)) == ring.lift_apply(v, ring.basis(u))

    def test_a2_associative_all_triples(self, a2):
        elements = a2.FW.elements
        for u, v, w in itertools.combinations_with_replacement(elements, 3):
            bu, bv, bw = a2.basis(u), a2.basis(v), a2.basis(w)
            assert a2.star(a2.star(bu, bv), bw) == a2.star(bu, a2.star(bv, bw))

    def test_b2_associative_spot_checks(self, b2):
        FW = b2.FW
        picks = [FW.parse(t) for t in ("s1", "s2", "s1s2", "s2s1s2")]
        for u, v, w in itertools.combinations_with_replacement(picks, 3):
            bu, bv, bw = b2.basis(u), b2.basis(v), b2.basis(w)
            assert b2.star(b2.star(bu, bv), bw) == b2.star(bu, b2.star(bv, bw))

    @pytest.mark.parametrize("ring_name", ["a2", "b2"])
    def test_frobenius_property(self, ring_name, request):
        # (a * b, c) = (a, b * c) for basis triples
        ring = request.getfixturevalue(ring_name)
        FW = ring.FW
        picks = FW.elements if len(FW) <= 8 else FW.elements[:6]
        for u, v, w in itertools.combinations(picks, 3):
            bu, bv, bw = ring.basis(u), ring.basis(v), ring.basis(w)
            lhs = poincare_pairing(ring, ring.star(bu, bv), bw)
            rhs = poincare_pairing(ring, bu, ring.star(bv, bw))
            assert lhs == rhs

    def test_pairing_is_qfree_duality(self, a2):
        FW = a2.FW
        for u in FW.elements:
            for v in FW.elements:
                pairing = poincare_pairing(a2, a2.basis(u), a2.basis(v))
                if FW.mul(FW.w0, u) == v:
                    assert pairing == Poly.one(3)
                else:
                    assert not pairing


class TestDivisorLaw:
    @pytest.mark.parametrize("lt", ["A2", "B2", "G2", "A3"])
    def test_lambda_bars_commute_on_basis(self, lt):
        ring = quantum_aff(lt[0], int(lt[1]))
        n = ring.FW.n
        for w in ring.FW.elements:
            target = ring.basis(w)
            for i, j in itertools.combinations(range(1, n + 1), 2):
                lhs = ring.lambda_bar(i, ring.lambda_bar(j, target))
                rhs = ring.lambda_bar(j, ring.lambda_bar(i, target))
                assert lhs == rhs, (lt, ring.FW.format(w), i, j)


class TestQuadraticRelation:
    @pytest.mark.parametrize(
        "lt", ["A1", "A2", "A3", "B2", "C2", "B3", "C3", "G2"]
    )
    def test_holds(self, lt):
        ring = quantum_aff(lt[0], int(lt[1]))
        assert verify_relation(quadratic_relation(lt[0], int(lt[1])), ring)


class TestSpecialization:
    def test_simple_square(self, a2):
        # q0 := 0 of sigma_1 * sigma_1 is the finite quantum product
        got = a2.specialize_q0(star_name(a2, "s1", "s1"))
        ord_ring = ordinary_qh("A", 2)
        want = ord_ring.star(
            ord_ring.basis(ord_ring.FW.parse("s1")),
            ord_ring.basis(ord_ring.FW.parse("s1")),
        )
        assert got == want

    def test_length_three_case(self, a2):
        # sigma_1 * sigma_{s1s2} at q0 = 0 collapses to the single top class
        got = a2.specialize_q0(star_name(a2, "s1", "s1s2"))
        assert got == QClass(got.ring, {a2.FW.w0: Poly.one(2)})

    @pytest.mark.parametrize("lt", ["A2", "B2"])
    def test_all_products_specialize(self, lt):
        ring = quantum_aff(lt[0], int(lt[1]))
        ord_ring = ordinary_qh(lt[0], int(lt[1]))
        for u in ring.FW.elements:
            for v in ring.FW.elements:
                got = ring.specialize_q0(ring.star(ring.basis(u), ring.basis(v)))
                want = ord_ring.star(ord_ring.basis(u), ord_ring.basis(v))
                assert got == want, (lt, ring.FW.format(u), ring.FW.format(v))

    @pytest.mark.parametrize("lt", ["A2", "B2", "A3"])
    def test_fw_chevalley_matrix(self, lt):
        ring = quantum_aff(lt[0], int(lt[1]))
        report = verify_fw_chevalley(ring)
        assert report["ok"], report
        assert report["mismatches"] == 0
        assert report["checked"] > 0

    @pytest.mark.parametrize("lt", ["B3", "C3", "D4"])
    def test_fw_chevalley_on_rank_three_and_four(self, lt):
        ring = quantum_aff(lt[0], int(lt[1]))
        report = verify_fw_chevalley(ring)
        assert report["ok"], report
        assert report["checked"] == ring.n * len(ring.FW)

    def test_fw_chevalley_sees_one_changed_row(self):
        ring = QuantumAff("B", 3)
        assert verify_fw_chevalley(ring)["ok"]
        key = 2 * len(ring.FW) + ring.FW.w0  # the row of lambda_bar_2(sigma_w0)
        # the memo holds flat (u << S | e, c) rows: append sigma_e q^0 with coefficient 1
        ring._lambda_img[key] = ring._lambda_img[key] + [(0, 1)]
        assert verify_fw_chevalley(ring)["mismatches"] == 1

    def test_ordinary_engine_reads_no_generator_table_or_cover_rows(self, monkeypatch):
        ring = quantum_aff("B", 3)
        assert verify_fw_chevalley(ring)["ok"]  # fills the rows before the guard
        fw = FiniteWeyl(ring.rs)
        fw.rmul = None

        def no_covers(self, w):
            raise AssertionError("OrdinaryQH read a cover row")

        monkeypatch.setattr(FiniteWeyl, "covers", no_covers)
        monkeypatch.setattr(quantum, "finite_weyl", lambda letter, rank: fw)
        oq = OrdinaryQH("B", 3)
        assert oq.FW is fw
        for i in range(1, 4):
            for w in fw.elements:
                want = oq.chevalley(i, oq.basis(w))
                assert ring.specialize_q0(ring.lambda_bar(i, ring.basis(w))).terms == want.terms
        u, v = ring.FW.parse("s1s2"), ring.FW.parse("s3s2")
        assert oq.star(oq.basis(u), oq.basis(v)) == ordinary_qh("B", 3).star(
            ordinary_qh("B", 3).basis(u), ordinary_qh("B", 3).basis(v))


class TestOrdinaryEngine:
    def test_a2_fw_products(self):
        ring = ordinary_qh("A", 2)
        FW = ring.FW
        s1 = ring.basis(FW.parse("s1"))
        got = ring.star(s1, s1)
        want = QClass(
            got.ring,
            {
                FW.parse("s2s1"): Poly.one(2),
                FW.identity: Poly(2, {(1, 0): Fraction(1)}),
            },
        )
        assert got == want

    def test_a1_quantum_square(self):
        ring = ordinary_qh("A", 1)
        FW = ring.FW
        s1 = ring.basis(FW.gens[0])
        got = ring.star(s1, s1)
        assert got == QClass(got.ring, {FW.identity: Poly(1, {(1,): Fraction(1)})})

    def test_commutes_and_associates(self):
        ring = ordinary_qh("B", 2)
        FW = ring.FW
        picks = [FW.parse(t) for t in ("s1", "s2", "s1s2", "s2s1")]
        for u, v in itertools.combinations(picks, 2):
            assert ring.star(ring.basis(u), ring.basis(v)) == ring.star(
                ring.basis(v), ring.basis(u)
            )
        for u, v, w in itertools.combinations(picks, 3):
            bu, bv, bw = ring.basis(u), ring.basis(v), ring.basis(w)
            assert ring.star(ring.star(bu, bv), bw) == ring.star(
                bu, ring.star(bv, bw)
            )

    def test_table_entry_count(self):
        ring = ordinary_qh("A", 2)
        assert len(multiplication_table(ring)) == 36

    def test_unit_lift_once_per_element(self, monkeypatch):
        # T_w(1) - sigma_w is kept per w, so lifting w against several v
        # applies T_w to the unit once
        ring = OrdinaryQH("B", 3)
        FW = ring.FW
        unit_calls = {}
        real = OrdinaryQH._T_apply

        def counting(self, w, b):
            if b == self.unit():
                unit_calls[w] = unit_calls.get(w, 0) + 1
            return real(self, w, b)

        monkeypatch.setattr(OrdinaryQH, "_T_apply", counting)
        vs = [FW.parse(t) for t in ("s1", "s3s2", "s1s2s3")]
        for w in FW.elements:
            for v in vs:
                ring.star(ring.basis(w), ring.basis(v))
        assert unit_calls == dict.fromkeys(FW.elements, 1)


class TestInterfaces:
    def test_lambda_bar_rejects_bad_index(self, a2):
        for i in (0, 3):
            with pytest.raises(ValueError, match=rf"^finite index {i} is not in 1\.\.2$"):
                a2.lambda_bar(i, a2.unit())

    def test_format_class_names_variables(self, a2):
        text = a2.format_class(star_name(a2, "s1", "s1"))
        assert "q0" in text and "q1" in text and "s2s1" in text

    def test_finite_and_affine_formats(self, a2):
        # the finite form prints the identity's coefficient bare and drops +-1;
        # the affine form always prints the coefficient
        FW, q = a2.FW, lambda e, c: Poly.monomial(3, e, c)
        cls = (a2.basis(FW.identity, q((1, 0, 0), 1) + q((0, 1, 0), -2))
               + a2.basis(FW.parse("s1"), -1) + a2.basis(FW.parse("s2"), 1)
               + a2.basis(FW.parse("s1s2"), q((0, 0, 1), 3)))
        assert a2.format_class(cls) == "(-2*q1 + q0) + -s[s1] + s[s2] + 3*q2*s[s1s2]"
        H = affine_coh("A", 2)
        W = H.W
        aff = (H.basis(W.identity, q((1, 0, 0), 1) + q((0, 1, 0), -2))
               + H.basis(W.parse("s1"), -1) + H.basis(W.parse("s0"), 1))
        assert H.format_class(aff) == "(-2*q1 + q0)*e[e] + 1*e[s0] + -1*e[s1]"

    def test_json_has_degree_data(self, a2):
        payload = star_name(a2, "s1", "s2").to_json_obj()
        assert any(entry["coeff"]["q"] == [1, 0, 0] for entry in payload)


class TestElementIds:
    """Both rings refuse a class on an id outside ``FW.elements``: a negative id
    would read the tables from the end, and a large one past them."""

    BAD = [-1, 6, True, 1.0]

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_quantum_ring_refuses(self, bad):
        ring = QuantumAff("A", 2)  # a fresh ring: its memos hold one valid product's rows
        s1, s2 = ring.basis_simple(1), ring.basis_simple(2)
        ring.star(s1, ring.basis(ring.FW.w0))
        wrong = ring.basis(bad)
        calls = [lambda: ring.star(wrong, s1), lambda: ring.star(s1, wrong),
                 lambda: ring.star(wrong.scale(2), s1), lambda: ring.star(s1 + s2, wrong),
                 lambda: ring.lift_apply(bad, s1), lambda: ring.lift_apply(ring.FW.gens[0], wrong),
                 lambda: ring.lambda_bar(1, wrong), lambda: poincare_pairing(ring, wrong, s1)]
        for call in calls:
            with pytest.raises(ValueError, match="is not an element id of A2"):
                call()
        size = len(ring.FW)
        assert ring._lift_img and ring._lambda_img
        lift = [divmod(key, size) for key in ring._lift_img]  # (w, v)
        lam = [divmod(key, size) for key in ring._lambda_img]  # (i, w)
        assert all(w in ring.FW.elements and v in ring.FW.elements for w, v in lift)
        assert all(1 <= i <= ring.n and w in ring.FW.elements for i, w in lam)

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_ordinary_ring_refuses(self, bad):
        ring = OrdinaryQH("A", 2)
        wrong, s1 = ring.basis(bad), ring.basis(ring.FW.gens[0])
        for call in [lambda: ring.star(wrong, s1), lambda: ring.star(s1, wrong),
                     lambda: ring.chevalley(1, wrong), lambda: ring.chevalley_classical(1, wrong)]:
            with pytest.raises(ValueError, match="is not an element id of A2"):
                call()


def test_basis_refuses_a_coefficient_of_another_arity():
    ring = QuantumAff("A", 3)  # q0..q3
    s1 = ring.basis_simple(1)
    with pytest.raises(ValueError, match="^a coefficient in 2 variables does not fit "
                                         "a ring with 4 q-variables$"):
        ring.basis(ring.FW.gens[0], Poly.one(2))
    assert ring.basis(ring.FW.gens[0], Poly.one(4)) == s1


def test_basis_shares_one_unit_that_nothing_changes():
    # every basis(w) with coefficient 1 holds the same Poly, so a change made in place
    # to one answer's coefficient would change every later sigma_w
    ring = QuantumAff("A", 3)
    unit = ring.basis(ring.FW.identity).terms[ring.FW.identity]
    multiplication_table(ring)
    for rel in typeA_relations(4):  # H1..H3 of Fl(4), the A3 flag manifold
        phi_evaluate(rel, ring)
    for w in ring.FW.elements:
        assert ring.basis(w).terms[w] is unit
    assert unit.terms == {(0,) * ring.nq: 1} and unit.nvars == ring.nq
