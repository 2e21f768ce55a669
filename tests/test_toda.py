from fractions import Fraction

import pytest

from bgg_oracle import PolynomialBGG
from dimension_oracle import quotient_dimension, schubert_module_dimension
from qaff import toda
from qaff.bgg import finite_schubert
from qaff.cli import present_ring
from qaff.polynomials import Poly
from qaff.quantum import quantum_aff
from qaff.roots import build_root_system
from qaff.toda import (
    RelationPoly,
    _q0_part,
    b2_relations,
    phi_evaluate,
    quadratic_relation,
    relations_for,
    typeA_relations,
    verify_relation,
)


def classical_part(rel):
    """The q^0 part of ``Phi(rel)``, which ``relation_checks`` reads: the class in
    H*(G/B) of the q-free part of ``rel``."""
    return _q0_part(phi_evaluate(rel))


def poly_from(rank, terms):
    nv = 2 * rank + 1
    return Poly(nv, {tuple(e): Fraction(c) for e, c in terms.items()})


class TestLaxMatrix:
    def test_fl2_single_relation(self):
        (h1,) = typeA_relations(2)
        # -x1^2 + q1 + q0, in variables (q0, q1, x1)
        assert h1.poly == poly_from(
            1, {(0, 0, 2): -1, (0, 1, 0): 1, (1, 0, 0): 1}
        )

    def test_fl3_relations(self):
        h1, h2 = typeA_relations(3)
        assert h1.poly == poly_from(
            2,
            {
                (0, 0, 0, 0, 2): -1,
                (0, 0, 0, 1, 1): 1,
                (0, 0, 0, 2, 0): -1,
                (0, 0, 1, 0, 0): 1,
                (0, 1, 0, 0, 0): 1,
                (1, 0, 0, 0, 0): 1,
            },
        )
        assert h2.poly == poly_from(
            2,
            {
                (0, 0, 0, 1, 2): -1,
                (0, 0, 0, 2, 1): 1,
                (0, 0, 1, 1, 0): 1,
                (0, 1, 0, 0, 1): -1,
                (1, 0, 0, 0, 1): 1,
                (1, 0, 0, 1, 0): -1,
            },
        )

    def test_fl4_term_counts(self):
        h1, h2, h3 = typeA_relations(4)
        assert (len(h1.poly.terms), len(h2.poly.terms), len(h3.poly.terms)) == (
            9,
            10,
            15,
        )
        # the q1 q3 and q0 q2 cross terms appear in the top conserved quantity
        assert h3.poly.terms.get((0, 1, 0, 1, 0, 0, 0)) is not None
        assert h3.poly.terms.get((1, 0, 1, 0, 0, 0, 0)) is not None

    def test_degrees_are_k_plus_one(self):
        for n in (2, 3, 4):
            rels = typeA_relations(n)
            assert [r.degree() for r in rels] == list(range(2, n + 1))
            for r in rels:
                assert r.is_homogeneous()

    def test_dynkin_flip_signs(self):
        # the diagram flip x_i <-> x_{n-i}, q_i <-> q_{n-i} (q0 fixed) sends
        # H_k to (-1)^(k-1) H_k
        for n in (3, 4):
            rels = typeA_relations(n)
            nv = rels[0].poly.nvars
            images = [Poly.variable(nv, 0)]
            images += [Poly.variable(nv, n - i) for i in range(1, n)]
            images += [Poly.variable(nv, n + (n - i) - 1) for i in range(1, n)]
            for k, rel in enumerate(rels, start=1):
                flipped = rel.poly.substitute(images)
                assert flipped == rel.poly * ((-1) ** (k - 1))


class TestB2Relations:
    def test_frozen_polynomials(self):
        h1, h2 = b2_relations()
        assert h1.poly == poly_from(
            2,
            {
                (0, 0, 0, 2, 0): 4,
                (0, 0, 0, 1, 1): -4,
                (0, 0, 0, 0, 2): 2,
                (1, 0, 0, 0, 0): -2,
                (0, 1, 0, 0, 0): -4,
                (0, 0, 1, 0, 0): -2,
            },
        )
        assert h2.poly == poly_from(
            2,
            {
                (0, 0, 0, 2, 2): 4,
                (0, 0, 0, 1, 3): -4,
                (1, 0, 0, 1, 1): -4,
                (0, 0, 1, 1, 1): 4,
                (0, 0, 0, 0, 4): 1,
                (1, 0, 0, 0, 2): 2,
                (0, 1, 0, 0, 2): -4,
                (0, 0, 1, 0, 2): -2,
                (2, 0, 0, 0, 0): 1,
                (1, 0, 1, 0, 0): -2,
                (0, 0, 2, 0, 0): 1,
            },
        )

    def test_both_vanish(self):
        for rel in b2_relations():
            assert verify_relation(rel)


class TestPhi:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_typeA_all_vanish(self, n):
        for rel in typeA_relations(n):
            assert verify_relation(rel)

    def test_nonrelation_detected(self):
        # x1^2 alone is not a relation of the rank-one ring
        bad = RelationPoly("A", 1, poly_from(1, {(0, 0, 2): 1}), "X")
        assert not verify_relation(bad)
        img = phi_evaluate(bad)
        assert not img.is_zero()

    def test_inhomogeneous_rejected(self):
        bad = RelationPoly("A", 1, poly_from(1, {(0, 0, 2): 1, (0, 0, 1): 1}), "X")
        with pytest.raises(ValueError):
            verify_relation(bad)

    def test_refuses_a_ring_of_another_type(self):
        # B3 answered a nonzero class for A3's H2, and A2 named the q-exponent packing
        h2 = relations_for("A", 3)[0][1]
        for ring in (quantum_aff("B", 3), quantum_aff("A", 2)):
            msg = f"a relation of A3 in the ring of {ring.rs.lie_type}"
            with pytest.raises(ValueError, match=msg):
                phi_evaluate(h2, ring)
            with pytest.raises(ValueError, match=msg):
                verify_relation(h2, ring)
        with pytest.raises(ValueError, match="a relation of C3 in the ring of B3"):
            phi_evaluate(quadratic_relation("C", 3), quantum_aff("B", 3))

    def test_phi_of_x1_is_divisor(self):
        rel = RelationPoly("A", 2, poly_from(2, {(0, 0, 0, 1, 0): 1}), "x1")
        ring_img = phi_evaluate(rel)
        ring = quantum_aff("A", 2)
        assert ring_img == ring.basis_simple(1)


class TestQuadraticRelation:
    TYPES = ["A1", "A2", "A3", "B2", "C2", "B3", "C3", "G2"]

    @pytest.mark.parametrize("lt", TYPES)
    def test_vanishes(self, lt):
        rel = quadratic_relation(lt[0], int(lt[1]))
        assert rel.is_homogeneous() and rel.degree() == 2
        assert verify_relation(rel)

    @pytest.mark.parametrize("lt", TYPES)
    def test_classical_part_is_invariant(self, lt):
        rel = quadratic_relation(lt[0], int(lt[1]))
        assert not classical_part(rel)


class TestClassicalParts:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_typeA(self, n):
        for rel in typeA_relations(n):
            assert not classical_part(rel)

    def test_b2(self):
        for rel in b2_relations():
            assert not classical_part(rel)


def _polynomial_classical_part(rel):
    """The q-free part expanded through divided differences: the oracle."""
    rank = rel.rank
    proj = Poly.zero(rank)
    for e, c in rel.poly.terms.items():
        if not any(e[: rank + 1]):
            proj = proj + Poly.monomial(rank, e[rank + 1 :], c)
    return PolynomialBGG(finite_schubert(rel.letter, rank)).expand_in_schubert(proj)


def _x_monomial(lt, x_exps, coeff):
    rank = int(lt[1])
    e = (0,) * (rank + 1) + tuple(x_exps) + (0,) * (rank - len(x_exps))
    return RelationPoly(lt[0], rank, Poly(2 * rank + 1, {e: Fraction(coeff)}), name="m")


CLASSICAL_CASES = (
    [(f"A{n - 1}-H", lambda n=n: typeA_relations(n)) for n in range(2, 6)]
    + [(f"{lt}-H", lambda lt=lt: relations_for(lt[0], 2)[0]) for lt in ["B2", "C2"]]
    + [(f"{lt}-Hquad", lambda lt=lt: [quadratic_relation(lt[0], int(lt[1]))])
       for lt in ["A1", "A2", "A3", "B2", "C2", "B3", "C3", "G2", "D4", "F4"]]
)
NONZERO_CASES = [(lt, x) for lt in ["A3", "B3", "G2"] for x in [(2,), (1, 1)]]


class TestClassicalPartRoute:
    """``classical_part`` by the Chevalley rule against the polynomial route."""

    @pytest.mark.parametrize("build", [b for _, b in CLASSICAL_CASES],
                             ids=[name for name, _ in CLASSICAL_CASES])
    def test_relations(self, build):
        for rel in build():
            assert classical_part(rel) == _polynomial_classical_part(rel) == {}, rel.name

    @pytest.mark.parametrize("lt, x_exps", NONZERO_CASES)
    def test_nonzero_monomials(self, lt, x_exps):
        rel = _x_monomial(lt, x_exps, 3)
        got = classical_part(rel)
        assert got and got == _polynomial_classical_part(rel)


PRESENT_TYPES = ["A1", "A2", "A3", "A4", "B2", "C2", "B3", "C3", "G2", "D4"]


class TestPresentation:
    def test_full_types(self):
        for lt in ("A2", "A3", "B2", "C2"):
            rec = present_ring(lt[0], int(lt[1]), *relations_for(lt[0], int(lt[1])))
            assert rec["schema_version"] == 1
            assert rec["status"] == "full"
            assert "gap" not in rec
            assert all(e["phi_zero"] for e in rec["relations"])
            assert all(e["classical_invariant"] for e in rec["relations"])

    def test_partial_types(self):
        rec = present_ring("G", 2, *relations_for("G", 2))
        assert rec["status"] == "partial"
        assert "quadratic" in rec["gap"]
        assert len(rec["relations"]) == 1

    @pytest.mark.parametrize("lt", PRESENT_TYPES)
    def test_records_match_verify_and_the_polynomial_oracle(self, lt):
        letter, rank = lt[0], int(lt[1])
        ring = quantum_aff(letter, rank)
        rels, status = relations_for(letter, rank)
        rec = present_ring(letter, rank, rels, status)
        assert rec["status"] == status
        assert rec["relations"] == [
            {"name": rel.name, "degree": rel.degree(), "poly": rel.format(),
             "phi_zero": verify_relation(rel, ring),
             "classical_invariant": not _polynomial_classical_part(rel)}
            for rel in rels
        ]

    def test_relations_for_dispatch(self):
        rels, status = relations_for("A", 3)
        assert status == "full" and len(rels) == 3
        rels, status = relations_for("B", 3)
        assert status == "partial" and len(rels) == 1
        rels, status = relations_for("C", 2)
        assert status == "full" and [rel.letter for rel in rels] == ["C", "C"]
        assert [rel.poly for rel in rels] == [rel.poly for rel in b2_relations()]


class TestRelationCache:
    def test_fresh_equal_list_on_every_call(self):
        first, status = relations_for("A", 3)
        second, again = relations_for("A", 3)
        assert first == second and first is not second and status == again == "full"
        first.clear()
        assert relations_for("A", 3)[0] == second

    def test_built_once_per_type(self, monkeypatch):
        built = []
        real = toda.typeA_relations

        def counted(n):
            built.append(n)
            return real(n)

        monkeypatch.setattr(toda, "typeA_relations", counted)
        toda._relation_set.cache_clear()
        for _ in range(3):
            relations_for("A", 2)
            relations_for("A", 3)
        assert built == [3, 4]

    @pytest.mark.parametrize("letter,rank", [("B", 2.0), ("A", True), ("A", 1.5), ("A", 0),
                                             ("A", "2"), ("H", 2), ("G", 3), ("a", 2)],
                             ids=repr)
    def test_refuses_a_pair_that_names_no_type(self, letter, rank):
        held = toda._relation_set.cache_info().currsize
        with pytest.raises(ValueError) as refused:
            relations_for(letter, rank)
        with pytest.raises(ValueError) as built:
            build_root_system(letter, rank)
        assert str(refused.value) == str(built.value)  # the one check of a Lie label
        assert toda._relation_set.cache_info().currsize == held


class TestGradedDimensions:
    @pytest.mark.parametrize(
        "n,dmax", [(2, 2), (3, 4), (4, 6)]
    )
    def test_quotient_matches_schubert_count(self, n, dmax):
        rels = typeA_relations(n)
        for d in range(dmax + 1):
            assert quotient_dimension(rels, d) == schubert_module_dimension(
                "A", n - 1, d
            )

    @pytest.mark.parametrize("letter", ["B", "C"])
    def test_rank_two_quotient_matches_schubert_count(self, letter):
        rels, status = relations_for(letter, 2)
        assert status == "full"
        for d in range(7):
            assert quotient_dimension(rels, d) == schubert_module_dimension(letter, 2, d)
