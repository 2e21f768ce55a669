import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from divisor_lift import e1_by_divisors

from qaff.affine import AffineCoh, TruncationOverflow, affine_coh, default_truncation
from qaff import divisor_ring
from qaff.bgg import finite_schubert
from qaff.divisor_ring import (
    _e1_cache,
    divisor_monomial_class,
    e1_pullback,
    express_in_divisor_monomials,
    q_monomial,
    qsharp_product,
    reduce_mod_qc,
)
from qaff.neighborhoods import curve_neighborhood, gw_invariant, neighborhood_by_search
from qaff.polynomials import Poly
from qaff.roots import affinize
from qaff.verify import lambda_op_by_words
from qaff.weyl import AffineWeylGroup, affine_weyl


@pytest.fixture(scope="module")
def sl2():
    return affine_coh("A", 1, 8)


@pytest.fixture(scope="module")
def a2():
    return affine_coh("A", 2, 6)


def B(H, text, coeff=1):
    return H.basis(H.W.parse(text), coeff)


def with_q(H, text, exps, num=1):
    return H.basis(H.W.parse(text), 1).scale(q_monomial(H, tuple(exps), num))


class TestCupProduct:
    def test_zero_is_absorbing(self, sl2):
        for i in (0, 1):
            assert sl2.chevalley(i, sl2.zero()).is_zero()

    def test_sl2_divisor_products(self, sl2):
        # eps_1 . eps_{s0} = eps_{s0s1} + eps_{s1s0};  eps_0 . eps_{s0} = 2 eps_{s1s0}
        got = sl2.chevalley(1, B(sl2, "s0"))
        assert got == B(sl2, "s0s1") + B(sl2, "s1s0")
        got = sl2.chevalley(0, B(sl2, "s0"))
        assert got == B(sl2, "s1s0", 2)

    def test_a2_divisor_products(self, a2):
        got = a2.chevalley(1, B(a2, "s0"))
        assert got == B(a2, "s0s1") + B(a2, "s1s0")
        got = a2.chevalley(0, B(a2, "s1"))
        assert got == B(a2, "s0s1") + B(a2, "s1s0")

    def test_degree_raises_by_one(self, a2):
        for i in (0, 1, 2):
            img = a2.chevalley(i, B(a2, "s0s1"))
            assert img.is_zero() or img.homogeneous_degree() == 3


class TestLambdaOperators:
    def test_sl2_frozen_images(self, sl2):
        assert sl2.lambda_op(0, B(sl2, "s0")) == B(sl2, "s1s0", 2) + with_q(
            sl2, "e", (1, 0)
        )
        assert sl2.lambda_op(1, B(sl2, "s0s1")) == B(sl2, "s1s0s1", 3) + with_q(
            sl2, "s0", (0, 1)
        )
        assert sl2.lambda_op(0, B(sl2, "s0s1")) == B(sl2, "s0s1s0") + B(
            sl2, "s1s0s1", 2
        )

    def test_sl2_commutator_is_central_monomial(self, sl2):
        # [Lambda_0, Lambda_1] eps_{s0s1} = q0 q1 eps_e  (exactly, not mod q^c)
        a = B(sl2, "s0s1")
        lhs = sl2.lambda_op(0, sl2.lambda_op(1, a)) - sl2.lambda_op(
            1, sl2.lambda_op(0, a)
        )
        assert lhs == with_q(sl2, "e", (1, 1))

    def test_quantum_terms_vanish_at_q_zero(self, a2):
        for w in [a2.W.parse("s0"), a2.W.parse("s0s1"), a2.W.parse("s1s2")]:
            for i in range(3):
                cup = a2.chevalley(i, a2.basis(w))
                # killing q0 only removes part of the quantum tail; compare

                # against the full q -> 0 image instead
                full = a2.lambda_op(i, a2.basis(w))
                classical = a2.zero()
                for u, poly in full.terms.items():
                    classical = classical + a2.basis(
                        u,
                        Poly(
                            poly.nvars,
                            {
                                e: c
                                for e, c in poly.terms.items()
                                if all(x == 0 for x in e)
                            },
                        ),
                    )
                assert classical == cup

    def test_lambda_is_homogeneous(self, a2):
        for i in range(3):
            img = a2.lambda_op(i, B(a2, "s1s2"))
            assert img.homogeneous_degree() == 3

    def test_modified_lambda_range(self, a2):
        with pytest.raises(ValueError):
            a2.modified_lambda(0, a2.unit())
        with pytest.raises(ValueError):
            a2.modified_lambda(3, a2.unit())

    def test_modified_lambdas_commute_exactly(self, a2):
        pairs = list(itertools.combinations((1, 2), 2))
        for ws in a2.W.enumerate_up_to(3).values():
            for w in ws:
                a = a2.basis(w)
                for i, j in pairs:
                    lhs = a2.modified_lambda(i, a2.modified_lambda(j, a))
                    rhs = a2.modified_lambda(j, a2.modified_lambda(i, a))
                    assert lhs == rhs

    @pytest.mark.parametrize("lt", ["A1", "A2", "A3", "B2", "G2"])
    def test_length_condition_equals_word_form(self, lt):
        # the oracle applies D_{s_alpha} letter by letter along each root's word
        H = affine_coh(lt[0], int(lt[1]))
        quantum_seen = False
        for ws in H.W.enumerate_up_to(3).values():
            for w in ws:
                for i in range(H.n + 1):
                    img = H.lambda_op(i, H.basis(w))
                    assert img == lambda_op_by_words(H, i, H.basis(w)), (lt, H.W.format(w), i)
                    quantum_seen |= any(any(e) for c in img.terms.values() for e in c.terms)
        assert quantum_seen


class TestEvaluationPullback:
    def test_a2_divisor_images(self, a2):
        fs = finite_schubert("A", 2)
        FW = fs.W
        img = e1_pullback(a2, {FW.parse("s1"): Fraction(1)})
        assert img == B(a2, "s1") - B(a2, "s0")
        img = e1_pullback(a2, {FW.parse("s2"): Fraction(1)})
        assert img == B(a2, "s2") - B(a2, "s0")

    @pytest.mark.parametrize("lt", ["A2", "B2"])
    def test_intertwining(self, lt):
        # e1*(sigma_i . sigma_v) = (eps_i - m_i eps_0) . e1*(sigma_v)
        H = affine_coh(lt[0], int(lt[1]), 8)
        fs = finite_schubert(lt[0], int(lt[1]))
        FW = fs.W
        for v in FW.elements:
            cls = {v: Fraction(1)}
            for i in range(1, FW.n + 1):
                lhs = e1_pullback(H, fs.chevalley_cup(i, cls))
                rhs = H.divisor_pullback(i, e1_pullback(H, cls))
                assert lhs == rhs, (lt, FW.format(v), i)

    def test_pullback_of_unit(self, a2):
        fs = finite_schubert("A", 2)
        assert e1_pullback(a2, {fs.W.identity: Fraction(1)}) == a2.unit()

    def test_a2_pullback_classes(self, a2):
        assert divisor_ring.fs(a2) is finite_schubert("A", 2)
        expected = {
            "e": "1*e[e]",
            "s1": "-1*e[s0] + 1*e[s1]",
            "s2": "-1*e[s0] + 1*e[s2]",
            "s1s2": "-1*e[s0s2] + 1*e[s1s0] + 1*e[s1s2] + -1*e[s2s0]",
            "s2s1": "-1*e[s0s1] + -1*e[s1s0] + 1*e[s2s0] + 1*e[s2s1]",
            "s1s2s1": "1*e[s0s1s0] + -1*e[s0s1s2] + 1*e[s0s2s0] + -1*e[s0s2s1]"
                      " + -1*e[s1s0s2] + -1*e[s1s2s0] + 1*e[s1s2s1] + -1*e[s2s0s1]"
                      " + -1*e[s2s1s0]",
        }
        FW = divisor_ring.fs(a2).W
        got = {FW.format(w): a2.format_class(e1_pullback(a2, {w: Fraction(1)}))
               for w in FW.elements}
        assert got == expected

    @pytest.mark.parametrize("lt,top", [("A2", 3), ("B2", 4), ("G2", 6), ("A3", 6),
                                        ("B3", 9), ("C3", 9), ("D4", 5)])
    def test_monk_step_matches_the_divisor_route(self, lt, top):
        # every w of length <= top; in D4 the divisor route alone takes 3.8 s
        # on the whole group, so it stops at length 5
        H = affine_coh(lt[0], int(lt[1]), max(top + 1, 6))
        FW = divisor_ring.fs(H).W
        bad = [FW.format(w) for w in FW.elements if FW.length[w] <= top
               and e1_pullback(H, {w: Fraction(1)}) != e1_by_divisors(H, {w: Fraction(1)})]
        assert bad == []

    def test_monk_step_with_fraction_coefficients(self):
        H = affine_coh("B", 3, 10)
        FW = divisor_ring.fs(H).W
        a = {FW.parse("s1"): Fraction(1, 2), FW.parse("s2s3"): Fraction(-3, 4),
             FW.parse("s3s2s3"): Fraction(5, 3), FW.w0: Fraction(2)}
        got = e1_pullback(H, a)
        assert got == e1_by_divisors(H, a)
        values = [c for p in got.terms.values() for c in p.terms.values()]
        assert any(type(c) is Fraction for c in values)
        assert all(type(c) is int or c.denominator != 1 for c in values)


def test_affine_coh_refuses_an_unparsed_letter():
    with pytest.raises(ValueError, match="letter A..G"):
        affine_coh("A2", 2)


def test_operators_leave_the_finite_group_unbuilt():
    # a fresh interpreter, so no other test has built the F4 finite group
    code = (
        "from qaff.affine import affine_coh\n"
        "from qaff.bgg import finite_schubert\n"
        "from qaff.neighborhoods import curve_neighborhood\n"
        "from qaff.weyl import finite_weyl\n"
        "sizes = lambda: (finite_schubert.cache_info().currsize,"
        " finite_weyl.cache_info().currsize)\n"
        "H = affine_coh('F', 4)\n"
        "before = sizes()\n"
        "b = H.basis(H.W.parse('s0s1'))\n"
        "assert not H.lambda_op(0, b).is_zero()\n"
        "assert not H.modified_lambda(2, b).is_zero()\n"
        "assert curve_neighborhood(H.W, H.W.parse('s1'), (0, 1, 0, 0, 0))\n"
        "print(before, sizes())\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["(0,", "0)", "(0,", "0)"]


class TestDivisorSubring:
    def test_membership_failure_message(self, a2):
        with pytest.raises(ValueError, match="outside the subring"):
            express_in_divisor_monomials(a2, B(a2, "s1s2"))

    def test_sl2_every_class_is_expressible(self, sl2):
        # rank-one quirk: three divisor monomials span the two-dimensional
        # degree-two piece, so even basis classes lie in the subring
        terms = express_in_divisor_monomials(sl2, B(sl2, "s0s1"))
        rebuilt = sl2.zero()
        for e, coeff, mono in terms:
            cls = divisor_monomial_class(sl2, mono).scale(
                q_monomial(sl2, e, 1) * coeff
            )
            rebuilt = rebuilt + cls
        assert rebuilt == B(sl2, "s0s1")

    def test_monomial_roundtrip(self, a2):
        for mono in [(0,), (1,), (0, 1), (1, 2), (0, 0)]:
            cls = divisor_monomial_class(a2, mono)
            terms = express_in_divisor_monomials(a2, cls)
            rebuilt = a2.zero()
            for e, coeff, m in terms:
                rebuilt = rebuilt + divisor_monomial_class(a2, m).scale(
                    q_monomial(a2, e, 1) * coeff
                )
            assert rebuilt == cls

    def test_monomials_memoized_by_suffix(self, monkeypatch):
        H = AffineCoh(affine_weyl("A", 2), 6)  # a fresh memo
        chevalley, calls = H.chevalley, []
        monkeypatch.setattr(H, "chevalley", lambda i, a: calls.append(i) or chevalley(i, a))
        # new suffixes: (0,), (2, 0), (1, 2, 0), then (0, 2, 0); the rest are memoized
        for mono in [(1, 2, 0), (0, 2, 0), (2, 0), (1, 2, 0), ()]:
            chain = H.unit()
            for i in reversed(mono):
                chain = chevalley(i, chain)
            assert divisor_monomial_class(H, mono) == chain
        assert calls == [0, 2, 1, 0]


class TestSharpProduct:
    def test_sl2_golden(self, sl2):
        # eps_0 # eps_0 = 2 eps_{s1s0} + q0 eps_e
        got = qsharp_product(sl2, B(sl2, "s0"), B(sl2, "s0"))
        assert got == B(sl2, "s1s0", 2) + with_q(sl2, "e", (1, 0))

    @pytest.mark.parametrize("lt", ["A1", "A2", "B2"])
    def test_commutative_mod_qc(self, lt):
        H = affine_coh(lt[0], int(lt[1]), 8)
        n = H.W.n
        monos = [(i,) for i in range(n + 1)] + [(0, 1), (1, n)]
        for ma, mb in itertools.combinations(monos, 2):
            a, b = divisor_monomial_class(H, ma), divisor_monomial_class(H, mb)
            assert qsharp_product(H, a, b) == qsharp_product(H, b, a), (lt, ma, mb)

    def test_q_zero_part_is_cup(self, a2):
        a = divisor_monomial_class(a2, (1,))
        b = divisor_monomial_class(a2, (2,))
        sharp = qsharp_product(a2, a, b)
        classical = a2.zero()
        for u, poly in sharp.terms.items():
            classical = classical + a2.basis(
                u,
                Poly(
                    poly.nvars,
                    {e: c for e, c in poly.terms.items() if all(x == 0 for x in e)},
                ),
            )
        assert classical == a2.chevalley(1, b)

    def test_reduction_drops_central_powers(self, sl2):
        c = sl2.ard.c
        cls = sl2.unit().scale(q_monomial(sl2, c, 1)) + sl2.unit()
        assert reduce_mod_qc(sl2, cls) == sl2.unit()


class TestTruncationGuard:
    def test_default_levels(self):
        assert default_truncation(1) == 8
        assert default_truncation(2) == 8
        assert default_truncation(3) == 6

    def test_overflow_raises_with_hint(self):
        H = affine_coh("A", 1, 2)
        top = B(H, "s0s1")  # length 2 == L, no room to go up
        with pytest.raises(TruncationOverflow) as exc:
            H.chevalley(1, top)
        assert exc.value.needed > exc.value.configured == 2
        assert "--trunc" in str(exc.value)

    def test_larger_window_succeeds(self):
        # the guard refuses only support above L, so an image at length L is allowed
        for L, word, top in [(4, "s0s1", 3), (2, "s0", 2)]:
            H = affine_coh("A", 1, L)
            img = H.chevalley(1, B(H, word))
            assert not img.is_zero()
            assert max(map(H.length, img.support())) == top


class TestElementIds:
    """Every entry point that reads the affine group refuses an id the group has not
    made.  Ids index lists that grow as elements are met, so ``-1`` would name
    whichever element came last, and a different one after the next is met."""

    BAD = [-1, 10**6, True, 1.0]

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_affine_entry_points_refuse(self, bad):
        H = AffineCoh(AffineWeylGroup(affinize("A", 2)))  # fresh memos
        W = H.W
        W.parse("s0s1")  # the element -1 once named
        wrong, e, d = H.basis(bad), H.unit(), (1, 0, 0)
        calls = [lambda: H.chevalley(1, wrong), lambda: H.lambda_op(1, wrong),
                 lambda: H.lambda_op(1, e + wrong), lambda: lambda_op_by_words(H, 1, wrong),
                 lambda: H.modified_lambda(1, wrong), lambda: H.divisor_pullback(1, wrong),
                 lambda: H.D_word((0,), wrong), lambda: express_in_divisor_monomials(H, wrong),
                 lambda: qsharp_product(H, wrong, e), lambda: qsharp_product(H, e, wrong),
                 lambda: curve_neighborhood(W, bad, d), lambda: neighborhood_by_search(W, bad, d),
                 lambda: gw_invariant(W, 1, bad, W.identity, d),
                 lambda: gw_invariant(W, 1, W.simple(0), bad, d)]
        for call in calls:
            with pytest.raises(ValueError, match="is not an element id of affine A2: ids run 0.."):
                call()
        for memo in (H._rows, W._covers_memo, W._word_memo):
            assert all(w.__class__ is int and 0 <= w < len(W.perm) for w in memo)

    @pytest.mark.parametrize("bad", [-1, 6, True, 1.0], ids=repr)
    def test_e1_pullback_refuses_a_finite_id(self, bad):
        H = AffineCoh(AffineWeylGroup(affinize("A", 2)), L=4)
        with pytest.raises(ValueError, match="is not an element id of A2: ids run 0..5"):
            e1_pullback(H, {bad: 1})
        assert _e1_cache.get(H, {}) == {}


def test_basis_refuses_a_coefficient_of_another_arity():
    # lambda_op once ran on such a class and answered with 2-entry q-exponents
    H = affine_coh("A", 3)  # q0..q3
    s1 = H.W.parse("s1")
    with pytest.raises(ValueError, match="^a coefficient in 2 variables does not fit "
                                         "a ring with 4 q-variables$"):
        H.basis(s1, Poly.one(2))
    assert H.basis(s1, Poly.one(4)) == H.basis(s1)


class TestSerialization:
    def test_json_roundtrip(self, sl2):
        cls = B(sl2, "s1s0", 2) + with_q(sl2, "e", (1, 0), 3)
        payload = cls.to_json_obj()
        json.dumps(payload)  # serializable
        # reparse by hand: word + coeff dict fully determine the class
        rebuilt = sl2.zero()
        for entry in payload:
            w = sl2.W.from_word(entry["w"])
            term = entry["coeff"]
            e = tuple(term["q"])
            num = Fraction(term["num"], term["den"])
            rebuilt = rebuilt + sl2.basis(w, 1).scale(q_monomial(sl2, e, num))
        assert rebuilt == cls

    def test_format_class(self, sl2):
        text = sl2.format_class(B(sl2, "s1s0", 2) + with_q(sl2, "e", (1, 0)))
        assert "s1s0" in text and "q0" in text
