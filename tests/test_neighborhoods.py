import itertools

import pytest

from qaff.affine import AffineCoh, affine_coh
from qaff.chevalley import chevalley_root_set
from qaff.neighborhoods import (
    curve_neighborhood,
    gw_invariant,
    moment_graph_slice,
    neighborhood_by_search,
    z_components,
)
from qaff.roots import AffineRootData, build_root_system
from qaff.weyl import AffineWeylGroup, affine_weyl


def test_sl2_degree_c_neighborhood_of_identity():
    # the degree-(1,1) neighborhood of the identity point is the pair of
    # length-two elements, not a single component
    W = affine_weyl("A", 1)
    comps = curve_neighborhood(W, W.identity, (1, 1))
    assert {W.format(w) for w in comps} == {"s0s1", "s1s0"}


BAD_DEGREES = [(1, 1), (1, 1, 1), (1, 1, 1, 1, 5), (1, -1, 0, 0), (1, 0.5, 0, 0),
               (1, 1.0, 0, 0), (1, True, 0, 0), (1, "1", 0, 0)]


@pytest.mark.parametrize("d", BAD_DEGREES, ids=repr)
def test_entry_points_refuse_a_degree_that_is_not_n_plus_1_naturals(d):
    W = affine_weyl("A", 3)
    s0 = W.simple(0)
    curve_neighborhood(W, s0, (1, 1, 0, 0))  # an equal int degree is answered and kept first
    calls = [lambda: curve_neighborhood(W, s0, d), lambda: neighborhood_by_search(W, s0, d),
             lambda: gw_invariant(W, 1, s0, W.identity, d), lambda: z_components(W, d)]
    for call in calls:
        with pytest.raises(ValueError, match=r"a degree is 4 non-negative ints \(d0..d3\)"):
            call()


def test_degree_may_be_any_sequence_of_ints():
    W = affine_weyl("A", 3)
    s0 = W.simple(0)
    assert curve_neighborhood(W, s0, [1, 1, 0, 0]) == curve_neighborhood(W, s0, (1, 1, 0, 0))
    assert neighborhood_by_search(W, s0, [0] * 4) == [s0]


def test_gw_invariant_refuses_a_weight_index_out_of_range():
    W = affine_weyl("A", 3)
    for i in (-1, 4):
        with pytest.raises(ValueError, match=r"weight index .* is not in 0..3"):
            gw_invariant(W, i, W.simple(0), W.identity, (1, 0, 0, 0))


def test_simple_degree_neighborhoods_are_reflections():
    # degree alpha^vee moves w to the Hecke product w * s_alpha; when the
    # lengths add, that is the plain product w s_alpha
    W = affine_weyl("A", 2)
    crs = chevalley_root_set("A", 2)
    for ws in W.enumerate_up_to(3).values():
        for w in ws:
            for cr in crs:
                s = W.reflection(cr.root)
                comps = curve_neighborhood(W, w, cr.coroot)
                assert comps == [W.hecke_product(w, s)]
                plain = W.multiply(w, s)
                if W.length(plain) == W.length(w) + cr.reflection_length:
                    assert comps == [plain]


@pytest.mark.parametrize("lt", ["A1", "A2", "B2"])
def test_two_oracles_agree(lt):
    W = affine_weyl(lt[0], int(lt[1]))
    degrees = [
        d
        for d in itertools.product(range(2), repeat=W.n + 1)
        if 0 < sum(d) <= 2
    ]
    for ws in W.enumerate_up_to(2).values():
        for w in ws:
            for d in degrees:
                assert curve_neighborhood(W, w, d) == neighborhood_by_search(W, w, d)


def test_z_components_identity_degree_zero():
    W = affine_weyl("A", 1)
    assert z_components(W, (0,) * (W.n + 1)) == [W.identity]


def test_neighborhood_components_incomparable():
    W = affine_weyl("A", 1)
    comps = curve_neighborhood(W, W.identity, (1, 1))
    for a, b in itertools.permutations(comps, 2):
        assert not W.bruhat_leq(a, b)


class TestGW:
    def test_degree_mismatch_is_zero(self):
        W = affine_weyl("A", 1)
        u = W.from_word([0])
        assert gw_invariant(W, 1, u, W.identity, (1, 1)) == 0

    def test_simple_quantum_coefficient(self):
        # the q_0 eps_e term of Lambda_0(eps_{s0}) has coefficient 1;
        # Lambda_1 carries no quantum term there since <lambda_1, alpha_0^vee> = 0
        W = affine_weyl("A", 1)
        u = W.from_word([0])
        assert gw_invariant(W, 0, u, W.identity, (1, 0)) == 1
        assert gw_invariant(W, 1, u, W.identity, (1, 0)) == 0

    def test_against_lambda_operator(self):
        # every q^d coefficient of Lambda_i(eps_u) is a GW number
        from qaff.affine import affine_coh

        H = affine_coh("A", 2, 6)
        W = H.W
        for ws in W.enumerate_up_to(2).values():
            for u in ws:
                for i in range(3):
                    img = H.lambda_op(i, H.basis(u))
                    for w, poly in img.terms.items():
                        for exps, coeff in poly.terms.items():
                            if all(e == 0 for e in exps):
                                continue
                            assert coeff == gw_invariant(W, i, u, w, exps)


def test_moment_graph_slice_shapes():
    W = affine_weyl("A", 1)
    g = moment_graph_slice(W, 3)
    lengths = sorted(W.length(w) for w in g.vertices)
    assert lengths == [0, 1, 1, 2, 2, 3, 3]
    for a, b, root, coroot in g.edges:
        assert W.length(a) < W.length(b)
        assert W.multiply(a, W.reflection(root)) == b
        assert coroot == W.ard.coroot(root)
    dot = g.to_dot()
    assert dot.startswith("digraph") or dot.startswith("graph")


def test_outputs_do_not_depend_on_id_order():
    # a fresh A3 group, over a fresh root datum, that numbers the elements of
    # length <= 4 longest first and fills its level lists largest budget first
    W = affine_weyl("A", 3)
    fresh = AffineWeylGroup(AffineRootData(build_root_system("A", 3)))
    assert fresh.ard is not W.ard and fresh.ard._levels == []
    layers = W.enumerate_up_to(4)
    elts = [w for ell in sorted(layers) for w in layers[ell]]
    for w in reversed(elts):
        fresh.id_of(W.element(w))
    assert [fresh.id_of(W.element(w)) for w in elts] != elts
    degrees = [d for d in itertools.product(range(3), repeat=4) if 0 < sum(d) <= 3]
    names = [W.format(u) for ell in range(2) for u in layers[ell]]
    assert len(names) * len(degrees) == 150
    expect = {(name, d): [W.format(z) for z in curve_neighborhood(W, W.parse(name), d)]
              for name in names for d in degrees}
    for d in sorted(degrees, reverse=True):
        for name in names:
            got = [fresh.format(z) for z in curve_neighborhood(fresh, fresh.parse(name), d)]
            assert got == expect[name, d]
    assert len(fresh.ard._levels) == 3
    calc, other = affine_coh("A", 3), AffineCoh(fresh)
    for ell in range(4):
        for w in layers[ell]:
            a, b = calc.basis(w), other.basis(fresh.parse(W.format(w)))
            for i, j in ((1, 2), (1, 3), (2, 3)):
                assert (calc.modified_lambda(i, calc.modified_lambda(j, a)).to_json_obj()
                        == other.modified_lambda(i, other.modified_lambda(j, b)).to_json_obj())
            for i in range(4):
                assert (calc.lambda_op(i, a).to_json_obj()
                        == other.lambda_op(i, b).to_json_obj())
    assert moment_graph_slice(W, 3).to_dot() == moment_graph_slice(fresh, 3).to_dot()
