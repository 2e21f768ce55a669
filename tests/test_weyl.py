import itertools
import random
import re
from math import prod

import pytest
from boundary_forms import AffW, element, id_of, inv_coroot, root
from cover_oracles import short_reflections

from qaff import roots
from qaff.cli import check_table_cap
from qaff.roots import _check_lie_type, affinize, build_root_system
from qaff.weyl import (
    FiniteWeyl,
    affine_weyl,
    finite_identity,
    finite_reflection,
    finite_weyl,
    weyl_order,
)

GROUP_ORDERS = {"A2": 6, "B2": 8, "G2": 12, "A3": 24, "B3": 48}


@pytest.mark.parametrize("lt,order", sorted(GROUP_ORDERS.items()))
def test_finite_group_orders(lt, order):
    fw = finite_weyl(lt[0], int(lt[1]))
    assert len(fw) == order


def test_weyl_order_closed_form():
    # matches enumeration where that is cheap...
    for letter, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                         ("C", 2), ("C", 3), ("D", 4), ("G", 2), ("F", 4)]:
        assert weyl_order(letter, rank) == len(finite_weyl(letter, rank))
    # ...and gives the known values where it is not
    assert weyl_order("A", 9) == 3628800
    assert weyl_order("D", 9) == 92897280
    assert weyl_order("E", 8) == 696729600


@pytest.mark.parametrize("letter,rank", [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])
def test_exceptional_order_builds_no_root_table(monkeypatch, letter, rank):
    # |W| of E, F and G is the product of the degrees, read from the positive roots alone
    assert weyl_order(letter, rank) == prod(build_root_system(letter, rank).degrees)

    def refused(*args):
        raise AssertionError("a RootTable was built")

    monkeypatch.setattr(roots, "RootTable", refused)
    calls = build_root_system.cache_info()
    with pytest.raises(ValueError, match=f"^[|]W[|] = {weyl_order(letter, rank)} exceeds the table cap 1$"):
        check_table_cap(letter, rank, 1)
    after = build_root_system.cache_info()
    assert (after.hits, after.misses) == (calls.hits, calls.misses)


@pytest.mark.parametrize("letter,rank", [("E", 5), ("A", 0), ("B", 1), ("D", 2), ("A", 2.0)])
def test_order_and_table_cap_refuse_what_the_label_check_refuses(letter, rank):
    # ("E", 5) was a KeyError, ("A", 2.0) a TypeError, and the others read 1, 2 and 4
    with pytest.raises(ValueError) as owner:
        _check_lie_type(letter, rank)
    for call in (lambda: weyl_order(letter, rank), lambda: check_table_cap(letter, rank, 48)):
        with pytest.raises(ValueError, match=f"^{re.escape(str(owner.value))}$"):
            call()


def test_finite_words_are_reduced():
    fw = finite_weyl("B", 2)
    for w in fw.elements:
        word = fw.word[w]
        assert len(word) == fw.length[w]
        rebuilt = fw.identity
        for i in word:
            rebuilt = fw.mul(rebuilt, fw.gens[i])
        assert rebuilt == w


def test_finite_parse_format_roundtrip():
    fw = finite_weyl("G", 2)
    for w in fw.elements:
        assert fw.parse(fw.format(w)) == w
    assert fw.format(fw.identity) == "e"
    assert fw.parse("s1s1") == fw.identity  # non-reduced input is fine
    with pytest.raises(ValueError):
        fw.parse("s3")
    with pytest.raises(ValueError):
        fw.parse("x1")


def test_finite_parse_keeps_only_canonical_words():
    fw = FiniteWeyl(build_root_system("A", 2))  # a fresh group, so its memo starts empty
    w0 = fw.w0
    assert fw.format(w0) == "s1s2s1"
    assert fw.parse("s1s1") == fw.identity
    assert fw.parse("s2s1s2") == w0
    for text in (" s1", "1", "", "s1s2s1s2s2"):
        fw.parse(text)
    assert fw._parsed == {}  # no text above is the format of its element
    assert fw.parse("s1s2s1") == w0 and fw._parsed == {"s1s2s1": w0}
    for _ in range(3):
        for w in fw.elements:
            assert fw.parse(fw.format(w)) == w
            assert fw.parse("".join(f"s{i + 1}" for i in fw.word[w]) + "s1s1") == w
        assert fw._parsed == {fw.format(w): w for w in fw.elements}
    for text in ("s3", "s0", "x1", "s1s"):
        for _ in range(2):  # a refused text is never kept, so it is refused again
            with pytest.raises(ValueError):
                fw.parse(text)
    assert len(fw._parsed) == len(fw)


def _regex_word(text):
    """The word the regex route read: ``[]`` for the identity, None if refused."""
    text = text.strip()
    if text in ("e", "", "1"):
        return []
    if not re.fullmatch(r"(?:s\d+)+", text):
        return None
    return [int(m) for m in re.findall(r"s(\d+)", text)]


WORDS = ["e", "1", "", "   ", " s1s2\t", "\ns0s3 ", "s1s2s1", "s0s0", "s01", "s12", "s3",
         "s4", "s0", "s\u0661", "s1s\u0662", "ss1", "1s2", "s", "s1s", "s1 s2", "S1", "x1",
         "s-1", "s+1", "s\u00b2", "s1e", "ee", "e1", "s_1", "s1.0", "s2s5s0"]


@pytest.mark.parametrize("text", WORDS, ids=[repr(t) for t in WORDS])
def test_both_groups_parse_words_as_the_regex_route(text):
    fw, W = finite_weyl("A", 3), affine_weyl("A", 3)
    word = _regex_word(text)
    if word is None:
        for group in (fw, W):
            with pytest.raises(ValueError, match="^cannot parse Weyl element"):
                group.parse(text)
        return
    # both groups refuse the first letter out of their range, with one message
    first = next((i for i in word if not 0 <= i <= 3), None)
    if first is not None:
        with pytest.raises(ValueError, match=f"^generator index {first} is not in 0[.][.]3$"):
            W.parse(text)
    else:
        assert W.parse(text) == W.from_word(word)
    first = next((i for i in word if not 1 <= i <= 3), None)
    if first is not None:
        with pytest.raises(ValueError, match=f"^generator index {first} is not in 1[.][.]3$"):
            fw.parse(text)
    else:
        want = fw.identity
        for i in word:
            want = fw.mul(want, fw.gens[i - 1])
        assert fw.parse(text) == want


def test_longest_element():
    fw = finite_weyl("A", 3)
    assert fw.length[fw.w0] == 6
    assert fw.mul(fw.w0, fw.w0) == fw.identity
    # w0 sends every positive root to a negative one
    for beta in fw.rs.positive_roots:
        img = root(fw.rs.table, fw.element(fw.w0), beta)
        assert all(x <= 0 for x in img) and any(x < 0 for x in img)


def test_finite_reflection_squares_to_identity():
    rs = build_root_system("B", 3)
    for beta in rs.positive_roots:
        s = finite_reflection(rs, beta)
        assert s * s == finite_identity(rs)
        assert root(rs.table, s, beta) == tuple(-x for x in beta)


@pytest.mark.parametrize("letter,rank", [("A", 3), ("D", 4)])
def test_products_equal_and_hash_like_canonical_elements(letter, rank):
    fw = finite_weyl(letter, rank)
    canonical = {w: w for w in map(fw.element, fw.elements)}
    for w in map(fw.element, fw.elements):
        for s in map(fw.element, fw.gens):
            u = w * s
            c = canonical[u]
            assert u is not c and u == c and hash(u) == hash(c)
            assert hash(u) == hash(u) == hash(u.perm)


class TestAffineWeyl:
    def test_simple_reflections(self):
        W = affine_weyl("A", 2)
        for i in range(3):
            s = W.simple(i)
            assert W.multiply(s, s) == W.identity
            assert W.length(s) == 1

    def test_translation_component(self):
        W = affine_weyl("A", 1)
        s0, s1 = W.simple(0), W.simple(1)
        t = element(W, W.multiply(s0, s1))  # translation by theta^vee
        assert t.v == finite_identity(W.rs)
        assert t.t != (0,) * W.n

    def test_length_matches_bfs(self):
        # the closed-form length agrees with the word metric on every layer
        for lt in ("A1", "A2", "B2"):
            W = affine_weyl(lt[0], int(lt[1]))
            layers = W.enumerate_up_to(5)
            for ell, ws in layers.items():
                for w in ws:
                    assert W.length(w) == ell

    def test_layer_sizes_grow(self):
        W = affine_weyl("A", 1)
        layers = W.enumerate_up_to(6)
        # affine A1 has exactly two elements of every positive length
        assert [len(layers[k]) for k in range(7)] == [1, 2, 2, 2, 2, 2, 2]

    def test_reduced_word_roundtrip(self):
        W = affine_weyl("B", 2)
        for ws in W.enumerate_up_to(4).values():
            for w in ws:
                word = W.reduced_word(w)
                assert len(word) == W.length(w)
                assert W.from_word(word) == w

    def test_parse_format_roundtrip(self):
        W = affine_weyl("A", 2)
        for ws in W.enumerate_up_to(3).values():
            for w in ws:
                assert W.parse(W.format(w)) == w
        assert W.parse("e") == W.identity
        assert W.parse("s0s0") == W.identity

    def test_right_descents(self):
        W = affine_weyl("A", 2)
        w = W.from_word([0, 1, 0])
        for i in W.right_descents(w):
            assert W.length(W.multiply(w, W.simple(i))) == W.length(w) - 1

    def test_hecke_product(self):
        W = affine_weyl("A", 1)
        s0 = W.simple(0)
        assert W.hecke_product(s0, s0) == s0
        w = W.from_word([0, 1])
        assert W.hecke_product(w, W.simple(1)) == w
        assert W.hecke_product(w, s0) == W.from_word([0, 1, 0])

    def test_bruhat_order(self):
        W = affine_weyl("A", 2)
        w = W.from_word([0, 1, 2])
        assert W.bruhat_leq(W.identity, w)
        assert W.bruhat_leq(W.from_word([0, 2]), w)
        assert not W.bruhat_leq(w, W.simple(0))
        # covers go up by exactly one
        for u, alpha in W.bruhat_covers_up(w):
            assert W.length(u) == 4
            assert alpha.level > 0 or sum(alpha.finite) > 0
            assert u == W.multiply(w, W.reflection(alpha))

    def test_covers_count_small(self):
        # the identity is covered exactly by the affine simple reflections
        W = affine_weyl("B", 2)
        covers = W.bruhat_covers_up(W.identity)
        assert sorted(W.format(u) for u, _ in covers) == ["s0", "s1", "s2"]


def test_enumerate_is_cached_consistently():
    W = affine_weyl("G", 2)
    first = W.enumerate_up_to(3)
    second = W.enumerate_up_to(5)
    for k in range(4):
        assert first[k] == second[k]
    total = sum(len(v) for v in second.values())
    assert total == len({w for ws in second.values() for w in ws})


def test_coxeter_relations_a2_affine():
    W = affine_weyl("A", 2)
    for i, j in itertools.combinations(range(3), 2):
        si, sj = W.simple(i), W.simple(j)
        sisj = W.multiply(si, sj)
        braid = W.multiply(W.multiply(sisj, si), W.multiply(sj, W.multiply(si, sj)))
        assert braid == W.identity  # (s_i s_j)^3 = e for affine A2


# -- the numbered finite group against permutation composition ----------------------

ID_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4),
    ("D", 4), ("G", 2), ("F", 4),
]


@pytest.mark.parametrize("letter,rank", ID_TYPES)
def test_finite_ids_match_permutation_composition(letter, rank):
    """The generator table, ``mul``, the cover rows, ``length``, ``word``, ``w0``
    and ``by_length`` against ``FinW`` products of the ids' permutations."""
    rs = build_root_system(letter, rank)
    fw = finite_weyl(letter, rank)
    npos = rs.num_positive
    elts = [fw.element(w) for w in fw.elements]
    gens = [finite_reflection(rs, rs.simple_root(i + 1)) for i in range(rank)]

    def id_of(x):
        return fw.index[x.perm]

    assert len(set(fw.perm)) == len(fw) == weyl_order(letter, rank)
    assert all(fw.index[p] == w for w, p in enumerate(fw.perm))
    assert elts[fw.identity] == finite_identity(rs)
    assert [elts[s] for s in fw.gens] == gens
    for w, x in enumerate(elts):
        assert fw.length[w] == sum(p >= npos for p in x.perm[:npos])  # inversions
        rebuilt = finite_identity(rs)
        for i in fw.word[w]:
            rebuilt = rebuilt * gens[i]
        assert len(fw.word[w]) == fw.length[w] and rebuilt == x
        assert [row[w] for row in fw.rmul] == [id_of(x * s) for s in gens]
        covers = []
        for beta in rs.positive_roots:
            u = id_of(x * finite_reflection(rs, beta))
            if fw.length[u] == fw.length[w] + 1:
                covers.append((u, rs.table.index[beta]))
        assert fw.covers(w) == sorted(covers, key=lambda pair: pair[1])
    assert list(fw.elements) == sorted(fw.elements, key=fw.length.__getitem__)
    assert [w for w, x in enumerate(elts) if all(p >= npos for p in x.perm[:npos])] == [fw.w0]
    assert fw.by_length == {
        ell: [w for w in fw.elements if fw.length[w] == ell] for ell in range(npos + 1)
    }
    rng = random.Random(f"ids/{letter}{rank}")
    for _ in range(200):
        u, v = rng.randrange(len(fw)), rng.randrange(len(fw))
        assert fw.mul(u, v) == id_of(elts[u] * elts[v])


# -- the numbered affine group against AffW composition -----------------------------


def _affw_mul(table, x, y):
    """``(v1, l1) (v2, l2) = (v1 v2, v2^{-1}(l1) + l2)`` on the boundary form."""
    return AffW(x.v * y.v, tuple(a + b for a, b in zip(inv_coroot(table, y.v, x.t), y.t)))


def _affw_length(rs, x):
    """``sum over beta > 0 of |<beta, l> + [v beta < 0]|``, from the root action."""
    return sum(abs(rs.pairing(beta, x.t) + (sum(root(rs.table, x.v, beta)) < 0))
               for beta in rs.positive_roots)


@pytest.mark.parametrize("letter,rank", ID_TYPES)
def test_finite_ids_are_in_printing_order(letter, rank):
    # a class of QH*_aff prints its sorted packed row as it stands, so the ids must
    # ascend with (length, word)
    fw = finite_weyl(letter, rank)
    assert sorted(fw.elements, key=lambda w: (fw.length[w], fw.word[w])) == list(fw.elements)


@pytest.mark.parametrize("letter,rank", ID_TYPES)
def test_affine_ids_match_affw_composition(letter, rank):
    """``multiply``, ``rmul``, ``length`` and ``index`` on the ids of
    ``enumerate_up_to(3)`` and the short reflections, against ``FinW`` products
    of their boundary forms."""
    W = affine_weyl(letter, rank)
    rs, table = W.rs, W.table
    elts = [w for ws in W.enumerate_up_to(3).values() for w in ws]
    refls = [s for _, s in short_reflections(W, 7)]
    elts += refls
    xs = {w: element(W, w) for w in elts}
    gens = [element(W, W.simple(i)) for i in range(rank + 1)]
    for w, x in xs.items():
        assert id_of(W, x) == w
        assert W.length(w) == _affw_length(rs, x)
        for i, g in enumerate(gens):
            assert element(W, W.rmul(w, i)) == _affw_mul(table, x, g)
        for s in refls:  # the products the slice and quantum cover rows make
            assert element(W, W.multiply(w, s)) == _affw_mul(table, x, xs[s])
    rng = random.Random(f"affine-ids/{letter}{rank}")
    for _ in range(300):
        a, b = rng.choice(elts), rng.choice(elts)
        assert element(W, W.multiply(a, b)) == _affw_mul(table, xs[a], xs[b])
