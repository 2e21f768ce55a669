"""Root systems for the simple Lie types and their untwisted affinizations.

Conventions, fixed once and used everywhere downstream:

* ``cartan[i][j]`` is the pairing ``<alpha_j, alpha_i^vee>`` (0-indexed simple
  roots; users see 1-indexed labels, with 0 reserved for the affine node).
* A user's index has one owner per range: :meth:`RootSystem.finite_index`
  (``1..n``) and :meth:`AffineRootData.affine_index` (``0..n``).  Every
  reader of an operator or weight index calls one of them first.
* Finite roots are integer coordinate vectors in the simple-root basis;
  coroots are integer vectors in the simple-coroot basis.
* The invariant form is normalized so the highest root theta has
  ``(theta|theta) = 2``; equivalently the symmetrizers ``d_i = (alpha_i|alpha_i)/2``
  have maximum 1.
* ``B2`` puts the short root first (``<alpha_2, alpha_1^vee> = -2``), matching
  the rank-2 running example used throughout; ``B_n`` for n >= 3 and all other
  types follow the Bourbaki tables.
* A real affine root ``k*delta + beta`` is stored as ``AffineRoot(k, beta)``;
  its coroot is the integer vector ``(k/d_beta) * c + beta^vee`` in the affine
  simple-coroot basis, where ``c = alpha_0^vee + theta^vee`` is the canonical
  central element, represented as ``(1, m_1, ..., m_n)``.
* Per-root data (index, coroot, ``d_root``, pairings, reflection) is tabulated
  once per type in a :class:`RootTable`, so lookups do no ``Fraction`` work.
* :class:`AffineRootData` keeps each affine coroot after its first read
  (``_coroots``, bounded by the roots met) and is the one list of the real
  positive roots by level, each level built once with every root's height
  and coroot (``_levels``, bounded by the highest level asked).  Neither memo
  holds Weyl group ids, so every group built on one :func:`affinize` datum
  shares them.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import le, mul
from typing import NamedTuple

Vec = tuple[int, ...]
CorootVec = tuple[int, ...]  # coordinates in (alpha_0^vee, ..., alpha_n^vee)

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}
_FIXED_RANK = {"E": (6, 7, 8), "F": (4,), "G": (2,)}


@lru_cache(maxsize=64)
def parse_lie_type(s: str) -> tuple[str, int]:
    """Parse a label like ``"B3"`` into ``("B", 3)``, refusing one that names no type.

    An accepted label is kept (at most 64, least recently used out), so a session
    that names its type on every query reads each label once.  A refused one is
    never kept: ``lru_cache`` stores no exception, so it raises the same
    ``ValueError`` on every call.

    >>> parse_lie_type("G2")
    ('G', 2)
    """
    s = s.strip()
    letter, digits = s[:1].upper(), s[1:]
    # only ASCII digits: int() would also read "1_0", "+2" and other scripts' digits
    rank = int(digits) if digits.isascii() and digits.isdecimal() else None
    _check_lie_type(letter, rank, s)
    return letter, rank


def _check_lie_type(letter: str, rank: int | None, label: str | None = None) -> None:
    """Refuse a ``(letter, rank)`` that names no simple type: the one check of a
    Lie label, whether parsed from ``label`` or passed in as a pair."""
    if type(rank) is int:
        if letter in _MIN_RANK:
            if rank >= _MIN_RANK[letter]:
                return
            raise ValueError(f"type {letter} needs rank >= {_MIN_RANK[letter]}")
        if letter in _FIXED_RANK:
            if rank in _FIXED_RANK[letter]:
                return
            raise ValueError(f"type {letter} only exists in ranks {_FIXED_RANK[letter]}")
    shown = (letter, rank) if label is None else label
    raise ValueError(f"bad Lie type {shown!r}: expected a letter A..G and an int rank")


def _cartan_matrix(letter: str, n: int) -> list[list[int]]:
    C = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def chain(last: int) -> None:
        for i in range(last):
            C[i][i + 1] = C[i + 1][i] = -1

    if letter == "A":
        chain(n - 1)
    elif letter == "B":
        if n == 2:
            C[0][1], C[1][0] = -2, -1  # short root first
        else:
            chain(n - 1)
            C[n - 1][n - 2] = -2  # <alpha_{n-1}, alpha_n^vee>, alpha_n short
    elif letter == "C":
        chain(n - 1)
        C[n - 2][n - 1] = -2  # <alpha_n, alpha_{n-1}^vee>, alpha_n long
    elif letter == "D":
        chain(n - 2)
        C[n - 3][n - 1] = C[n - 1][n - 3] = -1
    elif letter == "E":
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)][: n - 2] + [(1, 3)]
        for i, j in edges:
            C[i][j] = C[j][i] = -1
    elif letter == "F":
        chain(3)
        C[2][1] = -2  # <alpha_2, alpha_3^vee>, alpha_3 short
    elif letter == "G":
        C[0][1], C[1][0] = -3, -1  # alpha_1 short
    return C


def _symmetrizers(cartan: list[list[int]]) -> tuple[Fraction, ...]:
    """Solve d_i * c_ij = d_j * c_ji over the Dynkin graph, normalized to max 1."""
    n = len(cartan)
    d: list[Fraction | None] = [None] * n
    d[0] = Fraction(1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if i != j and cartan[i][j] and d[j] is None:
                d[j] = d[i] * Fraction(cartan[i][j], cartan[j][i])
                todo.append(j)
    if any(x is None for x in d):
        raise AssertionError("Dynkin diagram is not connected")
    top = max(d)  # type: ignore[type-var]
    return tuple(x / top for x in d)  # type: ignore[operator]


class RootTable:
    """Per-root data of one root system, built once by :class:`RootSystem`.

    Roots are indexed positives first, in ``positive_roots`` order, then their
    negatives: with ``N`` positive roots, index ``i + N`` holds ``-roots[i]``,
    so a root is negative exactly when its index is ``>= N``.

    Everything is integer arithmetic: with ``D`` the common denominator of the
    symmetrizers and ``e_i = D d_i``, ``D (beta|beta)/2`` is the integer
    ``nb = sum_i e_i beta_i <beta, alpha_i^vee> / 2``, the coroot is
    ``beta_j e_j / nb`` and ``1/d_root`` is ``D / nb``.  Both are checked to be
    integral here, once per positive root, so lookups need no check.  A
    negative root takes the negated coroot and pairings of its positive root,
    the same ``d_root``, and the reflection of its positive root.
    """

    __slots__ = ("roots", "index", "coroots", "d_roots", "inv_d", "pairings",
                 "reflections", "simple")

    def __init__(self, cartan: list[list[int]], d: tuple[Fraction, ...], positives: list[Vec]):
        n = len(cartan)
        npos = len(positives)
        D = lcm(*(x.denominator for x in d))
        e = [x.numerator * (D // x.denominator) for x in d]
        coroots, d_roots, inv_d, pairings = [], [], [], []
        for beta in positives:
            pv = tuple(sum(map(mul, row, beta)) for row in cartan)
            nb = sum(ei * b * p for ei, b, p in zip(e, beta, pv)) // 2
            if any(b * ej % nb for b, ej in zip(beta, e)):
                raise AssertionError(f"non-integer coroot for {beta}")
            if D % nb:
                raise AssertionError(f"1/d_root is not an integer for {beta}")
            coroots.append(tuple(b * ej // nb for b, ej in zip(beta, e)))
            d_roots.append(Fraction(nb, D))
            inv_d.append(D // nb)
            pairings.append(pv)
        self.roots = tuple(positives) + tuple(map(_neg, positives))
        self.index = index = {beta: i for i, beta in enumerate(self.roots)}
        reflections = []
        for beta, bco in zip(positives, coroots):
            # s_beta(gamma) = gamma - <gamma, beta^vee> beta, and s_beta(-gamma) = -s_beta(gamma)
            half = []
            for g, (gamma, pv) in enumerate(zip(positives, pairings)):
                k = sum(map(mul, pv, bco))
                half.append(index[tuple(x - k * b for x, b in zip(gamma, beta))] if k else g)
            reflections.append(tuple(half) + tuple(j + npos if j < npos else j - npos for j in half))
        self.coroots = tuple(coroots) + tuple(map(_neg, coroots))  # in simple-coroot coordinates
        self.d_roots = tuple(d_roots) * 2  # (beta|beta)/2
        self.inv_d = tuple(inv_d) * 2  # 1/d_root, which is 1, 2 or 3
        self.pairings = tuple(pairings) + tuple(map(_neg, pairings))  # <beta, alpha_i^vee>
        self.reflections = tuple(reflections) * 2  # s_beta as a permutation; s_{-beta} = s_beta
        # index of alpha_i, for 0-indexed i
        self.simple = tuple(index[tuple(1 if j == i else 0 for j in range(n))] for i in range(n))

    def index_of(self, beta: Vec) -> int:
        try:
            return self.index[beta]
        except KeyError:
            raise ValueError(f"{beta} is not a root") from None


def _neg(v: Vec) -> Vec:
    return tuple(-x for x in v)


def _positive_root_closure(cartan: list[list[int]]) -> list[Vec]:
    """The positive roots, sorted by ``(height, coords)``: the closure of the simple
    roots under ``s_i(beta) = beta - <beta, alpha_i^vee> alpha_i`` wherever that
    raises ``beta``.  Every positive root other than a simple one pairs
    positively with some ``alpha_i^vee``, and ``s_i`` maps it to a lower positive
    root, so each is reached from a simple root by raising steps."""
    n = len(cartan)
    todo = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    known = set(todo)
    while todo:
        beta = todo.pop()
        for i, row in enumerate(cartan):
            k = sum(map(mul, row, beta))  # <beta, alpha_i^vee>
            if k < 0:
                up = beta[:i] + (beta[i] - k,) + beta[i + 1:]
                if up not in known:
                    known.add(up)
                    todo.append(up)
    return sorted(known, key=lambda v: (sum(v), v))


def _degrees(positives: list[Vec]) -> tuple[int, ...]:
    """The fundamental degrees of W, ascending, from the positive roots sorted by
    height: the exponents ``d - 1`` are the partition dual to the numbers of
    positive roots of each height (Kostant 1959), so ``sum(d - 1)`` is the number
    of positive roots and ``prod(d)`` is ``|W|``."""
    heights = Counter(map(sum, positives))
    return tuple(h + 1 for h, c in heights.items() for _ in range(c - heights[h + 1]))


class RootSystem:
    """Finite root system data for one simple type, built from its label.

    ``degrees`` are the fundamental degrees of W, ascending (:func:`_degrees`).
    """

    __slots__ = ("letter", "rank", "cartan", "d", "positive_roots", "theta",
                 "theta_coroot", "killing_coroots", "table", "degrees")

    def __init__(self, letter: str, rank: int):
        _check_lie_type(letter, rank)
        cartan = _cartan_matrix(letter, rank)
        self.letter = letter
        self.rank = rank
        self.cartan = tuple(map(tuple, cartan))
        self.d = d = _symmetrizers(cartan)
        positives = _positive_root_closure(cartan)
        self.positive_roots = tuple(positives)  # sorted by (height, coords)
        top_height = sum(positives[-1])
        highest = [b for b in positives if sum(b) == top_height]
        if len(highest) != 1:
            raise AssertionError("highest root must be unique")
        self.theta = theta = highest[0]
        self.table = table = RootTable(cartan, d, positives)
        theta_index = table.index[theta]
        if table.d_roots[theta_index] != 1:
            raise AssertionError("theta must be long in this normalization")
        for i in range(rank):
            up = tuple(t + (1 if j == i else 0) for j, t in enumerate(theta))
            if up in table.index:
                raise AssertionError("theta + simple root may not be a root")
        self.theta_coroot = table.coroots[theta_index]
        # (alpha_i^vee|alpha_j^vee)
        self.killing_coroots = tuple(
            tuple(Fraction(cartan[i][j]) / d[j] for j in range(rank)) for i in range(rank)
        )
        self.degrees = _degrees(positives)

    @property
    def lie_type(self) -> str:
        return f"{self.letter}{self.rank}"

    @property
    def num_positive(self) -> int:
        return len(self.positive_roots)

    def finite_index(self, i: int) -> int:
        """``i`` itself, refused unless it is an ``int`` in ``1..rank``: the one check
        of a finite operator or weight index (``lambda_bar_i``, ``sigma_i``,
        ``lambda_i - m_i lambda_0``).  A bool or float is refused, and so is ``0``,
        which a 0-indexed table read would take for ``rank``."""
        if i.__class__ is not int or not 1 <= i <= self.rank:
            raise ValueError(f"finite index {i!r} is not in 1..{self.rank}")
        return i

    def simple_root(self, i: int) -> Vec:
        """The i-th simple root, 1-indexed."""
        return tuple(1 if j == i - 1 else 0 for j in range(self.rank))

    def all_roots(self) -> tuple[Vec, ...]:
        """Every root in root-table index order: the positives, then their negatives."""
        return self.table.roots

    # -- pairings and reflections --------------------------------------------

    def pairing(self, beta: Vec, coroot: Vec) -> int:
        """``<beta, gamma^vee>`` for a root beta, gamma^vee in simple-coroot coordinates."""
        pv = self.table.pairings[self.table.index_of(beta)]
        return sum(g * p for g, p in zip(coroot, pv))

    def coroot(self, beta: Vec) -> Vec:
        """``beta^vee = (2/(beta|beta)) beta`` in simple-coroot coordinates."""
        return self.table.coroots[self.table.index_of(beta)]

    def reflect_root(self, alpha: Vec, v: Vec) -> Vec:
        """``s_alpha(v)`` on root coordinates."""
        k = self.pairing(v, self.coroot(alpha))
        return tuple(a - k * b for a, b in zip(v, alpha))


@lru_cache(maxsize=None, typed=True)
def build_root_system(letter: str, rank: int) -> RootSystem:
    """Construct (and cache) the root system for one simple type.

    ``letter`` and ``rank`` are what :func:`parse_lie_type` returns: an
    uppercase ``"A"``..``"G"`` and an ``int`` rank that type exists in;
    anything else raises ``ValueError``.  The cache is typed, so ``("A", 2.0)``
    or ``("A", True)`` reach the check instead of an equal cached key.

    >>> rs = build_root_system("G", 2)
    >>> rs.theta, rs.theta_coroot, rs.degrees
    ((3, 2), (1, 2), (2, 6))
    """
    return RootSystem(letter, rank)


# ---------------------------------------------------------------------------
# affine layer


class AffineRoot(NamedTuple):
    """A real affine root ``level*delta + finite`` (imaginary when finite = 0)."""

    level: int
    finite: Vec

    def is_real(self) -> bool:
        return any(self.finite)

    def __neg__(self) -> "AffineRoot":
        return AffineRoot(-self.level, tuple(-x for x in self.finite))


def coroot_ht(v: CorootVec) -> int:
    return sum(v)


def coroot_leq(a: CorootVec, b: CorootVec) -> bool:
    """Componentwise comparison in the affine coroot lattice basis."""
    return all(map(le, a, b))


class AffineRootData:
    """Affine root bookkeeping over one finite root system.

    The central coroot ``c`` has coordinates ``(1, m_1, ..., m_n)`` where the
    ``m_i`` are the coordinates of ``theta^vee``; the affine simple root
    ``alpha_0`` is ``delta - theta``.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.n = rs.rank
        self.c: CorootVec = (1,) + rs.theta_coroot
        self.delta_height = 1 + sum(rs.theta)
        self._coroots: dict[AffineRoot, CorootVec] = {}
        # H_i, the largest i-th coordinate of a positive finite coroot: beta^vee_i >= -H_i
        self._coroot_tops = tuple(map(max, zip(*rs.table.coroots[:rs.num_positive])))
        # the real positive roots of level k as (height, finite, alpha, alpha^vee), built on demand
        self._levels: list[list[tuple[int, Vec, AffineRoot, CorootVec]]] = []

    def affine_index(self, i: int) -> int:
        """``i`` itself, refused unless it is an ``int`` in ``0..n``: the one check of
        an affine operator or weight index (``Lambda_i``, ``eps_i``, ``lambda_i``).
        A bool or float is refused, and so is ``-1``, which a tuple read would take
        for ``n``."""
        if i.__class__ is not int or not 0 <= i <= self.n:
            raise ValueError(f"affine index {i!r} is not in 0..{self.n}")
        return i

    def simple_root(self, i: int) -> AffineRoot:
        if i == 0:
            return AffineRoot(1, tuple(-x for x in self.rs.theta))
        return AffineRoot(0, self.rs.simple_root(i))

    def height(self, a: AffineRoot) -> int:
        return a.level * self.delta_height + sum(a.finite)

    def coroot(self, a: AffineRoot) -> CorootVec:
        """Integer coordinates of ``a^vee`` in ``(alpha_0^vee, ..., alpha_n^vee)``,
        computed on first read and kept."""
        v = self._coroots.get(a)
        if v is None:
            if not a.is_real():
                raise ValueError("imaginary roots have no coroot here; use .c for the center")
            table = self.rs.table
            b = table.index_of(a.finite)
            r = a.level * table.inv_d[b]
            v = self._coroots[a] = (r,) + tuple(
                r * m + f for m, f in zip(self.rs.theta_coroot, table.coroots[b]))
        return v

    def finite_part_of_coroot(self, v: CorootVec) -> Vec:
        """Project a coroot vector to the finite coroot lattice (kills c)."""
        return tuple(v[i + 1] - v[0] * m for i, m in enumerate(self.rs.theta_coroot))

    def pairing(self, a: AffineRoot, v: CorootVec) -> int:
        """``<a, v>`` for an affine root and an affine coroot vector (delta pairs to 0)."""
        return self.rs.pairing(a.finite, self.finite_part_of_coroot(v))

    def weight_pairing(self, i: int, v: CorootVec) -> int:
        """``<lambda_i, v>`` for the i-th fundamental weight of the affine datum."""
        return v[self.affine_index(i)]

    def level_zero_weight_pairing(self, i: int, v: CorootVec) -> int:
        """``<lambda_i - m_i lambda_0, v>`` — the embedded finite fundamental weight."""
        return v[self.rs.finite_index(i)] - self.rs.theta_coroot[i - 1] * v[0]

    def reflect(self, alpha: AffineRoot, mu: AffineRoot) -> AffineRoot:
        """``s_alpha(mu)`` for a real affine root alpha."""
        if not alpha.is_real():
            raise ValueError("cannot reflect by an imaginary root")
        k = self.rs.pairing(mu.finite, self.rs.coroot(alpha.finite))
        return AffineRoot(
            mu.level - alpha.level * k,
            self.rs.reflect_root(alpha.finite, mu.finite),
        )

    def levels(self, top: int) -> list[list[tuple[int, Vec, AffineRoot, CorootVec]]]:
        """The rows ``(height, finite, alpha, alpha^vee)`` of the real positive roots
        of levels ``0..top``, one list per level in ``all_roots()`` order; each
        level is built on first use and kept."""
        levels = self._levels
        while len(levels) <= top:
            k = len(levels)
            roots = [AffineRoot(k, beta) for beta in self.rs.all_roots() if k or sum(beta) > 0]
            levels.append([(self.height(a), a.finite, a, self.coroot(a)) for a in roots])
        return levels[:top + 1]

    def real_positive_roots_leq(self, bound: CorootVec) -> list[tuple[AffineRoot, CorootVec]]:
        """Every ``(alpha, alpha^vee)``, alpha real positive, with ``alpha^vee``
        componentwise <= ``bound``, by ``(height, finite)``.

        Only the levels ``0..top`` are scanned, with ``top = min(b_0, floor((b_i +
        H_i) / m_i) over i)``, ``b = bound``, ``m = theta^vee`` and ``H_i`` the
        largest ``i``-th coordinate of a positive finite coroot.  Every such root
        lies there: ``alpha = k delta + beta`` has ``alpha^vee = (r, r m + beta^vee)``
        with ``r = k/d_beta >= k``, and ``beta^vee_i >= -H_i`` (``beta^vee`` is a
        positive coroot or minus one).  So ``alpha^vee <= b`` gives ``k <= r <= b_0``
        and ``k m_i <= r m_i <= b_i - beta^vee_i <= b_i + H_i``, with ``m_i >= 1``.
        """
        top = min(bound[0], *((b + h) // m for b, h, m in
                              zip(bound[1:], self._coroot_tops, self.rs.theta_coroot)))
        out = [row for level in self.levels(top) for row in level
               if coroot_leq(row[3], bound)]
        out.sort()  # (height, finite) is unique to a root, so nothing else is compared
        return [row[2:] for row in out]


@lru_cache(maxsize=None, typed=True)
def affinize(letter: str, rank: int) -> AffineRootData:
    return AffineRootData(build_root_system(letter, rank))
