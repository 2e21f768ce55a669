"""Sparse multivariate Laurent polynomials with exact rational coefficients.

Everything downstream (coinvariant algebra classes, quantum parameters,
integrable-system relations) works over one representation: a dict mapping
exponent tuples to nonzero coefficients.  A coefficient is an ``int`` when it
is integral and a ``Fraction`` only when it is not, so the integral Schubert
calculus runs on machine integers; no coefficient is ever a float.  Exponents
are plain ``int``.  Nothing in qaff makes a negative one, but the arithmetic
allows it: the Lax-matrix reference of the tests (``tests/lax_oracle.py``)
carries its spectral parameter that way.  Operations that cannot support
negative exponents say so.

>>> x = Poly.variable(2, 0)
>>> y = Poly.variable(2, 1)
>>> str((x + y) * (x - y))
'-x1^2 + x0^2'
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

Exp = tuple[int, ...]
Scalar = int | Fraction

SCHEMA_VERSION = 1  # of the JSON records that the CLI and ``toda.present_ring`` print


def _exact(c: Scalar) -> Scalar:
    """``c`` as an ``int`` when it is integral, else as a ``Fraction``.

    Anything else, a float above all, is refused: coefficients stay exact.
    """
    if c.__class__ is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"a coefficient is an int or a Fraction, not {type(c).__name__}")


def _normalized(terms: Mapping[Exp, Scalar]) -> dict[Exp, Scalar]:
    """Drop zero coefficients and store integral ``Fraction``s as ``int``."""
    return {
        e: c.numerator if c.__class__ is Fraction and c.denominator == 1 else c
        for e, c in terms.items()
        if c
    }


def _divided(c: Scalar, den: int) -> Scalar:
    """``c / den``, exact, as an ``int`` when it is integral."""
    if c.__class__ is int:
        q, r = divmod(c, den)
        if not r:
            return q
    return _exact(Fraction(c, den))


def _poly(nvars: int, terms: dict[Exp, Scalar]) -> "Poly":
    """A ``Poly`` on ``terms`` as given: nonzero, normalized, right arity."""
    p = Poly.__new__(Poly)
    p.nvars = nvars
    p.terms = terms
    return p


class Poly:
    """Immutable-by-convention sparse polynomial in ``nvars`` variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exp, Scalar] | None = None):
        self.nvars = nvars
        clean: dict[Exp, Scalar] = {}
        if terms:
            for e, c in terms.items():
                if len(e) != nvars:
                    raise ValueError(f"exponent {e} has wrong arity for {nvars} variables")
                c = _exact(c)
                if c:
                    clean[tuple(e)] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "Poly":
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def const(cls, nvars: int, c: Scalar) -> "Poly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1})

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], coeff: Scalar = 1) -> "Poly":
        return cls(nvars, {tuple(exps): coeff})

    # -- basic queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def constant_term(self) -> Scalar:
        return self.terms.get((0,) * self.nvars, 0)

    def __iter__(self) -> Iterator[tuple[Exp, Scalar]]:
        return iter(self.terms.items())

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("mixed variable counts")

    def __add__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        elif not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return _poly(self.nvars, _normalized(out))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        elif not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Poly":
        return Poly.const(self.nvars, other) - self

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = _exact(other)
            return _poly(self.nvars, _normalized({e: c * v for e, v in self.terms.items()}))
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        out: dict[Exp, Scalar] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return _poly(self.nvars, _normalized(out))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative powers are not defined for Poly")
        out = Poly.one(self.nvars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]  # mutable dict inside

    # -- substitution -------------------------------------------------------

    def substitute(self, images: Sequence["Poly"]) -> "Poly":
        """Ring homomorphism sending ``x_i`` to ``images[i]``.

        Requires nonnegative exponents throughout.  All images must share one
        variable count, which becomes the result's.
        """
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        m = images[0].nvars if images else 0
        out = Poly.zero(m)
        powers: list[dict[int, Poly]] = [dict() for _ in range(self.nvars)]
        for e, c in self.terms.items():
            term = Poly.const(m, c)
            for i, k in enumerate(e):
                if k < 0:
                    raise ValueError("cannot substitute into negative exponents")
                if k == 0:
                    continue
                cache = powers[i]
                if k not in cache:
                    cache[k] = images[i] ** k
                term = term * cache[k]
            out = out + term
        return out

    # -- display -------------------------------------------------------------

    def format(self, names: Sequence[str] | None = None) -> str:
        if names is None:
            names = [f"x{i}" for i in range(self.nvars)]
        if not self.terms:
            return "0"
        bits: list[str] = []
        for e, c in sorted(self.terms.items(), key=lambda kv: (-sum(kv[0]), kv[0])):
            vars_part = "*".join(
                (names[i] if k == 1 else f"{names[i]}^{k}")
                for i, k in enumerate(e)
                if k != 0
            )
            if not vars_part:
                body = str(abs(c))
            elif abs(c) == 1:
                body = vars_part
            else:
                body = f"{abs(c)}*{vars_part}"
            sign = "-" if c < 0 else "+"
            bits.append(f"{sign} {body}")
        s = " ".join(bits)
        return s[2:] if s.startswith("+ ") else s[0] + s[2:]

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {self.format()})"


class QClass:
    """An element of a free ``Q[q_0..]``-module on a Schubert basis.

    Both rings qaff computes in are such modules: ``H*(Fl_aff)`` on affine
    Weyl elements and ``QH*_aff(G/B)`` on finite ones.  ``terms`` maps a basis
    index to its ``Poly`` coefficient in ``nq`` variables; zero coefficients
    are dropped on construction.  ``length`` and ``word`` give an index's
    length and reduced word, which fix degrees and the printing order.
    """

    __slots__ = ("length", "word", "nq", "terms")

    def __init__(
        self,
        length: Callable[[Hashable], int],
        word: Callable[[Hashable], tuple[int, ...]],
        nq: int,
        terms: Mapping[Hashable, Poly],
    ):
        self.length = length
        self.word = word
        self.nq = nq
        self.terms = {w: c for w, c in terms.items() if c}

    def _like(self, terms: Mapping[Hashable, Poly]) -> "QClass":
        return QClass(self.length, self.word, self.nq, terms)

    def __add__(self, other: "QClass") -> "QClass":
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w)
            out[w] = c if s is None else s + c
        return self._like(out)

    def __sub__(self, other: "QClass") -> "QClass":
        return self + other.scale(-1)

    def scale(self, c: "Poly | Scalar") -> "QClass":
        if isinstance(c, (int, Fraction)):
            c = Poly.const(self.nq, c)
        return self._like({w: c * v for w, v in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QClass) and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def ordered_support(self) -> list:
        """The support by length, then reduced word: the printing order."""
        return sorted(self.terms, key=lambda w: (self.length(w), self.word(w)))

    def max_length(self) -> int:
        return max(map(self.length, self.terms), default=0)

    def homogeneous_degree(self) -> int | None:
        """Total degree ``len(w) + 2 ht(e)`` if constant over the support."""
        degs = {self.length(w) + 2 * sum(e) for w, c in self.terms.items() for e in c.terms}
        if len(degs) > 1:
            return None
        return degs.pop() if degs else 0

    def to_json_obj(self) -> list[dict]:
        return [
            {
                "w": list(self.word(w)),
                "coeff": {"q": list(e), "num": c.numerator, "den": c.denominator},
            }
            for w in self.ordered_support()
            for e, c in sorted(self.terms[w].terms.items())
        ]

    def format(
        self, qnames: Sequence[str], label: Callable[[Hashable], str],
        sep: str = "*", always_coeff: bool = False,
    ) -> str:
        """The class as text: ``sep`` joins a coefficient to ``label(w)``.

        A coefficient with several terms is parenthesized.  Unless
        ``always_coeff``, the identity's coefficient is printed bare and a
        coefficient of ``±1`` is dropped.
        """
        if self.is_zero():
            return "0"
        bits = []
        for w in self.ordered_support():
            c = self.terms[w].format(qnames).replace("*", sep)
            compound = "+" in c or "-" in c[1:]
            if not always_coeff and self.length(w) == 0:
                bits.append(f"({c})" if compound else c)
            elif not always_coeff and c in ("1", "-1"):
                bits.append(("-" if c == "-1" else "") + label(w))
            else:
                bits.append(f"({c}){sep}{label(w)}" if compound else f"{c}{sep}{label(w)}")
        return " + ".join(bits)


class QModule:
    """Constructors of the :class:`QClass` elements of one ring."""

    def __init__(
        self,
        length: Callable[[Hashable], int],
        word: Callable[[Hashable], tuple[int, ...]],
        identity: Hashable,
        nq: int,
    ):
        self._length = length
        self._word = word
        self._identity = identity
        self.nq = nq

    def _make(self, terms: Mapping[Hashable, Poly]) -> QClass:
        return QClass(self._length, self._word, self.nq, terms)

    def _class(self, terms: dict[Hashable, Poly]) -> QClass:
        """A class on ``terms`` as given: every coefficient nonzero and normalized."""
        a = QClass.__new__(QClass)
        a.length, a.word, a.nq, a.terms = self._length, self._word, self.nq, terms
        return a

    def zero(self) -> QClass:
        return self._make({})

    def unit(self) -> QClass:
        return self.basis(self._identity)

    def basis(self, w: Hashable, coeff: "Poly | Scalar" = 1) -> QClass:
        if isinstance(coeff, Poly):
            return self._make({w: coeff})
        c = _exact(coeff)
        return self._class({w: _poly(self.nq, {(0,) * self.nq: c})} if c else {})

    def from_table(self, acc: Mapping[Hashable, Mapping[Exp, Scalar]]) -> QClass:
        """The class of a table ``w -> exponent -> coefficient``, in one pass that drops
        the entries whose coefficients all cancel."""
        nq = self.nq
        return self._class({w: _poly(nq, t) for w, d in acc.items() if (t := _normalized(d))})


def exact_div_linear(f: Poly, linear: Poly) -> Poly:
    """Divide ``f`` by a linear form with zero constant term; remainder must vanish.

    This is the workhorse of divided-difference operators: the numerator there
    is always divisible by construction, and a nonzero remainder means a bug
    upstream, so it raises rather than returning a pair.

    >>> x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    >>> exact_div_linear(x * x - y * y, x - y) == x + y
    True
    >>> exact_div_linear(x, 2 * x).terms
    {(0, 0): Fraction(1, 2)}
    """
    lin_terms = [(e, c) for e, c in linear.terms.items()]
    if not lin_terms or any(sum(e) != 1 for e, _ in lin_terms):
        raise ValueError("divisor must be a nonzero linear form without constant term")
    pivot = max(lin_terms, key=lambda ec: abs(ec[1]))[0].index(1)
    a = linear.terms[tuple(1 if i == pivot else 0 for i in range(linear.nvars))]

    quot = Poly.zero(f.nvars)
    rem = f
    while rem.terms:
        e, c = max(rem.terms.items(), key=lambda kv: (kv[0][pivot], kv[0]))
        if e[pivot] <= 0:
            break
        te = list(e)
        te[pivot] -= 1
        t = Poly.monomial(f.nvars, tuple(te), Fraction(c) / a)
        quot = quot + t
        rem = rem - t * linear
    if rem.terms:
        raise ValueError(f"nonzero remainder in exact linear division: {rem}")
    return quot


def _echelon(rows: Iterable[Mapping[Hashable, Scalar]]) -> dict:
    """Row-echelon form of sparse rows ``col -> Scalar``, on integers.

    Column keys must be mutually comparable; their order is the column order.
    Each row is cleared of denominators by their lcm and is then reduced
    against the pivot rows found so far, leftmost column first, by the
    fraction-free step ``a*row - b*pivot`` (as in Bareiss, Math. Comp. 1968)
    followed by division by the row's content.  Returns ``pivot column ->
    row``, the pivot being the leftmost nonzero column of its row.  Whatever
    the row order, the pivot columns are those not in the span of the columns
    to their left, which fixes the rank and the solution read off from it.
    Sparse rows go first: they become the pivots and keep the fill low.
    """
    pivots: dict[Hashable, dict[Hashable, int]] = {}
    for raw in sorted(rows, key=len):
        den = lcm(*(v.denominator for v in raw.values()))
        row = {k: v.numerator * (den // v.denominator) for k, v in raw.items() if v}
        while row:
            c = min(row)
            p = pivots.get(c)
            if p is None:
                pivots[c] = row
                break
            g = gcd(p[c], row[c])
            a, b = p[c] // g, row[c] // g
            if a != 1:
                row = {k: a * v for k, v in row.items()}
            for k, v in p.items():
                s = row.get(k, 0) - b * v
                if s:
                    row[k] = s
                else:
                    row.pop(k, None)
            g = gcd(*row.values())
            if g > 1:
                row = {k: v // g for k, v in row.items()}
    return pivots


def solve_exact(
    cols: Sequence[Mapping[Hashable, Scalar]], target: Mapping[Hashable, Scalar]
) -> list[Fraction] | None:
    """Coefficients ``x`` with ``sum x[j] * cols[j] == target``; ``None`` if none exist.

    ``cols`` and ``target`` are sparse vectors over any hashable index.  Free
    variables are set to zero, so the answer is one solution, not the general
    one: the pivots are the columns independent of the columns to their left,
    exactly what expressing a class in a spanning set needs.  Back-substitution
    runs on integers: ``x[k] = num[k] / den``, where ``den`` is the lcm of the
    denominators found so far.
    """
    n = len(cols)
    rows: dict[Hashable, dict[int, Scalar]] = {}
    for j, col in enumerate(cols):
        for u, v in col.items():
            rows.setdefault(u, {})[j] = v
    for u, v in target.items():
        rows.setdefault(u, {})[n] = v
    pivots = _echelon(rows.values())
    if n in pivots:
        return None
    num = [0] * n
    den = 1
    done: list[int] = []
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        # x[c] = t / (row[c] den), brought over the common denominator
        t = row.get(n, 0) * den - sum(v * num[k] for k, v in row.items() if c < k < n)
        d = row[c] * den
        g = gcd(t, d)
        t, d = (t // g, d // g) if d > 0 else (-t // g, -d // g)
        f = d // gcd(d, den)
        if f != 1:
            den *= f
            for k in done:
                num[k] *= f
        num[c] = t * (den // d)
        done.append(c)
    zero = Fraction(0)  # free variables share one immutable zero
    return [Fraction(v, den) if v else zero for v in num]


def matrix_rank(rows: Iterable[Mapping[Hashable, Scalar]]) -> int:
    """Rank over the rationals of sparse rows ``col -> Scalar`` (comparable keys)."""
    return len(_echelon(rows))
