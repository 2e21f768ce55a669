"""Polynomial BGG calculus: the reference for the Schubert-basis rules.

``qaff.bgg.FiniteSchubert`` computes on the Schubert basis alone, by the
Chevalley and nil-Hecke rules.  This is the polynomial route those rules
replaced, kept so the tests can check them against an independent
computation.  Polynomials live in the fundamental-weight variables
``omega_1..omega_n``, and every class is reduced to the Schubert basis
through divided differences:

    partial_beta(f) = (f - s_beta f) / beta,
    coefficient of sigma_w in [f]  =  constant term of partial_w(f).

Representatives are normalized by ``rep(w_0) = (1/|W|) * prod(positive roots)``
and pushed down with ``rep(w s_i) = partial_i rep(w)``; this pins the Poincare
pairing to ``<sigma_u, sigma_v> = delta(v = w_0 u)``, which the tests verify
against the polynomial-level integral rather than assuming.
"""

from fractions import Fraction

from qaff.polynomials import Poly, exact_div_linear


def homogeneous_components(f):
    """``{degree: the part of f of that total degree}``, in increasing degree."""
    buckets = {}
    for e, c in f.terms.items():
        buckets.setdefault(sum(e), {})[e] = c
    return {d: Poly(f.nvars, t) for d, t in sorted(buckets.items())}


class PolynomialBGG:
    """Divided differences and Schubert polynomials for one ``FiniteSchubert``."""

    def __init__(self, fs):
        self.rs = fs.rs
        self.n = fs.n
        self.W = fs.W
        self.w0 = fs.w0
        # simple roots as linear polynomials in the omega variables
        self._alpha = [
            Poly(
                self.n,
                {
                    tuple(1 if r == i else 0 for r in range(self.n)): Fraction(
                        self.rs.cartan[i][j]
                    )
                    for i in range(self.n)
                    if self.rs.cartan[i][j]
                },
            )
            for j in range(self.n)
        ]
        self._reps = None

    # -- polynomial-level operators -----------------------------------------

    def root_poly(self, beta):
        out = Poly.zero(self.n)
        for j, b in enumerate(beta):
            if b:
                out = out + b * self._alpha[j]
        return out

    def reflect_poly(self, beta, f):
        bco = self.rs.coroot(beta)
        bpoly = self.root_poly(beta)
        images = [
            Poly.variable(self.n, i) - bco[i] * bpoly for i in range(self.n)
        ]
        return f.substitute(images)

    def divided_difference(self, beta, f):
        """``(f - s_beta f) / beta`` — exact by construction."""
        num = f - self.reflect_poly(beta, f)
        if not num:
            return Poly.zero(self.n)
        return exact_div_linear(num, self.root_poly(beta))

    def dd_simple(self, j, f):
        """Divided difference along alpha_j, 0-indexed."""
        return self.divided_difference(self.rs.simple_root(j + 1), f)

    def dd_word(self, word, f):
        """``partial_{i_1} ... partial_{i_k}`` applied rightmost first (0-indexed)."""
        for j in reversed(word):
            f = self.dd_simple(j, f)
            if not f:
                break
        return f

    # -- Schubert representatives --------------------------------------------

    def rep(self, w):
        if self._reps is None:
            top = Poly.one(self.n)
            for beta in self.rs.positive_roots:
                top = top * self.root_poly(beta)
            top = top * Fraction(1, len(self.W))
            reps = {self.w0: top}
            order = sorted(self.W.elements, key=lambda x: -self.W.length[x])
            for v in order:
                for j in range(self.n):
                    u = self.W.mul(v, self.W.gens[j])
                    if self.W.length[u] < self.W.length[v] and u not in reps:
                        reps[u] = self.dd_simple(j, reps[v])
                reps.setdefault(v, reps.get(v))
            self._reps = reps
        return self._reps[w]

    def expand_in_schubert(self, f):
        """Decompose the class of f; degrees above len(w_0) vanish in H*.

        The coefficient of sigma_w is the constant term of ``partial_w`` applied
        to the degree-``len(w)`` component.  Reduced words of one length share
        suffixes, so ``partial`` of each suffix is computed once per component.
        """
        out = {}
        for deg, comp in homogeneous_components(f).items():
            memo = {(): comp}

            def dd_suffix(word):
                g = memo.get(word)
                if g is None:
                    rest = dd_suffix(word[1:])
                    g = memo[word] = self.dd_simple(word[0], rest) if rest else rest
                return g

            for w in self.W.by_length.get(deg, []):
                c = dd_suffix(self.W.word[w]).constant_term
                if c:
                    out[w] = c
        return out

    def class_poly(self, a):
        out = Poly.zero(self.n)
        for w, c in a.items():
            out = out + c * self.rep(w)
        return out

    # -- ring structure ---------------------------------------------------------

    def cup_product(self, a, b):
        return self.expand_in_schubert(self.class_poly(a) * self.class_poly(b))

    def poincare_pairing(self, a, b):
        """Integral over G/B, computed at polynomial level via partial_{w_0}."""
        prod = self.class_poly(a) * self.class_poly(b)
        top = homogeneous_components(prod).get(self.W.length[self.w0])
        if top is None:
            return Fraction(0)
        return self.dd_word(self.W.word[self.w0], top).constant_term
