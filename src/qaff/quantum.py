"""The ring QH*_aff(G/B) on the finite Schubert basis, and its q0 = 0 shadow.

Two engines live here, deliberately kept apart:

* :class:`QuantumAff` — the affine quantum product.  The operators
  ``lambda_bar(i)`` act on ``H*(G/B) ⊗ Q[q_0..q_n]`` by classical divisor cup
  plus ``<lambda_i - m_i lambda_0, alpha^vee> q^{alpha^vee} pi(D_{s_alpha})``
  summed over the distinguished affine roots.  Every ``sigma_w`` is lifted to
  an operator polynomial in the ``lambda_bar`` by a graded Nakayama recursion,
  and ``star(a, b)`` evaluates, per pair of basis elements, the lift of the
  shorter one on the other.

  Inside the lift a term ``c q^e sigma_u`` is one ``int`` key ``u << S | e`` and
  ``c``, in the key layout of :meth:`~qaff.polynomials.QModule._packing`: ``e``
  packs ``q^e`` as ``sum e_j << B(n - j)``, ``q0`` most significant, and ``S =
  nq B``, so memo rows are flat ``[(key, c), ...]``.  Every term of
  ``lambda_bar_i sigma_w``, ``T_w(sigma_v)``, ``L_w(sigma_v)`` and their partial
  sums has degree ``l(w) + l(v) <= 2 l(w0)`` with ``deg q^e = 2 sum e``, so a row
  entry ``e_j`` is at most ``l(w0)``.  An input class is packed once per call and
  held to the same bound (an entry outside ``0..l(w0)`` is refused; ``_keys``
  keeps each exponent that passed, so a bad one is refused every time), so a term
  of ``star``, input times input times row, has entries at most ``3 l(w0) < 2^B``
  with ``B`` the bit length of ``3 l(w0)``: adding an exponent to a key adds the
  exponents and never carries into the next entry or into ``u``, and int order
  is tuple order.  ``_split`` alone splits keys, reading each exponent tuple
  once per ring (``_exps``); the packing, ``_split`` and :class:`RowClass`
  are :mod:`qaff.polynomials`'s, shared with :class:`~qaff.affine.AffineCoh`.
  The memos are keyed by one ``int``: ``_lambda_img`` holds
  ``lambda_bar_i(sigma_w)`` at ``i |W| + w`` and ``_lift_img`` holds
  ``L_w(sigma_v)`` at ``w |W| + v``, with ``|W| = len(FW)`` (``_order``).  ``sigma_w`` is
  lifted by its classical Monk step ``(den, [(k, i, w')])``, and each term of a
  lift row adds ``k c q^e lambda_bar_i(sigma_u)`` straight into the table
  (``_add_lambda``).  A row ``lambda_bar_i(sigma_w)`` skips every pi word longer
  than ``l(w)``, since each letter lowers the degree by one, and applies every
  other word by ``FiniteSchubert._pi_word``, the one pi route.  Every operator
  answers with a :class:`~qaff.polynomials.RowClass`: the ring and one
  row with no zero coefficient, which is never copied or changed.  Its
  ``terms``, the ``Poly`` coefficients, are built from the row the first time
  they are read; its JSON record reads the sorted row as it stands, since key
  order is ``(u, e)`` order and ids ascend in printing order
  (``FiniteQRing._in_printing_order``).  A lone
  ``sigma_w`` with coefficient 1 (``_lone``) is not packed at all: ``star`` of
  two of them, ``lift_apply`` and ``lambda_bar`` on one answer with the memo
  row itself, so a product costs no more than its lookup.  Its coefficient is
  most often the ring's one unit ``Poly`` (``QModule._one``, which every
  ``basis(w)`` shares, since no ``Poly`` is changed in place), so ``_lone``
  tests identity before it compares terms.

* :class:`OrdinaryQH` — ordinary quantum cohomology of G/B from the
  finite-root quantum Chevalley rule, written against the root tables alone
  (no shared Schubert-calculus plumbing), so the ``q0 := 0`` comparison is a
  genuine cross-check rather than the same code evaluated twice.

Both are free ``Q[q]``-modules on the finite Schubert basis; their
constructors live in :class:`FiniteQRing`.  Every operator of either first
asks its ring whether an input class is its own
(:meth:`~qaff.polynomials.QModule.check_classes`): a class of another type, or
of the other engine (another number of q-variables), is refused, and so is an
id outside ``FW.elements``.  ``specialize_q0`` answers in ``QH*(G/B)``'s own
ring, a :class:`FiniteQRing` with ``nq = n`` built once per :class:`QuantumAff`,
on the same group and ``nq`` as :class:`OrdinaryQH`, which takes its classes.
The multiplication table of the ``table`` command and its cost guard, ``check_table_cap``, are
:mod:`qaff.cli`'s; the cross-checks that only ``verify`` and the tests run,
``verify_fw_chevalley`` among them, are :mod:`qaff.verify`'s.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

from .bgg import FinCohClass, finite_schubert
from .chevalley import enumerate_chevalley_roots
from .polynomials import Poly, QClass, QModule, RowClass, _divided, solve_exact
from .roots import build_root_system, coroot_ht
from .weyl import affine_weyl, finite_reflection, finite_weyl


class FiniteQRing(QModule):
    """``H*(G/B) ⊗ Q[q]`` with ``nq`` q-variables: constructors and formatting.  With
    ``nq = n + 1`` the q-variables are ``q0..qn``, with ``nq = n`` they are ``q1..qn``."""

    def __init__(self, letter: str, rank: int, nq: int):
        self.rs = build_root_system(letter, rank)
        self.n = rank
        self.FW = finite_weyl(letter, rank)
        super().__init__(self.FW.length.__getitem__, self.FW.word.__getitem__, self.FW, nq)

    def _in_printing_order(self, row: list) -> list:
        """The sorted row: ``FiniteWeyl`` numbers its elements in printing order, and
        key order is ``(u, e)`` order."""
        return sorted(row)

    def format_class(self, a: QClass) -> str:
        self.check_classes(a)
        first = self.n + 1 - self.nq
        return a.format([f"q{first + i}" for i in range(self.nq)],
                        lambda w: f"s[{self.FW.format(w)}]")


class QuantumAff(FiniteQRing):
    """star-product calculator for one simple type (q-variables q0..qn)."""

    def __init__(self, letter: str, rank: int):
        super().__init__(letter, rank, rank + 1)
        self._q0_ring = FiniteQRing(letter, rank, rank)  # QH*(G/B), where specialize_q0 answers
        self.fs = finite_schubert(letter, rank)
        W_aff = affine_weyl(letter, rank)
        self.ard = W_aff.ard
        # an input entry is at most l(w0), and a term of star at most 3 l(w0) < 2^B
        cap = self.FW.length[self.FW.w0]
        self._packing(cap, (3 * cap).bit_length(), "l(w0)")
        # per finite index i: (packed alpha^vee, <lambda_i - m_i lambda_0, alpha^vee>, word
        # of s_alpha) over the Chevalley roots alpha with a nonzero pairing; the words come
        # checked from qaff.chevalley, which builds each from letters 0..n and reads it with
        # W_aff.from_word, so the rows apply them unchecked
        roots = enumerate_chevalley_roots(W_aff)
        self._quantum_terms = [
            [(self._keys[tuple(cr.coroot)], k, cr.word) for cr in roots
             if (k := self.ard.level_zero_weight_pairing(i, cr.coroot))]
            for i in range(1, rank + 1)
        ]
        self._order = len(self.FW)  # |W|, the stride of the int memo keys
        self._lambda_img: dict[int, list] = {}
        self._lift_img: dict[int, list] = {}
        self._correction: dict[int, list] = {}

    def from_finite(self, a: FinCohClass) -> QClass:
        return self._make({w: Poly.const(self.nq, c) for w, c in a.items()})

    # -- packed rows -------------------------------------------------------------------

    def _packed(self, a: QClass) -> list:
        """The packed row of an input class, built once per call, for a checked class."""
        keys = self._keys
        return [(w, [(keys[e], c) for e, c in p.terms.items()]) for w, p in a.terms.items()]

    @staticmethod
    def _row(acc: dict, den: int) -> list:
        """The nonzero entries of the table ``acc``, divided by ``den``, as a row."""
        return [(k, c if den == 1 else _divided(c, den)) for k, c in acc.items() if c]

    @staticmethod
    def _add_product(acc: dict, coef: list, row: list) -> None:
        """Add ``sum c q^e . row`` over the ``(e, c)`` of ``coef`` into the table ``acc``."""
        get = acc.get
        for e, c in coef:
            for k, c2 in row:
                k += e
                acc[k] = get(k, 0) + c * c2

    def _sum_rows(self, pairs) -> QClass:
        """``sum coef . row`` over the ``(coef, row)`` pairs, in one table."""
        acc: dict = {}
        for coef, row in pairs:
            self._add_product(acc, coef, row)
        return RowClass(self, self._row(acc, 1))

    def _lone(self, a: QClass) -> int | None:
        """``w`` when the checked class ``a`` is ``sigma_w`` with coefficient 1, else
        None.  Its row is then the answer as it is: nothing is packed, scaled or summed."""
        if len(a.terms) == 1:
            ((w, p),) = a.terms.items()
            if p is self._one or p.terms == self._one.terms:
                return w
        return None

    def _rows(self, a: QClass, row_of) -> QClass:
        """``sum coef . row_of(w)`` over the terms ``coef sigma_w`` of ``a``; a lone
        ``sigma_w`` reads ``row_of(w)`` as it is."""
        self.check_classes(a)
        w = self._lone(a)
        if w is not None:
            return RowClass(self, row_of(w))
        return self._sum_rows((coef, row_of(w)) for w, coef in self._packed(a))

    # -- the Chevalley operators ---------------------------------------------------

    def _lambda_basis(self, i: int, w: int) -> list:
        """The row of ``lambda_bar_i(sigma_w)``, for a checked ``w``.  Each letter of a
        pi word lowers the degree by one, so a word longer than ``l(w)`` adds nothing and
        is skipped.  Every other word goes through ``FiniteSchubert._pi_word``, one pi for
        every letter."""
        row = self._lambda_img.get(at := i * self._order + w)
        if row is None:
            S, fs, lw = self._shift, self.fs, self.FW.length[w]
            acc = {u << S: c for u, c in fs._cup(i, {w: 1}).items()}
            for e, k, word in self._quantum_terms[i - 1]:
                if len(word) > lw:
                    continue
                for u, c in fs._pi_word(word, {w: 1}).items():
                    key = u << S | e
                    acc[key] = acc.get(key, 0) + k * c
            row = self._lambda_img[at] = self._row(acc, 1)
        return row

    def lambda_bar(self, i: int, a: QClass) -> QClass:
        """Quantum Chevalley operator for the finite index i (1..n)."""
        self.rs.finite_index(i)
        return self._rows(a, lambda w: self._lambda_basis(i, w))

    def evaluate(self, poly: Poly) -> QClass:
        """``poly`` in ``q_0..q_n, x_1..x_n`` at ``x_i = lambda_bar_i``, applied to 1.  Another
        arity is refused, and so is an x-degree above ``2 l(w0)``, the packing's bound."""
        nq, n, keys = self.nq, self.n, self._keys
        if poly.nvars != nq + n:
            raise ValueError(f"q0..q{n}, x1..x{n} are {nq + n} variables, not {poly.nvars}")
        if (d := max((sum(e[nq:]) for e in poly.terms), default=0)) > 2 * self._cap:
            raise ValueError(f"x-degree {d} is above 2 l(w0) = {2 * self._cap}")
        return RowClass(self, self._horner(
            [(e[nq:], keys[e[:nq]], c) for e, c in poly.terms.items()]))

    def _horner(self, terms: list) -> list:
        """The row of ``Phi(P) = P_0 sigma_e + sum_i lambda_bar_i(Phi(P_i))`` for the
        ``(x-exponent, packed e, c)`` terms of ``P``: ``P_i`` holds those whose smallest
        letter is ``i``, with one ``x_i`` taken out, so that letter is applied last."""
        acc, parts, unit = {}, {}, self.FW.identity << self._shift
        for x, e, c in terms:
            i = next((i for i, a in enumerate(x) if a), None)
            if i is None:
                acc[unit | e] = acc.get(unit | e, 0) + c
            else:
                parts.setdefault(i, []).append((x[:i] + (x[i] - 1,) + x[i + 1:], e, c))
        for i, part in parts.items():
            self._add_lambda(acc, i + 1, 1, self._horner(part))
        return self._row(acc, 1)

    # -- operator lifting (graded Nakayama recursion) ----------------------------------

    def _lift_correction(self, w: int) -> list[tuple[int, list]]:
        """``den * (sigma_w - T_w(1))``, with the ``den`` of :meth:`_T_apply`, as ``(u,
        [(e, c), ...])`` coefficient pairs, once per w other than e: the quantum part of
        ``sum a lambda_bar_i sigma_{w'}``, negated.  The lift ``L_w = T_w - sum c q^d L_u``
        runs over its terms, and ends because every one of them is shorter than w."""
        if w not in self._correction:
            acc: dict = {}
            den = self._T_apply(w, self.FW.identity, acc)
            S, mask, length, neg = self._shift, self._mask, self.FW.length, {}
            for k, c in acc.items():
                if c:
                    neg.setdefault(k >> S, []).append((k & mask, -c))
            if neg.pop(w, None) != [(0, -den)] or any(length[u] >= length[w] for u in neg):
                raise AssertionError("lift correction grew")
            self._correction[w] = list(neg.items())
        return self._correction[w]

    def _add_lambda(self, acc: dict, i: int, k: int, row: list) -> None:
        """Add ``k lambda_bar_i(row)`` into the table ``acc``: each term ``c q^e sigma_u``
        of ``row`` adds ``k c q^e lambda_bar_i(sigma_u)``, read from ``_lambda_img``
        (built by :meth:`_lambda_basis` on a miss)."""
        S, mask, img, get = self._shift, self._mask, self._lambda_img, acc.get
        base = i * self._order
        for key, c in row:
            u = key >> S
            lam = img.get(base + u)
            if lam is None:
                lam = self._lambda_basis(i, u)
            e, c = key & mask, k * c
            for k2, c2 in lam:
                k2 += e
                acc[k2] = get(k2, 0) + c * c2

    def _T_apply(self, w: int, v: int, acc: dict) -> int:
        """Add ``den * T_w(sigma_v)`` into the table ``acc`` and return ``den``, where
        ``T_w = (1/den) sum k lambda_bar_i L_{w'}`` over the classical Monk step
        ``(den, [(k, i, w')])`` of w, which is not e, so the sums run on ``int``."""
        den, expr = self.fs.chevalley_expression(w)
        for k, i, x in expr:
            self._add_lambda(acc, i, k, self._lift_apply_basis(x, v))
        return den

    def _lift_apply_basis(self, w: int, v: int) -> list:
        """The row of ``L_w(sigma_v) = T_w(sigma_v) - sum c q^d L_u(sigma_v)`` over the
        terms of the correction, summed in one table; ``L_e`` is the identity, and
        ``L_w(1) = sigma_w`` by construction."""
        key = w * self._order + v
        img = self._lift_img.get(key)
        if img is None:
            if w == self.FW.identity:
                img = [(v << self._shift, 1)]
            elif v == self.FW.identity:
                img = [(w << self._shift, 1)]
            elif self.FW.length[w] == 1:  # L_{s_i} = lambda_bar_i: share its image
                img = self._lambda_basis(self.FW.word[w][0] + 1, v)
            else:
                acc: dict = {}
                den = self._T_apply(w, v, acc)
                for u, neg in self._lift_correction(w):
                    self._add_product(acc, neg, self._lift_apply_basis(u, v))
                img = self._row(acc, den)
            self._lift_img[key] = img
        return img

    def lift_apply(self, w: int, b: QClass) -> QClass:
        """``L_w(b)``; by construction ``L_w(1) = sigma_w`` exactly."""
        self.FW.check_ids((w,))
        return self._rows(b, lambda v: self._lift_apply_basis(w, v))

    # -- the product -------------------------------------------------------------

    def _pair_row(self, u: int, v: int) -> list:
        """The row of ``sigma_u * sigma_v``.  The product commutes, so it lifts the
        shorter of the two (``u`` on a tie): its lift has fewer correction terms."""
        if self.FW.length[u] <= self.FW.length[v]:
            return self._lift_apply_basis(u, v)
        return self._lift_apply_basis(v, u)

    def star(self, a: QClass, b: QClass) -> QClass:
        """``a * b``: ``sigma_u * sigma_v`` is its pair's row as it is, and any other
        pair of classes sums the rows of every pair of basis elements in one table."""
        self.check_classes(a, b)
        u, v = self._lone(a), self._lone(b)
        if u is not None and v is not None:
            return RowClass(self, self._pair_row(u, v))
        pb = self._packed(b)
        return self._sum_rows(
            ([(e1 + e2, c1 * c2) for e1, c1 in p for e2, c2 in r], self._pair_row(u, v))
            for u, p in self._packed(a) for v, r in pb)

    def basis_simple(self, i: int) -> QClass:
        return self.basis(self.FW.gens[self.rs.finite_index(i) - 1])

    # -- q0 := 0 ---------------------------------------------------------------------

    def specialize_q0(self, a: QClass) -> QClass:
        """Kill q0 and re-index the remaining variables to q1..qn: a class of QH*(G/B)."""
        self.check_classes(a)
        out: dict[int, Poly] = {}
        for w, poly in a.terms.items():
            kept = {e[1:]: c for e, c in poly.terms.items() if e[0] == 0}
            if kept:
                out[w] = Poly(self.n, kept)
        return self._q0_ring._make(out)


class OrdinaryQH(FiniteQRing):
    """Ordinary QH*(G/B) from the finite-root quantum Chevalley rule.

    Built directly on the root tables: the classical terms are the Bruhat
    covers weighted by ``<omega_i, alpha^vee>`` and the quantum terms run over
    finite positive roots with ``l(s_alpha) = 2 ht(alpha^vee) - 1`` and length
    drop ``2 ht(alpha^vee) - 1``.  Divisor expressions and lifting are redone
    here from the q = 0 part of this rule, so nothing quantum is shared with
    :class:`QuantumAff`.  Its q-variables are q1..qn.  It multiplies by
    ``s_alpha`` by composing root permutations (:class:`~qaff.weyl.FinW`) and
    reads only ``perm``, ``index`` and ``length`` of the numbered group, never
    the generator table or the cover rows that :class:`QuantumAff` runs on.
    """

    def __init__(self, letter: str, rank: int):
        super().__init__(letter, rank, rank)
        self._refl = {
            beta: finite_reflection(self.rs, beta) for beta in self.rs.positive_roots
        }
        self._quantum_roots = [
            beta
            for beta in self.rs.positive_roots
            if self.FW.length[self.FW.id_of(self._refl[beta])]
            == 2 * coroot_ht(self.rs.coroot(beta)) - 1
        ]
        self._express: dict[int, list[tuple[Fraction, tuple[int, ...]]]] = {}
        self._mono_classical: dict[tuple[int, ...], QClass] = {(): self.unit()}
        self._lift_img: dict[tuple[int, int], QClass] = {}
        self._correction: dict[int, QClass] = {}  # w -> T_w(1) - sigma_w

    def chevalley(self, i: int, a: QClass) -> QClass:
        """Full quantum Chevalley multiplication by sigma_i: the classical
        terms of :meth:`chevalley_classical`, which checks ``i`` and the support,
        plus the quantum-root terms."""
        out = dict(self.chevalley_classical(i, a).terms)
        for w, c in a.terms.items():
            x, lw = self.FW.element(w), self.FW.length[w]
            for beta in self._quantum_roots:
                k = self.rs.coroot(beta)[i - 1]
                if not k:
                    continue
                ht = coroot_ht(self.rs.coroot(beta))
                u = self.FW.id_of(x * self._refl[beta])
                if self.FW.length[u] == lw + 1 - 2 * ht:
                    e = tuple(self.rs.coroot(beta))
                    s = out.get(u)
                    q = Poly.monomial(self.nq, e, k) * c
                    out[u] = q if s is None else s + q
        return self._make(out)

    def chevalley_classical(self, i: int, a: QClass) -> QClass:
        """The classical terms: the Bruhat covers weighted by ``<omega_i, alpha^vee>``."""
        self.rs.finite_index(i)
        self.check_classes(a)
        out: dict[int, Poly] = {}
        for w, c in a.terms.items():
            x, lw = self.FW.element(w), self.FW.length[w]
            for beta in self.rs.positive_roots:
                k = self.rs.coroot(beta)[i - 1]
                if not k:
                    continue
                u = self.FW.id_of(x * self._refl[beta])
                if self.FW.length[u] == lw + 1:
                    s = out.get(u)
                    out[u] = k * c if s is None else s + k * c
        return self._make(out)

    def _monomial_classical(self, mono: tuple[int, ...]) -> QClass:
        """Memoized by suffix, so each new monomial costs one Chevalley step."""
        cls = self._mono_classical.get(mono)
        if cls is None:
            cls = self._mono_classical[mono] = self.chevalley_classical(
                mono[0], self._monomial_classical(mono[1:]))
        return cls

    def express_in_divisors(self, w: int) -> list[tuple[Fraction, tuple[int, ...]]]:
        if w not in self._express:
            lw = self.FW.length[w]
            monos = list(combinations_with_replacement(range(1, self.n + 1), lw))
            cols = [
                {v: p.constant_term for v, p in self._monomial_classical(m).terms.items()}
                for m in monos
            ]
            sol = solve_exact(cols, {w: 1})
            if sol is None:
                raise AssertionError("divisor monomials must span classically")
            self._express[w] = [(c, m) for c, m in zip(sol, monos) if c]
        return self._express[w]

    def _T_apply(self, w: int, b: QClass) -> QClass:
        out = self.zero()
        for coef, mono in self.express_in_divisors(w):
            cls = b
            for i in reversed(mono):
                cls = self.chevalley(i, cls)
            out = out + cls.scale(coef)
        return out

    def _lift_apply_basis(self, w: int, v: int) -> QClass:
        key = (w, v)
        if key not in self._lift_img:
            t = self._T_apply(w, self.basis(v))
            corr = self._correction.get(w)
            if corr is None:
                corr = self._correction[w] = self._T_apply(w, self.unit()) - self.basis(w)
            for u, poly in corr.terms.items():
                if self.FW.length[u] >= self.FW.length[w]:
                    raise AssertionError("lift correction grew")
                t = t - self._lift_apply_basis(u, v).scale(poly)
            self._lift_img[key] = t
        return self._lift_img[key]

    def star(self, a: QClass, b: QClass) -> QClass:
        self.check_classes(a, b)
        out = self.zero()
        for u, c in a.terms.items():
            for v, d in b.terms.items():
                out = out + self._lift_apply_basis(u, v).scale(c * d)
        return out


@lru_cache(maxsize=None, typed=True)
def quantum_aff(letter: str, rank: int) -> QuantumAff:
    return QuantumAff(letter, rank)


@lru_cache(maxsize=None, typed=True)
def ordinary_qh(letter: str, rank: int) -> OrdinaryQH:
    return OrdinaryQH(letter, rank)
