"""The paper's first ring: the divisor subring of ``H*(Fl_aff)`` and its ``#``-product.

Every function takes an :class:`~qaff.affine.AffineCoh` calculator and reads
its operators; nothing here is on the path of a product, ``lambda_bar`` or
curve-neighborhood run, so ``import qaff`` does not load this module.  Only
``qsharp``, ``verify`` and the tests do.

* ``e1_pullback`` — the ring map determined by ``sigma_i -> eps_i - m_i eps_0``,
  built by the Monk step: ``sigma_w = sum c sigma_i . sigma_v`` pulls back to
  ``sum c (eps_i - m_i eps_0) . e1(sigma_v)``;
* ``divisor_monomial_class`` and ``express_in_divisor_monomials`` — the cup
  monomials ``eps_{i_1} ... eps_{i_k}`` and a class written in them;
* ``qsharp_product`` — ``a * b := Lambda_a Lambda_b (1)`` reduced modulo the
  principal ideal generated by ``q^c``.

The memos of the monomial classes and of the ``e1`` images are kept per
calculator, for as long as it lives (``_mono_cache``, ``_e1_cache``).
``express_in_divisor_monomials`` and ``reduce_mod_qc`` refuse a class that is
not ``calc``'s own (:meth:`~qaff.polynomials.QModule.check_classes`: a class of
another group, even one of the same type, another number of q-variables, or an
element id the group has not made), and ``e1_pullback`` a finite id
(:meth:`~qaff.weyl.FiniteWeyl.check_ids`), before any of them fills a memo.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from weakref import WeakKeyDictionary

from .affine import AffineCoh
from .bgg import FinCohClass, FiniteSchubert, finite_schubert
from .polynomials import Poly, QClass, solve_exact
from .roots import CorootVec

# calculator -> cup monomial -> class, seeded with the empty monomial's unit
_mono_cache: WeakKeyDictionary[AffineCoh, dict[tuple[int, ...], QClass]] = WeakKeyDictionary()
# calculator -> finite id w -> e1(sigma_w)
_e1_cache: WeakKeyDictionary[AffineCoh, dict[int, QClass]] = WeakKeyDictionary()


def fs(calc: AffineCoh) -> FiniteSchubert:
    """The cached finite Schubert calculator of ``calc``'s type, read by :func:`e1_pullback`;
    the finite group is enumerated only when it is first read."""
    return finite_schubert(calc.W.rs.letter, calc.W.rs.rank)


def q_monomial(calc: AffineCoh, e: CorootVec, num=1) -> Poly:
    """``num q^e`` in the q-variables of ``calc``."""
    return Poly.monomial(calc.nq, tuple(e), num)


# -- pullback along evaluation at the base point ---------------------------------


def e1_pullback(calc: AffineCoh, a: FinCohClass) -> QClass:
    """The ring map ``sigma_i -> eps_i - m_i eps_0`` on a finite class."""
    fs(calc).W.check_ids(a)
    out = calc.zero()
    for w, c in a.items():
        out = out + _e1_basis(calc, w).scale(c)
    return out


def _e1_basis(calc: AffineCoh, w: int) -> QClass:
    """``e1(sigma_w)`` by the Monk step of ``chevalley_expression``, memoized per w."""
    memo = _e1_cache.get(calc)
    if memo is None:
        memo = _e1_cache[calc] = {}
    img = memo.get(w)
    if img is None:
        finite = fs(calc)
        if w == finite.W.identity:
            img = calc.unit()
        else:
            den, expr = finite.chevalley_expression(w)
            img = calc.zero()
            for k, i, v in expr:
                img = img + calc.divisor_pullback(i, _e1_basis(calc, v)).scale(Fraction(k, den))
        memo[w] = img
    return img


# -- the divisor subring and its product ------------------------------------------


def divisor_monomial_class(calc: AffineCoh, mono: tuple[int, ...]) -> QClass:
    """Cup product ``eps_{i_1} ... eps_{i_k}`` (affine indices, may repeat), memoized
    by suffix: one Chevalley step per new monomial."""
    memo = _mono_cache.get(calc)
    if memo is None:
        memo = _mono_cache[calc] = {(): calc.unit()}
    cls = memo.get(mono)
    if cls is None:
        cls = memo[mono] = calc.chevalley(mono[0], divisor_monomial_class(calc, mono[1:]))
    return cls


def express_in_divisor_monomials(
    calc: AffineCoh, a: QClass
) -> list[tuple[tuple[int, ...], Fraction, tuple[int, ...]]]:
    """Write ``a`` as sum of ``q^e * coeff * eps-monomial``; graded elimination.

    Raises ValueError when some layer lies outside the divisor span.
    """
    calc.check_classes(a)
    # split into (q-exponent, length) layers of plain rational classes
    layers: dict[tuple[tuple[int, ...], int], dict[int, Fraction]] = {}
    for w, poly in a.terms.items():
        lw = calc.W.length(w)
        for e, c in poly.terms.items():
            layers.setdefault((e, lw), {})[w] = c
    out: list[tuple[tuple[int, ...], Fraction, tuple[int, ...]]] = []
    for (e, lw), layer in sorted(layers.items()):
        monos = list(combinations_with_replacement(range(calc.n + 1), lw))
        cols = [
            {w: p.constant_term for w, p in divisor_monomial_class(calc, m).terms.items()}
            for m in monos
        ]
        sol = solve_exact(cols, layer)
        if sol is None:
            raise ValueError(
                "class lies outside the subring generated by divisor classes"
            )
        out.extend((e, c, m) for c, m in zip(sol, monos) if c)
    return out


def _apply_lambda_expr(calc: AffineCoh, expr, target: QClass) -> QClass:
    out = calc.zero()
    for e, c, mono in expr:
        cls = target
        for i in reversed(mono):
            cls = calc.lambda_op(i, cls)
        out = out + cls.scale(q_monomial(calc, e, c))
    return out


def reduce_mod_qc(calc: AffineCoh, a: QClass) -> QClass:
    """Kill every coefficient monomial divisible by ``q^c``."""
    calc.check_classes(a)
    c = calc.ard.c
    return calc.from_table({
        w: {e: v for e, v in poly.terms.items() if not all(x >= y for x, y in zip(e, c))}
        for w, poly in a.terms.items()
    })


def qsharp_product(calc: AffineCoh, a: QClass, b: QClass) -> QClass:
    """``a * b = Lambda_a Lambda_b (1)`` modulo ``q^c``."""
    expr_a = express_in_divisor_monomials(calc, a)
    expr_b = express_in_divisor_monomials(calc, b)
    inner = _apply_lambda_expr(calc, expr_b, calc.unit())
    outer = _apply_lambda_expr(calc, expr_a, inner)
    return reduce_mod_qc(calc, outer)
