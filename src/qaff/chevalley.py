"""The quantum-cover roots: positive real roots with minimal reflection length.

A positive real affine root alpha belongs to the distinguished set when
``len(s_alpha) = 2 ht(alpha^vee) - 1``.  These are exactly the roots that can
contribute quantum terms to divisor multiplication, and each one carries a
palindromic reduced word ``s_i w s_i`` built by peeling simple reflections:
every non-simple member alpha has a simple alpha_i with
``<alpha_i, alpha^vee> = 1``, and ``s_i(alpha)`` is again a member with coroot
``alpha^vee - alpha_i^vee``.

Membership forces ``alpha^vee < c`` componentwise, which pins the candidates
down to finitely many roots: :meth:`AffineRootData.real_positive_roots_leq`
with bound ``c``.  (No real root has coroot ``c`` itself, so the bound is
strict.)  The upward peeling reconstruction that ``verify`` and the tests
check the set against, ``posir_reconstruct``, is in :mod:`qaff.verify`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .roots import AffineRoot, CorootVec, coroot_ht
from .weyl import AffineWeylGroup, affine_weyl


class ChevalleyRoot(NamedTuple):
    root: AffineRoot
    coroot: CorootVec
    coroot_height: int
    reflection_length: int
    word: tuple[int, ...]  # palindromic reduced word for s_root


def _enumerate(W: AffineWeylGroup) -> list[ChevalleyRoot]:
    ard = W.ard
    members: list[tuple[AffineRoot, CorootVec, int, int]] = []
    for alpha, av in ard.real_positive_roots_leq(ard.c):
        ht = coroot_ht(av)
        ell = W.length(W.reflection(alpha))
        if ell == 2 * ht - 1:
            members.append((alpha, av, ht, ell))
    members.sort(key=lambda m: (m[2], m[0].level, m[0].finite))

    # attach palindromic words by peeling a simple reflection per height step
    words: dict[AffineRoot, tuple[int, ...]] = {}
    out: list[ChevalleyRoot] = []
    simple_roots = [ard.simple_root(i) for i in range(ard.n + 1)]
    for alpha, av, ht, ell in members:
        if ht == 1:
            i = next(k for k, s in enumerate(simple_roots) if s == alpha)
            words[alpha] = (i,)
        else:
            for i in range(ard.n + 1):
                if ard.pairing(simple_roots[i], av) != 1:
                    continue
                down = ard.reflect(simple_roots[i], alpha)
                if down in words:
                    words[alpha] = (i,) + words[down] + (i,)
                    break
            else:
                raise AssertionError(f"no peeling step found for {alpha}")
        word = words[alpha]
        if len(word) != ell:
            raise AssertionError(f"peeled word for {alpha} has length {len(word)}, not {ell}")
        if W.from_word(word) != W.reflection(alpha):
            raise AssertionError(f"peeled word for {alpha} is not its reflection")
        out.append(ChevalleyRoot(alpha, av, ht, ell, word))
    return out


@lru_cache(maxsize=None, typed=True)
def chevalley_root_set(letter: str, rank: int) -> tuple[ChevalleyRoot, ...]:
    """The set for one affine type, sorted by coroot height."""
    return tuple(_enumerate(affine_weyl(letter, rank)))


def enumerate_chevalley_roots(W: AffineWeylGroup) -> tuple[ChevalleyRoot, ...]:
    """The set of ``W``'s type: it holds no element ids, so every group of the
    type shares it."""
    return chevalley_root_set(W.rs.letter, W.rs.rank)
