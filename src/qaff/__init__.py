"""Exact Schubert calculus for affine flag manifolds.

Root systems and affine Weyl groups, the distinguished affine roots carrying
quantum corrections, curve neighborhoods, BGG operators on H*(G/B), the
quantum Chevalley operators on truncated affine cohomology, the ring
QH*_aff(G/B) with its multiplication tables, and the periodic-Toda relation
ideal.  Everything is computed over exact rationals.
"""

from .affine import AffineCoh, TruncationOverflow, affine_coh
from .chevalley import chevalley_root_set, enumerate_chevalley_roots
from .neighborhoods import curve_neighborhood, gw_invariant
from .polynomials import QClass
from .quantum import OrdinaryQH, QuantumAff, ordinary_qh, quantum_aff
from .roots import affinize, build_root_system, parse_lie_type
from .toda import (
    b2_relations,
    phi_evaluate,
    quadratic_relation,
    typeA_relations,
    verify_relation,
)
from .weyl import affine_weyl, finite_weyl

__version__ = "0.1.0"

__all__ = [
    "AffineCoh",
    "OrdinaryQH",
    "QClass",
    "QuantumAff",
    "TruncationOverflow",
    "affine_coh",
    "affine_weyl",
    "affinize",
    "b2_relations",
    "build_root_system",
    "chevalley_root_set",
    "curve_neighborhood",
    "enumerate_chevalley_roots",
    "finite_weyl",
    "gw_invariant",
    "ordinary_qh",
    "parse_lie_type",
    "phi_evaluate",
    "quadratic_relation",
    "quantum_aff",
    "typeA_relations",
    "verify_relation",
    "__version__",
]
