"""Exact lattice isometry invariants and Lefschetz numbers of natural
automorphisms of generalized Kummer fourfolds.

``import kummerlat`` loads the Kummer engine only; the names of ``lattices``
and ``isometries`` (``_LAZY``) import their submodule on first use (PEP 562),
so a Lefschetz run compiles no lattice code. ``lefschetz`` stays eager: a
caller that times its first Lefschetz call would otherwise time the compile
of the module too.
"""

import importlib

from .lefschetz import (
    LaurentPoly,
    LefschetzResult,
    TorusAutomorphism,
    catalog,
    corollary_value,
    lefschetz_poly_surface,
    lefschetz_q,
    run_catalog_table,
    torus_automorphism,
)
from .matrix import Matrix, integer_kernel, moebius, smith_normal_form

_LAZY = {
    **dict.fromkeys(
        (
            "IsometryInvariants",
            "LatticeIsometry",
            "check_square_theorem",
            "check_unimodular_corollary",
            "compute_invariants",
        ),
        "isometries",
    ),
    **dict.fromkeys(
        (
            "FiniteQuadraticForm",
            "Lattice",
            "Sublattice",
            "direct_sum",
            "discriminant_form",
            "discriminant_group",
            "fqf_from_diagonal",
            "fqf_isomorphic",
            "is_p_elementary",
            "make_standard",
            "orthogonal_complement",
            "signature",
        ),
        "lattices",
    ),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [
    "FiniteQuadraticForm",
    "IsometryInvariants",
    "Lattice",
    "LatticeIsometry",
    "LaurentPoly",
    "LefschetzResult",
    "Matrix",
    "Sublattice",
    "TorusAutomorphism",
    "catalog",
    "check_square_theorem",
    "check_unimodular_corollary",
    "compute_invariants",
    "corollary_value",
    "direct_sum",
    "discriminant_form",
    "discriminant_group",
    "fqf_from_diagonal",
    "fqf_isomorphic",
    "integer_kernel",
    "is_p_elementary",
    "lefschetz_poly_surface",
    "lefschetz_q",
    "make_standard",
    "moebius",
    "orthogonal_complement",
    "run_catalog_table",
    "signature",
    "smith_normal_form",
    "torus_automorphism",
]
