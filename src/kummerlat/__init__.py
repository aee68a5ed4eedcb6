"""Exact lattice isometry invariants and Lefschetz numbers of natural
automorphisms of generalized Kummer fourfolds."""

from .cyclotomic import moebius
from .isometries import (
    IsometryInvariants,
    LatticeIsometry,
    check_square_theorem,
    check_unimodular_corollary,
    compute_invariants,
    coinvariant_lattice,
    invariant_lattice,
    overlattice_by_glue,
)
from .lattices import (
    FiniteQuadraticForm,
    Lattice,
    Sublattice,
    direct_sum,
    discriminant_form,
    discriminant_group,
    fqf_from_diagonal,
    fqf_isomorphic,
    is_p_elementary,
    make_standard,
    orthogonal_complement,
    signature,
)
from .lefschetz import (
    LefschetzResult,
    TorusAutomorphism,
    catalog,
    corollary_value,
    lefschetz_poly_surface,
    lefschetz_q,
    run_catalog_table,
    torus_automorphism,
)
from .matrix import Matrix, integer_kernel, smith_normal_form
from .series import LaurentPoly

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
    "coinvariant_lattice",
    "compute_invariants",
    "corollary_value",
    "direct_sum",
    "discriminant_form",
    "discriminant_group",
    "fqf_from_diagonal",
    "fqf_isomorphic",
    "integer_kernel",
    "invariant_lattice",
    "is_p_elementary",
    "lefschetz_poly_surface",
    "lefschetz_q",
    "make_standard",
    "moebius",
    "orthogonal_complement",
    "overlattice_by_glue",
    "run_catalog_table",
    "signature",
    "smith_normal_form",
    "torus_automorphism",
]
