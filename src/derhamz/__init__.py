"""Exact de Rham cohomology of affine spaces over the integers.

Computes the integral cohomology of the polynomial de Rham complex in any
number of variables and total degree, builds the Bockstein spectral
sequence at each prime, and machine-verifies the structure theorems,
including the closed-form p-adic filtration of the cohomology.
"""

__version__ = "0.1.0"

from .abgroups import (
    FgAbGroup,
    Homomorphism,
    graded_piece_dim,
    homology_at,
    induced_map,
    is_isomorphic,
    primary_part,
    subgroup_pk,
)
from .bockstein import (
    ExactCouple,
    ExactnessError,
    SpectralPage,
    closed_form_page,
    compare_with_closed_form,
    derive,
    initial_couple,
    pages,
)
from .cohomology import (
    cartier_iso,
    cocycle_dim,
    integral_cohomology,
    modp_cohomology,
)
from .derham import (
    BasisElement,
    GradedPiece,
    basis,
)
from .intlinalg import IntMatrix, hnf, lattice_solve, snf
from .theorems import (
    VerificationReport,
    sweep,
    verify_annihilation,
    verify_cartier,
    verify_couple_morphism,
    verify_example_deg4,
    verify_filtration,
    verify_frobenius_iso,
    verify_page_identification,
)

__all__ = [
    "BasisElement",
    "ExactCouple",
    "ExactnessError",
    "FgAbGroup",
    "GradedPiece",
    "Homomorphism",
    "IntMatrix",
    "SpectralPage",
    "VerificationReport",
    "basis",
    "cartier_iso",
    "closed_form_page",
    "cocycle_dim",
    "compare_with_closed_form",
    "derive",
    "graded_piece_dim",
    "hnf",
    "homology_at",
    "induced_map",
    "initial_couple",
    "integral_cohomology",
    "is_isomorphic",
    "lattice_solve",
    "modp_cohomology",
    "pages",
    "primary_part",
    "snf",
    "subgroup_pk",
    "sweep",
    "verify_annihilation",
    "verify_cartier",
    "verify_couple_morphism",
    "verify_example_deg4",
    "verify_filtration",
    "verify_frobenius_iso",
    "verify_page_identification",
]
