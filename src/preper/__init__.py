"""Exact preperiodic portraits of rational maps over the rationals.

The package computes, with integer arithmetic only, the full set of rational
preperiodic points of a rational self-map of the projective line, determines
the primes of bad reduction, certifies that cross terms between tail and
periodic points are S-units, and evaluates explicit upper bounds on portrait
sizes.
"""

from .certify import (
    BoundCheckItem,
    BoundReport,
    CertificateBundle,
    SUnitCertificate,
    check_bounds,
    evaluate_bounds,
    make_certificates,
    thue_mahler_coset_count,
    unit_equation_count,
    unit_equation_pair_count,
    verify_portrait_bounds,
)
from .dynatomic import (
    PeriodicSearchResult,
    formal_period_degree,
    multiplier,
    rational_periodic_points,
)
from .dynmap import (
    DegenerateMapError,
    InvariantViolation,
    OrbitRecord,
    PreimageResult,
    RationalMap,
    apply,
    build_map,
    escape_height,
    orbit,
    preimages,
    preperiodic_height_bound,
)
from .families import (
    Claim,
    ClaimReport,
    FamilySpec,
    family_portrait,
    generate,
    verify_claims,
)
from .forms import BinaryForm, form_from_poly, rational_roots, resultant
from .portrait import (
    CompletenessFlags,
    PeriodicPoint,
    Portrait,
    PortraitCounts,
    PortraitOverflowError,
    TailRecord,
    brute_force_preperiodic,
    build_portrait,
    classify,
    rational_points_up_to,
)
from .qarith import (
    INFINITY,
    PrimeSet,
    ProjPoint,
    factor,
    is_prime,
    is_s_unit,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryForm",
    "BoundCheckItem",
    "BoundReport",
    "CertificateBundle",
    "Claim",
    "ClaimReport",
    "CompletenessFlags",
    "DegenerateMapError",
    "FamilySpec",
    "INFINITY",
    "InvariantViolation",
    "OrbitRecord",
    "PeriodicPoint",
    "PeriodicSearchResult",
    "Portrait",
    "PortraitCounts",
    "PortraitOverflowError",
    "PreimageResult",
    "PrimeSet",
    "ProjPoint",
    "RationalMap",
    "SUnitCertificate",
    "TailRecord",
    "apply",
    "brute_force_preperiodic",
    "build_map",
    "build_portrait",
    "check_bounds",
    "classify",
    "escape_height",
    "evaluate_bounds",
    "factor",
    "family_portrait",
    "form_from_poly",
    "formal_period_degree",
    "generate",
    "is_prime",
    "is_s_unit",
    "make_certificates",
    "multiplier",
    "orbit",
    "preimages",
    "preperiodic_height_bound",
    "rational_periodic_points",
    "rational_points_up_to",
    "rational_roots",
    "resultant",
    "thue_mahler_coset_count",
    "unit_equation_count",
    "unit_equation_pair_count",
    "verify_claims",
    "verify_portrait_bounds",
]
