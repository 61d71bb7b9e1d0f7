"""Exact structure theory of local fields at the prime p.

Filtered unit-class and Artin-Schreier class spaces, degree-p cyclic
extensions with their ramification breaks and norm groups, and the
degree-p pairing between the two sides, all over exact field arithmetic.
"""

from .class_spaces import (
    AdaptedBasis,
    adapted_basis,
    as_class_reduce,
    coordinates,
    filtration_dims,
    first_trivial_level,
    unit_class_reduce,
)
from .errors import (
    DomainError,
    InternalError,
    LfkError,
    MalformedInputError,
    OutOfWindowError,
    PrecisionError,
    UnsupportedCaseError,
)
from .extensions import (
    DegreePExtension,
    Line,
    attach_extension,
    line_break,
    line_of,
    ramification_break,
)
from .fp_linalg import (
    FpSubspace,
    FpVector,
    member,
    perp,
    rref,
)
from .local_arith import (
    DEFAULT_PRECISION,
    FieldContext,
    bp_index,
    parse_element,
    parse_field,
    series_residue_and_dlog,
    val,
)
from .pairings_verifiers import (
    PairingReport,
    VerificationReport,
    claims_for,
    line_catalog,
    norm_class_subgroup,
    pairing_value,
    pairs_trivially,
    verify_all,
    verify_claim,
)

__all__ = [
    "AdaptedBasis",
    "DEFAULT_PRECISION",
    "DegreePExtension",
    "DomainError",
    "FieldContext",
    "FpSubspace",
    "FpVector",
    "InternalError",
    "LfkError",
    "Line",
    "MalformedInputError",
    "OutOfWindowError",
    "PairingReport",
    "PrecisionError",
    "UnsupportedCaseError",
    "VerificationReport",
    "adapted_basis",
    "as_class_reduce",
    "attach_extension",
    "bp_index",
    "claims_for",
    "coordinates",
    "filtration_dims",
    "first_trivial_level",
    "line_break",
    "line_catalog",
    "line_of",
    "member",
    "norm_class_subgroup",
    "pairing_value",
    "pairs_trivially",
    "parse_element",
    "parse_field",
    "perp",
    "ramification_break",
    "rref",
    "series_residue_and_dlog",
    "unit_class_reduce",
    "val",
    "verify_all",
    "verify_claim",
]

__version__ = "0.1.0"
