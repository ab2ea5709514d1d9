"""Signatures over the algebra of integer polynomials with x_i**2 = x_i.

Keys are automorphisms that permute the Boolean cube; verification compares
Monte-Carlo estimates of positive-value proportions instead of recomputing
the signature.
"""

from .automorphisms import (
    Automorphism,
    compose,
    elementary,
    extend_for_signing,
    is_indicator,
    permutation,
    sample_automorphism,
    sample_indicator,
    sample_sparse,
    triangular,
)
from .counting import (
    ValueCounts,
    estimate_positive_proportion,
    exact_value_counts,
    required_trials,
)
from .errors import (
    CapacityError,
    DimensionError,
    FormatError,
    GeneratorError,
    PermutationError,
    SamplingError,
)
from .hashing import digest_to_poly, hash_message, message_poly
from .params import SchemeParams
from .poly import Poly, poly_from_text, poly_to_text
from .scheme import (
    PrivateKey,
    PublicKey,
    Signature,
    VerifyReport,
    keygen,
    sign,
    sign_poly,
    verify,
    verify_poly,
)
from .sizes import SizeReport, attack_dimension, attack_dimension_report, measure

__version__ = "0.1.0"

__all__ = [
    "Automorphism",
    "CapacityError",
    "DimensionError",
    "FormatError",
    "GeneratorError",
    "PermutationError",
    "Poly",
    "PrivateKey",
    "PublicKey",
    "SamplingError",
    "SchemeParams",
    "Signature",
    "SizeReport",
    "ValueCounts",
    "VerifyReport",
    "attack_dimension",
    "attack_dimension_report",
    "compose",
    "digest_to_poly",
    "elementary",
    "estimate_positive_proportion",
    "exact_value_counts",
    "extend_for_signing",
    "hash_message",
    "is_indicator",
    "keygen",
    "measure",
    "message_poly",
    "permutation",
    "poly_from_text",
    "poly_to_text",
    "required_trials",
    "sample_automorphism",
    "sample_indicator",
    "sample_sparse",
    "sign",
    "sign_poly",
    "triangular",
    "verify",
    "verify_poly",
]
