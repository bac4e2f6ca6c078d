"""Exact skew Laurent series arithmetic and commutator-product decompositions.

The ring is k((sigma;x)): Laurent series over a coefficient field k,
multiplied with the twist x*a = sigma(a)*x.  Supported coefficient
fields are finite fields with a Frobenius-power sigma and Q(t) with a
shift or scale sigma.

The headline operation is decompose(): it writes any series as a
product of two commutators (sigma of order 4, 5, ..., or infinite) and
returns a Certificate that verify_certificate() re-checks by direct
multiplication.  Orders 2 and 3 are rejected with UnsupportedOrder.
"""

from . import errors
from .decompose import (
    Certificate,
    bracket_preimage,
    certificate_problem,
    decompose,
    factor_avoiding_multiples,
    factor_into_l_pair,
    factor_with_l_coeffs,
    split_exponent,
    verify_certificate,
    x_bracket_preimage,
)
from .errors import SkewLaurentError, UnsupportedOrder
from .field_tower import FiniteFieldCtx, RationalFunctionCtx
from .reduced_trace import MatrixRep, matrix_rep, reduced_trace
from .skew_series import SkewSeries, commutator, conjugate, from_terms, term, zero

__all__ = [
    "Certificate",
    "FiniteFieldCtx",
    "MatrixRep",
    "RationalFunctionCtx",
    "SkewLaurentError",
    "SkewSeries",
    "UnsupportedOrder",
    "bracket_preimage",
    "certificate_problem",
    "commutator",
    "conjugate",
    "decompose",
    "errors",
    "factor_avoiding_multiples",
    "factor_into_l_pair",
    "factor_with_l_coeffs",
    "from_terms",
    "matrix_rep",
    "reduced_trace",
    "split_exponent",
    "term",
    "verify_certificate",
    "x_bracket_preimage",
    "zero",
]

__version__ = "0.1.0"
