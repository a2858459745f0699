"""Exact congruence diagonalization of symmetric polynomial matrices.

The library works over sparse multivariate polynomials with rational
coefficients, diagonalizes symmetric polynomial matrices by exact
congruence transformations, emits machine-checkable certificates for the
results, and cross-checks pointwise positivity claims against an
independent exact PSD oracle (a fraction-free elimination of each grid
point's integer matrix) on rational grids.
"""

__version__ = "0.1.0"

from .arith import Polynomial, parse_polynomial
from .errors import (
    BundleTooLarge,
    DimensionCap,
    ExponentOverflow,
    InternalIdentityFailure,
    NotStandardForm,
    NotSymmetric,
    ParseError,
    ZeroMatrix,
)
from .polymat import PolyMatrix, format_matrix, parse_matrix

__all__ = [
    "__version__",
    "Polynomial",
    "parse_polynomial",
    "PolyMatrix",
    "format_matrix",
    "parse_matrix",
    "ParseError",
    "NotSymmetric",
    "ZeroMatrix",
    "NotStandardForm",
    "BundleTooLarge",
    "DimensionCap",
    "ExponentOverflow",
    "InternalIdentityFailure",
]
