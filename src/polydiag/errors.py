"""Exception types shared across the package."""


class ParseError(ValueError):
    """Malformed polynomial, matrix, or certificate text."""


class NotSymmetric(ValueError):
    """A symmetric matrix was required."""


class ZeroMatrix(ValueError):
    """The zero matrix cannot be diagonalized."""


class NotStandardForm(ValueError):
    """A leading principal minor below the rank is identically zero.

    The attribute ``p`` names the first vanishing minor M_p.
    """

    def __init__(self, p, message=None):
        super().__init__(message or f"leading principal minor M_{p} is identically zero")
        self.p = p


class BundleTooLarge(RuntimeError):
    """The recursive diagonalization would exceed the branch cap."""


class DimensionCap(ValueError):
    """Matrix dimension exceeds the configured hard cap."""


class InternalIdentityFailure(RuntimeError):
    """A certificate identity that is guaranteed by construction failed.

    This is never a property of the input; it signals an implementation bug.
    """


class ExponentOverflow(ValueError):
    """An exponent reached 2^30, the limit of a packed monomial field."""
