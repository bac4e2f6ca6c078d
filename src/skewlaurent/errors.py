"""Exception types shared across the package."""


class SkewLaurentError(Exception):
    """Base class for all errors raised by this package."""


class FieldSpecError(SkewLaurentError):
    """Malformed or inconsistent field / automorphism specification."""


class IdentityAutomorphism(SkewLaurentError):
    """The requested automorphism is the identity, which is out of scope."""


class UnsupportedOrder(SkewLaurentError):
    """Automorphism order 2 or 3: no constructive decomposition is available."""

    def __init__(self, order, message=None):
        self.order = order
        super().__init__(message or f"automorphism order {order} is not supported")


class InfiniteOrder(SkewLaurentError):
    """Operation requires a finite-order automorphism."""


class NoWitness(SkewLaurentError):
    """No element of the requested sigma-degree exists (or the search failed)."""


class NotInL(SkewLaurentError):
    """Element is not in the image of sigma - 1."""


class WitnessFixed(SkewLaurentError):
    """sigma^i fixes the bracket witness at an exponent that needs it moved."""

    def __init__(self, exponent, message=None):
        self.exponent = exponent
        super().__init__(message or f"witness is fixed by sigma^{exponent}")


class ZeroNotInvertible(SkewLaurentError):
    """Inversion of zero (or of a series that is zero to its precision)."""


class ZeroInput(SkewLaurentError):
    """A nonzero input is required."""


class K1Input(SkewLaurentError):
    """Leading-coefficient factorisation is undefined on the k1 line."""


class K1Leading(SkewLaurentError):
    """Series factorisation requires a leading coefficient outside k1."""


class NoSplit(SkewLaurentError):
    """No balanced exponent split exists (order 4, valuation = 2 mod 4)."""


class ExponentBeyondPrecision(SkewLaurentError):
    """A term exponent is at or beyond the stated precision."""


class PrecisionExceeded(SkewLaurentError):
    """A query asked for coefficients beyond the known precision."""


class FieldMismatch(SkewLaurentError):
    """Operands belong to different field contexts."""


class DecompositionError(SkewLaurentError):
    """Internal failure: a constructed certificate did not verify."""


class OutputTooLarge(SkewLaurentError):
    """A result holds an integer with more digits than Python prints."""


class CoefficientTooLarge(SkewLaurentError):
    """A Q(t) coefficient or gcd grew past the size budget."""


class SeriesSyntaxError(SkewLaurentError):
    """Parse error in a series, element, or field spec string."""

    def __init__(self, message, pos=None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
