"""Skew Laurent series over a field context, with big-oh precision.

A ``SkewSeries`` stores the coefficients of x^val .. x^(prec-1) densely
and asserts nothing about exponents at or beyond ``prec``.  The twisted
multiplication rule is

    x^i * a = sigma^i(a) * x^i,

so the coefficient of x^e in f*g is  sum_{i+j=e} f_i * sigma^i(g_j).

Precision bookkeeping follows the usual absolute-precision laws:

* add/sub:  prec = min(f.prec, g.prec)
* mul:      prec = min(f.prec + g.val, g.prec + f.val)
* inverse:  prec = f.prec - 2*f.val  (an O(x^prec) perturbation of f
  moves the inverse by O(x^(prec - 2*val)))

Normal form: the leading stored coefficient is nonzero, or the window is
empty (the zero-to-precision series, stored with val = prec).  The
valuation query reports None for a series that is zero to its precision.

Products and inverses run in one kernel of the ``FieldCtx`` base
(``series_mul`` and ``series_inverse``) on every context's raw values,
and an inverse computes each coefficient from the earlier ones.  Sums
copy the lower window and add in the other operand's nonzero terms.
"""

from __future__ import annotations

from .errors import (
    ExponentBeyondPrecision,
    FieldMismatch,
    PrecisionExceeded,
    ZeroNotInvertible,
)


class SkewSeries:
    __slots__ = ("ctx", "val", "coeffs", "prec")

    def __init__(self, ctx, val, coeffs, prec):
        coeffs = tuple(coeffs)
        if len(coeffs) != prec - val:
            raise ValueError("coefficient window must cover exactly [val, prec)")
        lead = 0
        while lead < len(coeffs) and not coeffs[lead]:
            lead += 1
        if lead:
            val += lead
            coeffs = coeffs[lead:]
        if not coeffs:
            val = prec
        self.ctx = ctx
        self.val = val
        self.coeffs = coeffs
        self.prec = prec

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self):
        """True when the series is zero to its stated precision."""
        return not self.coeffs

    def valuation(self):
        """Exponent of the leading term, or None for a zero-to-precision series."""
        return None if self.is_zero else self.val

    def coeff_at(self, e):
        if e >= self.prec:
            raise PrecisionExceeded(f"coefficient of x^{e} is beyond O(x^{self.prec})")
        return self._coeff(e)

    def _coeff(self, e):
        if e < self.val or e >= self.prec:
            return self.ctx.zero()
        return self.coeffs[e - self.val]

    def eq_to_prec(self, other, upto):
        """Coefficient-wise equality below x^upto."""
        self._check_ctx(other)
        if upto > self.prec or upto > other.prec:
            raise PrecisionExceeded(
                f"comparison to O(x^{upto}) exceeds known precision "
                f"(O(x^{self.prec}) vs O(x^{other.prec}))"
            )
        for e in range(min(self.val, other.val), upto):
            if self._coeff(e) != other._coeff(e):
                return False
        return True

    def _check_ctx(self, other):
        if not isinstance(other, SkewSeries):
            raise TypeError("expected a SkewSeries")
        if other.ctx is not self.ctx and other.ctx != self.ctx:
            raise FieldMismatch("series over different fields")

    # -- ring operations -----------------------------------------------------

    def __add__(self, other, negate=False):
        """self + other, or self - other when negate is set (``__sub__``)."""
        self._check_ctx(other)
        prec = min(self.prec, other.prec)
        # the lower window is copied (negated if it is a subtrahend); the
        # nonzero terms of the other operand below prec are added into it
        if self.val <= other.val:
            low, high, neg_high = self, other, negate
            acc = list(self.coeffs[: prec - self.val])
        else:
            low, high, neg_high = other, self, False
            acc = list(other.coeffs[: prec - other.val])
            if negate:
                acc = [-c for c in acc]
        off = high.val - low.val
        for idx, c in enumerate(high.coeffs[: max(prec - high.val, 0)], off):
            if c:
                acc[idx] = acc[idx] - c if neg_high else acc[idx] + c
        return SkewSeries(self.ctx, low.val, acc, prec)

    def __sub__(self, other):
        return self.__add__(other, negate=True)

    def __neg__(self):
        return SkewSeries(self.ctx, self.val, tuple(-c for c in self.coeffs), self.prec)

    def __mul__(self, other):
        self._check_ctx(other)
        prec = min(self.prec + other.val, other.prec + self.val)
        if not self.coeffs or not other.coeffs:
            return SkewSeries(self.ctx, prec, (), prec)
        acc = self.ctx.series_mul(self, other, prec)
        return SkewSeries(self.ctx, self.val + other.val, acc, prec)

    def inverse(self):
        """Two-sided inverse to precision prec - 2*val."""
        if self.is_zero:
            raise ZeroNotInvertible("series is zero to its precision")
        gval = -self.val
        gprec = self.prec - 2 * self.val
        coeffs = self.ctx.series_inverse(self.coeffs, gval, gprec)
        return SkewSeries(self.ctx, gval, coeffs, gprec)

    # -- formatting ----------------------------------------------------------

    def __str__(self):
        parts = []
        one = self.ctx.one()
        for idx, c in enumerate(self.coeffs):
            if not c:
                continue
            e = self.val + idx
            parts.append(f"x^{e}" if c == one else f"({c})*x^{e}")
        parts.append(f"O(x^{self.prec})")
        return " + ".join(parts)

    def __repr__(self):
        return f"SkewSeries({self})"

    def __eq__(self, other):
        """Structural equality: same window, coefficients, and precision."""
        if not isinstance(other, SkewSeries):
            return NotImplemented
        return (
            self.ctx == other.ctx
            and self.val == other.val
            and self.prec == other.prec
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.val, self.prec, self.coeffs))


def zero(ctx, prec):
    return SkewSeries(ctx, prec, (), prec)


def term(ctx, coeff, exp, prec):
    """The single-term series coeff * x^exp + O(x^prec)."""
    if exp >= prec:
        raise ExponentBeyondPrecision(f"exponent {exp} is not below precision {prec}")
    window = [ctx.zero()] * (prec - exp)
    window[0] = coeff
    return SkewSeries(ctx, exp, window, prec)


def from_terms(ctx, terms, prec):
    """Series from (exponent, coefficient) pairs; duplicate exponents are summed."""
    merged = {}
    for e, c in terms:
        if e >= prec:
            raise ExponentBeyondPrecision(f"exponent {e} is not below precision {prec}")
        merged[e] = merged[e] + c if e in merged else c
    if not merged:
        return zero(ctx, prec)
    val = min(merged)
    window = [ctx.zero()] * (prec - val)
    for e, c in merged.items():
        window[e - val] = c
    return SkewSeries(ctx, val, window, prec)


def commutator(f, g):
    """[f, g] = f*g - g*f."""
    return f * g - g * f


def conjugate(f, u):
    """u * f * u^(-1); u must be invertible."""
    return u * f * u.inverse()
