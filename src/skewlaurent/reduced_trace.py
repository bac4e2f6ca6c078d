"""The reduced trace, and the regular representation it comes from.

For sigma of finite order n, the series ring D is a free right module
over K = k((x^n)) with basis 1, x, ..., x^(n-1); K is commutative since
x^n commutes with every coefficient.  Left multiplication by f is a
right-K-linear map, and matrix_rep(f) is its matrix in that basis:

    f * x^j = sum_i x^i * entries[i][j],  entries[i][j] in K.

The map is multiplicative, so traces of commutators vanish.  The trace
of f collapses to the sigma-orbit sum Tr(a) = sum_(i<n) sigma^i(a) of
the coefficients a of f at exponents divisible by n, and reduced_trace
computes it in that closed form; matrix_rep stays as the oracle the
tests check it and multiplicativity against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InfiniteOrder
from .skew_series import from_terms


@dataclass(frozen=True)
class MatrixRep:
    """n x n matrix over K = k((x^n)), entries stored as skew series."""

    ctx: object
    entries: tuple

    @property
    def size(self):
        return len(self.entries)

    def __mul__(self, other):
        if not isinstance(other, MatrixRep):
            return NotImplemented
        n = self.size
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = None
                for l in range(n):
                    p = self.entries[i][l] * other.entries[l][j]
                    acc = p if acc is None else acc + p
                row.append(acc)
            rows.append(tuple(row))
        return MatrixRep(self.ctx, tuple(rows))


def _round_up(value, n):
    return n * (-(-value // n))


def matrix_rep(f):
    """Matrix of left multiplication by f on the basis 1, x, ..., x^(n-1).

    Entry (i, j) collects the terms a_m*x^(m+j) of f*x^j with m + j = i
    mod n, rewritten as x^i * sigma^(-i)(a_m) * x^(m+j-i).  It is known
    below the first multiple of n at or beyond f.prec + j - i.
    """
    ctx = f.ctx
    n = ctx.sigma_order
    if n is None:
        raise InfiniteOrder("matrix representation requires sigma of finite order")
    cells = [[[] for _ in range(n)] for _ in range(n)]
    for idx, a in enumerate(f.coeffs):
        if not a:
            continue
        m = f.val + idx
        for j in range(n):
            e = m + j
            i = e % n
            cells[i][j].append((e - i, ctx.sigma(a, -i)))
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            prec = _round_up(f.prec + j - i, n)
            row.append(from_terms(ctx, cells[i][j], prec))
        rows.append(tuple(row))
    return MatrixRep(ctx, tuple(rows))


def reduced_trace(f):
    """Trace of the regular representation, a series supported on n*Z.

    The coefficient at x^e, n dividing e, is Tr(a_e) = sum_(i<n)
    sigma^i(a_e), at precision f.prec rounded up to a multiple of n; in
    particular it kills every commutator.
    """
    ctx = f.ctx
    n = ctx.sigma_order
    if n is None:
        raise InfiniteOrder("matrix representation requires sigma of finite order")
    terms = [(e, ctx.k0_trace(a)) for e, a in enumerate(f.coeffs, f.val) if a and e % n == 0]
    return from_terms(ctx, terms, _round_up(f.prec, n))
