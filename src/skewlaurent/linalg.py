"""Exact linear algebra over GF(p), and the scalars of the table fields.

Gaussian elimination runs on packed rows: one int per row, column j in
slot j.  For p = 2 a slot is one bit and a row operation one XOR.  For
odd p a slot is as wide as ``slot_codec(p, 2)`` makes it, which holds
a + (p - c)*b for residues a, b and c, so the row operation
row_i - c*row_r is one big-int multiply-add, reduced by one split/join
(simultaneous modular reduction; Dumas, Fousse and Salvy, JSC 2011).
The reduced row echelon form is unique, so every result equals that of
elimination entry by entry.  The field contexts eliminate over GF(p)
alone: the subfield k0, the normal-basis test and its inverse matrix,
and the sigma - 1 map where k0 = GF(p).  ``ZechScalars`` (with its
``pow``) is the arithmetic of the table fields; the tests also
eliminate over k0 on it, as the oracle of the closed forms the order-4
set-up uses.
"""

from __future__ import annotations

from .errors import ZeroNotInvertible
from .packed import slot_codec


class ZechScalars:
    """GF(p^d) scalars as ints in [0, p^d), on exp/log/Zech tables.

    ``exp[i]`` is the int standing for g^i, g a generator of the
    multiplicative group, and ``one_plus[i]`` the int standing for
    1 + g^i.  The meaning of the ints is fixed by whoever builds the
    tables; 0 always stands for 0 and ``one`` for 1.  The Zech table
    holds the log of 1 + g^i, -1 when that is 0.
    """

    __slots__ = ("zero", "one", "_exp", "_log", "_log1p", "_qm1", "_neg_log")

    def __init__(self, p, exp, one_plus):
        qm1 = len(exp)
        log = [-1] * (qm1 + 1)  # 0 has no log
        for i, v in enumerate(exp):
            log[v] = i
        self.zero = 0
        self.one = exp[0]
        self._exp, self._log, self._qm1 = exp, log, qm1
        self._log1p = list(map(log.__getitem__, one_plus))
        self._neg_log = 0 if p == 2 else qm1 // 2

    # Logs differ by less than q - 1, so a negative index into a table of
    # length q - 1 reduces them mod q - 1, and so does subtracting q - 1
    # from a sum of two logs.

    def add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        log = self._log
        la = log[a]
        z = self._log1p[log[b] - la]
        if z < 0:
            return 0
        return self._exp[la + z - self._qm1]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if a and b:
            log = self._log
            return self._exp[log[a] + log[b] - self._qm1]
        return 0

    def neg(self, a):
        if a == 0:
            return 0
        return self._exp[(self._log[a] + self._neg_log) % self._qm1]

    def inv(self, a):
        if a == 0:
            raise ZeroNotInvertible("0 has no inverse")
        return self._exp[-self._log[a] % self._qm1]

    def pow(self, a, k):
        if a == 0:
            if k > 0:
                return 0
            if k == 0:
                return self.one
            raise ZeroNotInvertible("0 has no negative powers")
        return self._exp[self._log[a] * k % self._qm1]

    def power_table(self, k):
        """The list of a^k over every int a in [0, q), for k > 0.

        A power map permutes the logs: (g^i)^k = g^(i*k mod (q - 1)).
        """
        exp, qm1 = self._exp, self._qm1
        out = [exp[i * k % qm1] for i in self._log]
        out[0] = 0
        return out


def _row_codec(p):
    """(bits, pack, split) of rows over GF(p), one slot of bits per column:
    pack takes residues to a packed row, split(v, n) gives the first n
    slots of v mod p.  Odd p take the slots of slot_codec(p, 2), which
    hold a + (p - c)*b for residues a, b and c."""
    if p == 2:
        return 1, _pack_bits, _split_bits
    bits, split, join = slot_codec(p, 2)
    return bits, join, split


def _pack_bits(ds):
    return sum(d << j for j, d in enumerate(ds))


def _split_bits(v, n):
    return [v >> j & 1 for j in range(n)]


def _eliminate(rows, p, unit=False):
    """The reduced row echelon form over GF(p) of rows, or of [rows | I]
    when unit, on packed rows: (rows, pivot columns, split, bit offset of I)."""
    bits, pack, split = _row_codec(p)
    k, n = len(rows[0]) if rows else 0, len(rows)
    off, mask = bits * k, (1 << bits) - 1
    ncols = k + n if unit else k
    rows = [pack(r) | (1 << off + bits * i if unit else 0) for i, r in enumerate(rows)]
    pivots = []
    for c in range(ncols):
        r, shift = len(pivots), bits * c
        if r == n:
            break
        for i in range(r, n):
            if rows[i] >> shift & mask:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        piv = rows[r]
        lead = piv >> shift & mask
        if lead != 1:
            piv = rows[r] = pack(split(piv * pow(lead, -1, p), ncols))
        for i in range(n):
            f = rows[i] >> shift & mask
            if f and i != r:  # row_i - f*row_r: an XOR for p = 2
                rows[i] = rows[i] ^ piv if p == 2 else pack(split(rows[i] + (p - f) * piv, ncols))
        pivots.append(c)
    return rows, pivots, split, off


def rref(rows, p):
    """Reduced row echelon form over GF(p) of rows of residues; returns
    (rows, pivot column indices)."""
    red, pivots, split, _ = _eliminate(rows, p)
    return [list(split(v, len(rows[0]))) for v in red], pivots


def pivot_rows(columns, p):
    """(pivots, rows) giving the particular solution of sum_j x[j]*columns[j] = rhs.

    Eliminating [A | I], A the matrix of the columns, records the row
    operations E.  For a consistent rhs, the solution whose free
    variables are zero has x[pivots[i]] = dot(rows[i], rhs), rows the
    first rank rows of E, and every other x[j] zero.  The rows of E below
    them, whose products with rhs vanish exactly when the system is
    consistent, are dropped: the caller checks a solution by its own
    means.
    """
    k, n = len(columns), len(columns[0])
    red, pivots, split, off = _eliminate(list(zip(*columns)), p, unit=True)
    pivots = [c for c in pivots if c < k]
    return pivots, [list(split(v >> off, n)) for v in red[: len(pivots)]]


def kernel_from_columns(columns, p):
    """Echelon basis of {x : sum_j x[j]*columns[j] = 0}."""
    k = len(columns)
    red, pivots = rref(list(zip(*columns)), p)
    basis = []
    for f in range(k):
        if f not in pivots:
            v = [0] * k
            v[f] = 1
            for row, c in zip(red, pivots):
                v[c] = -row[f] % p
            basis.append(v)
    return basis


def rank_of_vectors(vectors, p):
    return len(_eliminate(vectors, p)[1])


def invert_matrix(rows, p):
    """Inverse of a square matrix over GF(p) given as a list of rows."""
    n = len(rows)
    red, pivots, split, off = _eliminate(rows, p, unit=True)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [list(split(v >> off, n)) for v in red]
