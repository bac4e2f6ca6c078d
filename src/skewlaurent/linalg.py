"""Exact linear algebra over GF(p): Gaussian elimination on packed rows.

A row is one int, column j in slot j.  For p = 2 a slot is one bit and a
row operation one XOR.  For odd p a slot is as wide as
``slot_codec(p, 2)`` makes it, which holds a + (p - c)*b for residues a,
b and c, so the row operation row_i - c*row_r is one big-int
multiply-add, reduced by one split/join (simultaneous modular reduction;
Dumas, Fousse and Salvy, JSC 2011).  The reduced row echelon form is
unique, so every result equals that of elimination entry by entry.  The
field contexts eliminate only while they set up: the subfield k0, the
normal-basis test and the inverse behind the k0-coordinates.
"""

from __future__ import annotations

from .packed import slot_codec


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
