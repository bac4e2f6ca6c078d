"""Exact linear algebra over small finite fields.

Gaussian elimination is generic over a scalar adapter (zero, one, add,
sub, mul, neg, inv): ``ModPScalars`` for GF(p) as residues and
``ZechScalars`` for GF(p^d) as ints on exp/log/Zech tables.  Both stand
for zero by the int 0 alone, so elimination tests a scalar for zero by its
truth value.  The field contexts eliminate over GF(p) alone: the
subfield k0, the normal-basis test and its inverse matrix, and the
sigma - 1 map where k0 = GF(p).  ``ZechScalars`` (with its ``pow``) is
the arithmetic of the table fields; the tests also eliminate over k0 on
it, as the oracle of the closed forms the order-4 set-up uses.
"""

from __future__ import annotations

from .errors import ZeroNotInvertible


class ModPScalars:
    """GF(p) scalars as plain ints."""

    __slots__ = ("p", "zero", "one")

    def __init__(self, p):
        self.p = p
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        return pow(a, -1, self.p)


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


def rref(rows, scalars):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = scalars.inv(rows[r][c])
        rows[r] = [scalars.mul(inv, v) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [scalars.sub(v, scalars.mul(f, w)) for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def pivot_rows(columns, scalars):
    """(pivots, rows) giving the particular solution of sum_j x[j]*columns[j] = rhs.

    Eliminating [columns | I] once records the row operations E.  For a
    consistent rhs, the solution whose free variables are zero has
    x[pivots[i]] = dot(rows[i], rhs), rows the first rank rows of E, and
    every other x[j] zero.  The rows of E below them, whose products with
    rhs vanish exactly when the system is consistent, are dropped: the
    caller checks a solution by its own means.
    """
    k, n = len(columns), len(columns[0])
    rows = [
        [col[i] for col in columns] + [scalars.one if i == j else scalars.zero for j in range(n)]
        for i in range(n)
    ]
    red, pivots = rref(rows, scalars)
    pivots = [c for c in pivots if c < k]
    return pivots, [row[k:] for row in red[: len(pivots)]]


def kernel_from_columns(columns, scalars):
    """Echelon basis of {x : sum_j x[j]*columns[j] = 0}."""
    k = len(columns)
    if k == 0:
        return []
    rows = [[col[i] for col in columns] for i in range(len(columns[0]))]
    red, pivots = rref(rows, scalars)
    basis = []
    for f in range(k):
        if f in pivots:
            continue
        v = [scalars.zero] * k
        v[f] = scalars.one
        for row, c in zip(red, pivots):
            v[c] = scalars.neg(row[f])
        basis.append(v)
    return basis


def rank_of_vectors(vectors, scalars):
    if not vectors:
        return 0
    return len(rref(vectors, scalars)[1])


def invert_matrix(rows, scalars):
    """Inverse of a square matrix given as a list of rows."""
    n = len(rows)
    aug = [
        list(r) + [scalars.one if i == j else scalars.zero for j in range(n)]
        for i, r in enumerate(rows)
    ]
    red, pivots = rref(aug, scalars)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]
