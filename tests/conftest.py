from itertools import chain

import pytest

from skewlaurent.decompose import _l_pair_ok
from skewlaurent.errors import DecompositionError, NotInL, SkewLaurentError, ZeroNotInvertible
from skewlaurent.field_tower import (
    _SEARCH_LIMIT,
    _STANDARD_POLYS,
    FiniteFieldCtx,
    RationalFunctionCtx,
    _kernel,
    _prime_factors,
)
from skewlaurent.packed import ZechScalars
from skewlaurent.skew_series import SkewSeries


@pytest.fixture(scope="session")
def gf25():
    return FiniteFieldCtx(2, 5)


@pytest.fixture(scope="session")
def gf35():
    return FiniteFieldCtx(3, 5)


@pytest.fixture(scope="session")
def gf28():
    return FiniteFieldCtx(2, 8)


@pytest.fixture(scope="session")
def gf34():
    return FiniteFieldCtx(3, 4)


@pytest.fixture(scope="session")
def gf24():
    return FiniteFieldCtx(2, 4)


@pytest.fixture(scope="session")
def gf58():
    """GF(5^8)/frob^2: order 4 over k0 = GF(25), on the packed backend."""
    return FiniteFieldCtx(5, 8, frob_power=2, modulus=(3, 2, 1, 0, 0, 0, 0, 0, 1))


@pytest.fixture(scope="session")
def gf312():
    """GF(3^12)/frob^3: order 4 over k0 = GF(27), on the packed backend."""
    return FiniteFieldCtx(3, 12, frob_power=3, modulus=(2, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1))


@pytest.fixture(scope="session")
def gf220():
    return FiniteFieldCtx(2, 20)


@pytest.fixture(scope="session")
def gf9():
    return FiniteFieldCtx(3, 2)


@pytest.fixture(scope="session")
def qt_shift():
    return RationalFunctionCtx("shift")


def nonzero_elem(ctx, rng):
    while True:
        a = ctx.random_elem(rng)
        if a:
            return a


def random_series(ctx, rng, val_lo=-8, val_hi=8, width=24, dense=True):
    """Random series with nonzero leading coefficient and prec = val + width."""
    val = rng.randint(val_lo, val_hi)
    coeffs = [
        nonzero_elem(ctx, rng) if dense else ctx.random_elem(rng) for _ in range(width)
    ]
    coeffs[0] = nonzero_elem(ctx, rng)
    return SkewSeries(ctx, val, coeffs, val + width)


def sigma_degree(ctx, a, cap):
    """Least j in 1..cap with sigma^j(a) = a, or None if there is none."""
    b = a
    for j in range(1, cap + 1):
        b = ctx.sigma(b, 1)
        if b == a:
            return j
    return None


# ---------------------------------------------------------------------------
# Gaussian elimination generic over a scalar adapter (zero, one, add, sub,
# mul, neg, inv), one adapter call per entry: the oracle of the packed-row
# elimination in skewlaurent.linalg, over GF(p) on ModPScalars, and the
# tests' elimination over k0 on ZechScalars.


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


# ---------------------------------------------------------------------------
# Zech tables by a generator walk, and the k0-linear algebra over k0
# scalars: the oracles of the table fields' walk over x, of the fields that
# run on the packed kernel instead, and of the closed forms the library uses
# for the order-4 set-up.


def log_tables(p, q, candidates, mul, add, pow_, index):
    """``ZechScalars`` for GF(q), q = p^d, from its arithmetic in another form.

    The generator is the first of the nonzero candidates whose power
    (q-1)/r is not 1 for any prime r dividing q - 1 (1 stands for one).
    Its powers are walked with mul, 1 + g^i is taken with add, and index
    gives the int that stands for each element in the tables.
    """
    qm1 = q - 1
    d = 1
    while p**d < q:
        d += 1
    fac = _prime_factors(qm1)
    gen = next(g for g in candidates if all(pow_(g, qm1 // r) != 1 for r in fac))
    powers = [1]
    for _ in range(qm1 - 1):
        powers.append(mul(powers[-1], gen))
    return ZechScalars(p, d, [index(v) for v in powers], [index(add(1, v)) for v in powers])


def kernel_walk_tables(p, m, mod):
    """The Zech tables of GF(p)[x]/(mod) on base-p ints, walked over the
    packed kernel from the first generator in base-p order past GF(p)."""
    q = p**m
    kern = _kernel(p, m, mod)

    def to_base_p(v):
        out = 0
        for d in reversed(kern.digits(v)):
            out = out * p + d
        return out

    candidates = map(kern.from_base_p, chain(range(p, q), range(2, p)))
    return log_tables(p, q, candidates, kern.mul, kern.add, kern.pow, to_base_p)


def k0_scalars(ctx):
    """The scalar arithmetic of k0 on the ints of ctx.k0_vec: residues mod
    p when d = 1, else Zech tables walked over the k0 elements, the int c
    standing for ctx.k0_scalar_to_elem(c)."""
    if ctx.subfield_degree == 1:
        return ModPScalars(ctx.p)
    elems = [ctx.k0_scalar_to_elem(c).value for c in ctx.k0_scalar_elements()]
    pos = {v: c for c, v in enumerate(elems)}
    return log_tables(ctx.p, len(elems), elems[1:], ctx._mul, ctx._add, ctx._pow, pos.__getitem__)


def k0_rank(ctx, elems):
    """Dimension of the k0-span of elems."""
    return rank_of_vectors([ctx.k0_vec(a) for a in elems], k0_scalars(ctx))


def k0_independent(ctx, elems):
    """Whether elems are linearly independent over k0."""
    return k0_rank(ctx, elems) == len(elems)


def _dot(row, vec, scalars):
    acc = scalars.zero
    for a, b in zip(row, vec):
        acc = scalars.add(acc, scalars.mul(a, b))
    return acc


def particular_solver(columns, scalars):
    """The particular solution x of sum_j x[j]*columns[j] = rhs (free
    variables zero), or None, for fixed (nonempty) columns, as a function
    of rhs: the elimination oracle of the k0-linear algebra.

    Eliminating [columns | I] once records the row operations E; then
    E*rhs holds the pivot values on top and, below them, entries that
    all vanish exactly when the system is consistent.
    """
    k, n = len(columns), len(columns[0])
    rows = [
        [col[i] for col in columns] + [scalars.one if i == j else scalars.zero for j in range(n)]
        for i in range(n)
    ]
    red, pivots = rref(rows, scalars)
    pivots = [c for c in pivots if c < k]
    ops = [row[k:] for row in red]
    rank = len(pivots)

    def solve(rhs):
        out = [_dot(row, rhs, scalars) for row in ops]
        if any(out[rank:]):
            return None
        x = [scalars.zero] * k
        for c, v in zip(pivots, out):
            x[c] = v
        return x

    return solve


class NotInSpan(SkewLaurentError):
    """Element is not in the k0-span of the given basis."""


def coords(ctx, a, basis):
    """Coordinates of a against a k0-independent basis, or NotInSpan."""
    cols = [ctx.k0_vec(b) for b in basis]
    sol = particular_solver(cols, k0_scalars(ctx))(ctx.k0_vec(a))
    if sol is None:
        raise NotInSpan("element is not in the k0-span of the given basis")
    return sol


def l_coords(o4, a):
    """Coordinates of a against o4.l_basis, or NotInL."""
    try:
        return coords(o4.ctx, a, o4.l_basis)
    except NotInSpan as exc:
        raise NotInL("element is not in the image of sigma - 1") from exc


def from_l_coords(o4, cs):
    """The element with coordinates cs (k0 scalars) against o4.l_basis."""
    ctx = o4.ctx
    out = ctx.zero()
    for c, b in zip(cs, o4.l_basis):
        out = out + ctx.k0_scalar_to_elem(c) * b
    return out


def l_pair_oracle(o4, a0, b0, t, acc):
    """(b, c) in L with a0*c + b*sigma^t(b0) = acc by elimination over k0:
    the particular solution on the coordinates of c, then of b, against
    o4.l_basis; None when there is none."""
    ctx = o4.ctx
    s = ctx.sigma(b0, t % 4)
    cols = [ctx.k0_vec(a0 * l) for l in o4.l_basis] + [ctx.k0_vec(l * s) for l in o4.l_basis]
    sol = particular_solver(cols, k0_scalars(ctx))(ctx.k0_vec(acc))
    if sol is None:
        return None
    return from_l_coords(o4, sol[3:]), from_l_coords(o4, sol[:3])


def sigma_minus_one_oracle(ctx):
    """c -> z with sigma(z) - z = c by elimination over k0 against
    ctx.k0_vec_basis(), free coordinates zero; None for c outside L."""
    basis = ctx.k0_vec_basis()
    solve = particular_solver([ctx.k0_vec(ctx.sigma(b, 1) - b) for b in basis], k0_scalars(ctx))

    def preimage(c):
        sol = solve(ctx.k0_vec(c))
        if sol is None:
            return None
        out = ctx.zero()
        for x, b in zip(sol, basis):
            out = out + ctx.k0_scalar_to_elem(x) * b
        return out

    return preimage


def l_pair_elimination_oracle(o4, c):
    """factor_into_l_pair by elimination over k0, for c outside k1 and
    nonzero: (a, b) and the kind of c, "sigma2-fixed" when sigma^2 fixes
    it, else "t1 != 0" or "t1 = 0" by the trace t1 = Tr(c*e2).

    The candidates z = x0*e2 + x1*sigma(e2) are one per k0-line of the
    kernel: of the 1x2 system of the first k0-coordinates of Tr(c*e2) and
    Tr(c*sigma(e2)), or of all of k0^2 for sigma^2-fixed c, in the
    echelon basis's order: its first vector, then the second plus lam
    times the first for every scalar lam in k0_scalar_elements() order.
    """
    ctx = o4.ctx
    e2, se2 = o4.k2_basis
    scalars = k0_scalars(ctx)
    fixed = ctx.sigma(c, 2) == c
    if fixed:
        kind = "sigma2-fixed"
        basis = [(scalars.one, scalars.zero), (scalars.zero, scalars.one)]
    else:
        cols = [(ctx.k0_vec(ctx.k0_trace(c * b))[0],) for b in (e2, se2)]
        kind = "t1 != 0" if cols[0][0] else "t1 = 0"
        basis = kernel_from_columns(cols, scalars)
    lines = basis[:1]
    if len(basis) > 1:
        v1, v2 = basis
        for lam in ctx.k0_scalar_elements():
            lines.append([scalars.add(b, scalars.mul(lam, a)) for a, b in zip(v1, v2)])
    for x0, x1 in lines:
        z = ctx.k0_scalar_to_elem(x0) * e2 + ctx.k0_scalar_to_elem(x1) * se2
        if not z:
            continue
        a, b = (z, z.inverse() * c) if fixed else (z.inverse(), c * z)
        if _l_pair_ok(o4, a, b, c):
            return (a, b), kind
    raise DecompositionError("no valid L-pair factorisation was found")


# Rabin's test by m calls of kern.pow, and the modulus search with it on
# every candidate: the oracles of the Frobenius-map test and of the search
# that rejects candidates with a root in GF(p) first.


def pow_rabin(mod, p):
    """Rabin's test for a monic f over GF(p), x^(p^i) by repeated pow."""
    m = len(mod) - 1
    if m < 1:
        return False
    if m == 1:
        return True
    kern = _kernel(p, m, mod)
    frob = [kern.x]  # frob[i] = x^(p^i) mod f
    for _ in range(m):
        frob.append(kern.pow(frob[-1], p))
    if frob[m] != kern.x:
        return False
    try:
        for r in _prime_factors(m):
            kern.inv(kern.add(frob[m // r], kern.neg(kern.x)))
    except ZeroNotInvertible:
        return False
    return True


def search_oracle(p, m):
    """The first monic f of degree m that pow_rabin accepts among the
    first _SEARCH_LIMIT candidates, scanned constant-first; None when
    there is none."""
    for v in range(min(p**m, _SEARCH_LIMIT)):
        cs = []
        for _ in range(m):
            v, d = divmod(v, p)
            cs.append(d)
        if pow_rabin(tuple(cs) + (1,), p):
            return tuple(cs) + (1,)
    return None


def default_modulus_oracle(p, m):
    return _STANDARD_POLYS.get((p, m)) or search_oracle(p, m)


# Polynomials over GF(p) as digit tuples, ascending degree, trailing zeros
# trimmed: a schoolbook reference that shares no code with the library.


def _ptrim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def pdivmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = pow(b[-1], -1, p)
    for i in range(len(a) - len(b), -1, -1):
        c = (a[i + len(b) - 1] * inv_lead) % p
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                a[i + j] = (a[i + j] - c * bj) % p
    return _ptrim(q), _ptrim(a)


# Series references on a dict of exponents, one ctx.sigma(g_j, i) call per
# coefficient pair: they share no loop with SkewSeries or the contexts'
# series kernels.


def _terms(f):
    """{exponent: coefficient} of the nonzero terms of f."""
    return {f.val + idx: c for idx, c in enumerate(f.coeffs) if c}


def _series(ctx, terms, prec):
    terms = {e: c for e, c in terms.items() if e < prec and c}
    if not terms:
        return SkewSeries(ctx, prec, (), prec)
    val = min(terms)
    return SkewSeries(ctx, val, [terms.get(e, ctx.zero()) for e in range(val, prec)], prec)


def reference_sum(f, g, sign=1):
    """f + g (sign 1) or f - g (sign -1)."""
    ctx = f.ctx
    out = dict(_terms(f))
    for e, c in _terms(g).items():
        c = c if sign == 1 else -c
        out[e] = out[e] + c if e in out else c
    return _series(ctx, out, min(f.prec, g.prec))


def reference_product(f, g):
    """f*g: sum over pairs of f_i * sigma^i(g_j) at x^(i+j)."""
    ctx = f.ctx
    prec = min(f.prec + g.val, g.prec + f.val)
    out = {}
    for i, fi in _terms(f).items():
        for j, gj in _terms(g).items():
            if i + j < prec:
                c = fi * ctx.sigma(gj, i)
                out[i + j] = out[i + j] + c if i + j in out else c
    return _series(ctx, out, prec)


def reference_inverse(f):
    """The right inverse h of f (f*h = 1), solved term by term.

    With s = f.val, (f*h)_e = f_s*sigma^s(h_(e-s)) + sum_(i>s) f_i*sigma^i(h_(e-i)),
    so each h_j follows from the h_k with k < j.
    """
    ctx = f.ctx
    s = f.val
    fs = _terms(f)
    lead_inv = fs[s].inverse()
    prec = f.prec - 2 * s
    h = {}
    for j in range(-s, prec):
        acc = ctx.one() if j == -s else ctx.zero()
        for i, fi in fs.items():
            k = j + s - i
            if i > s and k in h:
                acc = acc - fi * ctx.sigma(h[k], i)
        h[j] = ctx.sigma(lead_inv * acc, -s)
    return _series(ctx, h, prec)
