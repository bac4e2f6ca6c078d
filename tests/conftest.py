import pytest

from skewlaurent.errors import NotInL, SkewLaurentError
from skewlaurent.field_tower import FiniteFieldCtx, RationalFunctionCtx
from skewlaurent.linalg import rank_of_vectors, rref
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


def k0_rank(ctx, elems):
    """Dimension of the k0-span of elems."""
    return rank_of_vectors([ctx.k0_vec(a) for a in elems], ctx.k0_scalars())


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
    scalars = ctx.k0_scalars()
    cols = [ctx.k0_vec(b) for b in basis]
    sol = particular_solver(cols, scalars)(ctx.k0_vec(a))
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
    sol = particular_solver(cols, ctx.k0_scalars())(ctx.k0_vec(acc))
    if sol is None:
        return None
    return from_l_coords(o4, sol[3:]), from_l_coords(o4, sol[:3])


def sigma_minus_one_oracle(ctx):
    """c -> z with sigma(z) - z = c by elimination over k0 against
    ctx.k0_vec_basis(), free coordinates zero; None for c outside L."""
    basis = ctx.k0_vec_basis()
    solve = particular_solver([ctx.k0_vec(ctx.sigma(b, 1) - b) for b in basis], ctx.k0_scalars())

    def preimage(c):
        sol = solve(ctx.k0_vec(c))
        if sol is None:
            return None
        out = ctx.zero()
        for x, b in zip(sol, basis):
            out = out + ctx.k0_scalar_to_elem(x) * b
        return out

    return preimage


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
