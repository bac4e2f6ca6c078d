import pytest

from skewlaurent.errors import NotInL, NotInSpan
from skewlaurent.field_tower import FiniteFieldCtx, RationalFunctionCtx
from skewlaurent.linalg import particular_solver, rank_of_vectors
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
    fc = o4.full_coords(a)
    if not o4.ctx.k0_scalars().is_zero(fc[3]):
        raise NotInL("element is not in the image of sigma - 1")
    return fc[:3]


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
