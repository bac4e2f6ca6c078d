"""Writing a skew Laurent series as a product of two commutators.

Every nonzero series f (and zero too, trivially) over k((sigma;x)) is
decomposed as

    f = [b1, w1] * [b2, w2] + O(x^prec),

where the four witnesses are again skew Laurent series.  The route
depends on the order of sigma:

* infinite order: peel off a central-free power of x and lift both
  factors through the bracket with the designated moved element;
* order n >= 5: split the valuation s = u + v so that n divides none of
  u, v, u - v, factor f accordingly, and lift both factors through the
  bracket with a normal-basis element;
* order 4: as above when the valuation is not 2 mod 4; otherwise factor
  f into two series whose coefficients lie in L = Im(sigma - 1) and lift
  both through the bracket with x itself; when the leading coefficient
  sits in the obstruction line k1, f is first conjugated by a constant u
  and the witnesses are conjugated back by u^(-1);
* orders 2 and 3 are rejected (UnsupportedOrder) for a nonzero f; a
  zero f gets a ZeroInput certificate whatever the order.

Both factorisations f = g*h share one triangular loop, _factor.  It runs
on the raw values of the context's seam, as the series kernels do (see
FieldCtx), and keeps the images of each coefficient of h under the
powers of sigma in a list from the moment it is set, so each image is
mapped once.  On odd-p packed fields its sums switch to delayed
reduction once they are long enough.  bracket_preimage inverts
b - sigma^j(b) once per residue of j mod n, and divides on raw values
too.

The order-4 L route runs no k0 linear algebra per coefficient: each
step of its factorisation is a trace formula that gives the particular
solution elimination over k0 would give (l_pair_step), and
x_bracket_preimage applies the field's precomputed sigma - 1 preimage map.

The resulting Certificate is self-contained and re-checkable: verify
multiplies the commutators back out and compares coefficients below
check_prec.  decompose() verifies every certificate before returning it.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass

from .errors import (
    DecompositionError,
    IdentityAutomorphism,
    K1Input,
    K1Leading,
    NoSplit,
    UnsupportedOrder,
    WitnessFixed,
    ZeroInput,
)
from .skew_series import SkewSeries, commutator, term, zero

_CONJ_SEED = "conjugator-search"
# every route decompose() can name in a certificate
METHODS = (
    "InfiniteWitness",
    "DegreeAtLeast5",
    "Order4Split",
    "Order4L",
    "Order4Conjugated",
    "ZeroInput",
)


@dataclass(frozen=True)
class Certificate:
    """A decomposition f = [b1, w1]*[b2, w2] + O(x^check_prec)."""

    input: SkewSeries
    pairs: tuple
    method: str
    check_prec: int
    experimental: bool = False

    @property
    def ctx(self):
        return self.input.ctx


def certificate_problem(cert):
    """Why cert fails to verify, as one line of text, or None when it verifies.

    A certificate must name one of the known METHODS, claim exactly the
    input's precision (a lower claim can make the comparison vacuous),
    hold two pairs, and multiply back out to the input at every exponent
    below check_prec; the first differing exponent is named.  Mixing
    coefficient fields raises FieldMismatch.
    """
    f = cert.input
    if cert.method not in METHODS:
        return f"unknown method {cert.method!r}"
    if cert.check_prec != f.prec:
        return f"claimed precision O(x^{cert.check_prec}) is not the input's O(x^{f.prec})"
    if len(cert.pairs) != 2:
        return f"expected 2 commutator pairs, found {len(cert.pairs)}"
    brackets = []
    for b, w in cert.pairs:
        f._check_ctx(b)
        f._check_ctx(w)
        brackets.append(commutator(b, w))
    prod = brackets[0] * brackets[1]
    if prod.prec < cert.check_prec:
        return (
            f"commutator product is known only to O(x^{prod.prec}), "
            f"below the claimed O(x^{cert.check_prec})"
        )
    lo = min(prod.val, f.val)
    first = next((e for e in range(lo, cert.check_prec) if prod._coeff(e) != f._coeff(e)), None)
    if first is None:
        return None
    return f"commutator product does not reproduce the input: first difference at x^{first}"


def verify_certificate(cert):
    """True when certificate_problem(cert) finds nothing wrong."""
    return certificate_problem(cert) is None


# ---------------------------------------------------------------------------
# bracket preimages: solve [b, w] = g


def bracket_preimage(b, g):
    """w with [b*x^0, w] = g, coefficient by coefficient.

    Since coefficients commute, [b, c*x^j] = (b - sigma^j(b))*c*x^j, so
    each coefficient of g is divided by b - sigma^j(b), on raw values.
    That difference depends on j only mod n at finite order n, so it is
    inverted once per residue (once per exponent at infinite order).
    Requires sigma^j(b) != b for every exponent j in the support of g;
    otherwise WitnessFixed(j) is raised for the first such j.
    """
    ctx = g.ctx
    n = ctx.sigma_order
    mul = ctx._mul
    invs = {}  # j mod n (j at infinite order) -> raw (b - sigma^j(b))^(-1)
    out = ctx._unwrap(g.coeffs)
    for idx, c in enumerate(out):
        if not c:
            continue
        j = g.val + idx
        key = j % n if n else j
        d_inv = invs.get(key)
        if d_inv is None:
            d = b - ctx.sigma(b, j)
            if not d:
                raise WitnessFixed(j, f"sigma^{j} fixes the chosen witness")
            d_inv = invs[key] = ctx._inv(ctx._unwrap((d,))[0])
        out[idx] = mul(d_inv, c)
    return SkewSeries(ctx, g.val, ctx._wrap(out), g.prec)


def x_bracket_preimage(g):
    """w with [x, w] = g, for g whose coefficients all lie in Im(sigma - 1).

    [x, z*x^(i-1)] = (sigma(z) - z)*x^i, so each coefficient is lifted
    through sigma - 1, on raw values by the context's preimage map, and
    shifted one slot left.  NotInL for a coefficient outside Im(sigma - 1).
    """
    ctx = g.ctx
    preimage = ctx._sigma_minus_one()
    out = [preimage(c) if c else c for c in ctx._unwrap(g.coeffs)]
    return SkewSeries(ctx, g.val - 1, ctx._wrap(out), g.prec - 1)


# ---------------------------------------------------------------------------
# infinite order


def _pairs_infinite(f):
    ctx = f.ctx
    s = f.val
    prec = f.prec
    n = -abs(s) - 1
    m = s - n  # >= 1, so x^n and the shifted remainder both miss exponent 0
    t = ctx.find_witness(1)
    shifted = SkewSeries(
        ctx, m, [ctx.sigma(c, -n) for c in f.coeffs], prec - n
    )
    w1 = bracket_preimage(t, term(ctx, ctx.one(), n, prec - m))
    w2 = bracket_preimage(t, shifted)
    b = term(ctx, t, 0, prec - s)
    return ((b, w1), (b, w2)), "InfiniteWitness"


# ---------------------------------------------------------------------------
# finite order >= 4, valuation splittable


def split_exponent(s, n):
    """u + v = s with n dividing none of u, v, u - v.

    No such split exists when n = 4 and s = 2 mod 4 (NoSplit); orders
    below 4 are rejected outright.
    """
    if n < 4:
        raise UnsupportedOrder(n, f"no exponent split for sigma of order {n}")
    r = s % n
    if n == 4 and r == 2:
        raise NoSplit("s = 2 mod 4 admits no split avoiding multiples of 4")
    if r in (n - 1, n - 2):
        return s - 1, 1
    return s + 1, -1


def _factor(f, u, b0, c0, step):
    """f = g*h with val(g) = u, solved in pull order; h has valuation v = val(f) - u.

    With b_t the coefficient of x^(u+t) in g and c_t = sigma^u(coefficient
    of x^(v+t) in h), f's coefficient at x^(val(f)+t) is the sum over r of
    b_r*sigma^r(c_(t-r)).  From b_0 = b0, c_0 = c0, step(t, acc) returns
    (b_t, c_t) with b0*c_t + b_t*sigma^t(c0) = acc, f's coefficient less
    the terms with 0 < r < t.  b0, c0, acc and what step returns are raw
    values of the context's seam (see FieldCtx); sigma has finite order n.
    The sum runs over the nonzero c_j alone, and each keeps its images
    under sigma^0, ..., sigma^(k-1), k = min(n, width - j), from the moment
    it is set, repeated up to the width so that sigma^r(c_j) is read at
    position r: each image is mapped once, and only those the sums and h
    can read.
    Where the context binds _wide (see FieldCtx), the sums turn delayed
    once they are long enough to repay it: each b_r and the images of each
    c_j are lifted once, and the sum for t is one plain-int sum of
    products, reduced once.  In units of one field product, each step
    left then saves about live - 2.5 (the loop takes up to live - 1
    products, a delayed step about 1.5 for its reduction and lifts), and
    the switch lifts about t + n*live values at a quarter each.
    g has precision prec - v and h has precision prec - u.
    """
    ctx = f.ctx
    n = ctx.sigma_order
    add, neg, mul = ctx._add, ctx._neg, ctx._mul
    maps = [ctx._sigma_map(i) for i in range(1, n)]
    s = f.val
    width = f.prec - s
    fs = ctx._unwrap(f.coeffs)
    zero = ctx._unwrap((ctx.zero(),))[0]

    def images(c, k):
        base = [c] + [sig(c) for sig in maps[: min(n, k) - 1]]
        return (base * (k // n + 1))[:k]

    bs = [b0] + [zero] * (width - 1)
    live = []  # (j, images of c_j) for the nonzero c_j, j >= 1, ascending
    wide = ctx._wide
    lbs = diag = None  # the lifted b_r and c_j images, once the sums are delayed

    def place(j, img):
        # diag[t % n][j] is sigma^(t-j)(c_j) lifted: the sum for t pairs
        # lbs[t-1], ..., lbs[1] with diag[t % n][1], ..., diag[t % n][t-1]
        for r, x in enumerate(img[:n]):
            diag[(j + r) % n][j] = lift(x)

    for t in range(1, width):
        if diag is None:
            total = zero
            for j, img in live:
                b = bs[t - j]
                if b:
                    total = add(total, mul(b, img[t - j]))
            acc = add(fs[t], neg(total))
        else:
            total = sum(map(operator.mul, lbs[t - 1 : 0 : -1], diag[t % n][1:t]))
            acc = add(fs[t], neg(reduce(total))) if total else fs[t]
        bs[t], c = step(t, acc)
        if c:
            live.append((t, images(c, width - t)))
        if diag is not None:
            if bs[t]:
                lbs[t] = lift(bs[t])
            if c:
                place(*live[-1])
        elif c and wide is not None and (4 * len(live) - 10) * (width - t) >= t + n * len(live):
            # the saving above, times 4, against the switch; for a fixed
            # live count it only falls as t grows, so it is tested only
            # when a c_j joins
            lift, reduce = wide(width)
            lbs = [lift(b) if b else 0 for b in bs]
            diag = [[0] * width for _ in range(n)]
            for j, img in live:
                place(j, img)
    v = s - u
    ru = -u % n  # h's coefficient at x^(v+j) is sigma^(-u)(c_j)
    hs = [zero] * width
    for j, img in [(0, [c0])] + live:
        hs[j] = img[ru] if ru < len(img) else maps[ru - 1](img[0])
    g = SkewSeries(ctx, u, ctx._wrap(bs), f.prec - v)
    h = SkewSeries(ctx, v, ctx._wrap(hs), f.prec - u)
    return g, h


def factor_avoiding_multiples(f, u, v):
    """f = g*h with g, h supported away from exponents divisible by n.

    Needs val(f) = u + v and n dividing none of u, v, u - v.  At each
    step exactly one of the two candidate slots, x^(u+t) in g or x^(v+t)
    in h, survives the support constraint, so the triangular system
    stays solvable.  g has precision prec - v and h has precision
    prec - u.
    """
    ctx = f.ctx
    n = ctx.sigma_order
    if u + v != f.val:
        raise ValueError("split exponents must sum to the valuation")
    b0, one, zero = ctx._unwrap((f.coeffs[0], ctx.one(), ctx.zero()))
    b0_inv = ctx._inv(b0)
    mul = ctx._mul

    def step(t, acc):
        return (acc, zero) if (u + t) % n else (zero, mul(b0_inv, acc))

    return _factor(f, u, b0, one, step)


def _pairs_split(f, y, method):
    ctx = f.ctx
    u, v = split_exponent(f.val, ctx.sigma_order)
    g, h = factor_avoiding_multiples(f, u, v)
    b = term(ctx, y, 0, f.prec - f.val)
    return ((b, bracket_preimage(y, g)), (b, bracket_preimage(y, h))), method


# ---------------------------------------------------------------------------
# order 4, valuation 2 mod 4


def _l_pair_ok(o4, a, b, c):
    ctx = o4.ctx
    if a * b != c or not (o4.in_l(a) and o4.in_l(b)):
        return False
    # for a != 0, {a, s} is k0-dependent iff s*a^(-1) lies in k0 = Fix(sigma)
    a_inv = a.inverse()
    quotients = (ctx.sigma(b, i) * a_inv for i in range(4))
    return all(ctx.sigma(q, 1) != q for q in quotients)


def factor_into_l_pair(o4, c):
    """c = a*b with a, b in L and {a, sigma^i(b)} independent for all i.

    The candidates z lie in the plane k2, spanned by e2 and sigma(e2).
    For c that sigma^2 fixes both factors can be taken inside k2, a = z.
    Otherwise a = z^(-1) and b = c*z, where c*z must lie back inside L,
    the kernel of the trace to k0: with t1 = Tr(c*e2) and
    t2 = Tr(c*sigma(e2)), z = sigma(e2) - (t2/t1)*e2 when t1 != 0, else
    e2 and, if t2 = 0 too, every z.  The candidates are tried in the
    order of elimination over k0: that z, or e2 and then the lines
    lam*e2 + sigma(e2) for lam in k0_scalar_elements() order.
    The independence postcondition is what keeps the series-level
    factorisation solvable at every later coefficient, so it is checked
    here for each candidate and certified by construction.
    """
    ctx = o4.ctx
    if not c:
        raise ZeroInput("cannot factor zero into an L-pair")
    if o4.in_k1(c):
        raise K1Input("elements of k1 admit no L-pair factorisation")
    e2, se2 = o4.k2_basis
    lines = (ctx.k0_scalar_to_elem(lam) * e2 + se2 for lam in ctx.k0_scalar_elements())
    fixed = ctx.sigma(c, 2) == c
    if fixed:
        candidates = itertools.chain([e2], lines)
    else:
        t1, t2 = ctx.k0_trace(c * e2), ctx.k0_trace(c * se2)
        if t1:
            candidates = [se2 - t2 / t1 * e2]
        else:
            candidates = itertools.chain([e2], () if t2 else lines)
    for z in candidates:
        a, b = (z, z.inverse() * c) if fixed else (z.inverse(), c * z)
        if _l_pair_ok(o4, a, b, c):
            return a, b
    raise DecompositionError("no valid L-pair factorisation was found")


def factor_with_l_coeffs(f):
    """f = f1*f2 with every coefficient of f1 and of f2 inside L.

    Requires order 4 and a leading coefficient outside k1 (K1Leading
    otherwise).  f1 keeps the full precision of f; f2 has valuation 0
    and precision prec - val.
    """
    ctx = f.ctx
    o4 = ctx.build_order4_ctx()
    lead = f.coeffs[0]
    if o4.in_k1(lead):
        raise K1Leading("leading coefficient lies in k1; conjugate first")
    a0, b0 = factor_into_l_pair(o4, lead)
    return _factor(f, f.val, a0.value, b0.value, l_pair_step(o4, a0, b0))


def l_pair_step(o4, a0, b0):
    """The step of factor_with_l_coeffs: (b_t, c_t) in L with a0*c_t + b_t*s = acc.

    s = sigma^t(b0), and t, acc and what the step returns are raw values,
    as _factor passes them.  The pair is the particular solution that
    elimination over k0 gives: the unknowns are the coordinates of c_t,
    then of b_t, against l_basis = (l_0, l_1, l_2), the free ones zero.
    The three columns a0*l_i are independent, and they span
    a0*L = {u : Tr(u/a0) = 0}, so the only other pivot is the first l_k*s
    outside a0*L, the first k with Tr(l_k*lam) != 0, lam = s/a0.  Hence
    b_t = x*l_k for a scalar x of k0 and c_t = y - b_t*lam, y = acc/a0;
    c_t lies in L = ker Tr, and Tr is k0-linear, so x = Tr(y)/Tr(l_k*lam).
    Per residue of t mod 4 the step keeps lam and mu = l_k/Tr(l_k*lam),
    and per coefficient it takes y, b_t = Tr(y)*mu and c_t = y - b_t*lam.
    Without such a k the columns span only a0*L: acc/a0 must lie in L
    (b_t = 0, c_t = y), else DecompositionError.
    """
    ctx = o4.ctx
    add, neg, mul, trace = ctx._add, ctx._neg, ctx._mul, ctx._trace
    a0, b0, zero = ctx._unwrap((a0, b0, ctx.zero()))
    a0_inv = ctx._inv(a0)
    cases = []  # t mod 4 -> (lam, mu), mu None when no k exists
    for s in [b0] + [ctx._sigma_map(i)(b0) for i in range(1, 4)]:
        lam = mul(s, a0_inv)
        mu = None
        for l in ctx._unwrap(o4.l_basis):
            tr = trace(mul(l, lam))
            if tr:
                mu = mul(ctx._inv(tr), l)
                break
        cases.append((lam, mu))

    def step(t, acc):
        lam, mu = cases[t % 4]
        y = mul(acc, a0_inv)
        if mu is None:
            if trace(y):
                raise DecompositionError("L-pair independence failed mid-factorisation")
            return zero, y
        b = mul(trace(y), mu)
        return b, add(y, neg(mul(b, lam)))

    return step


def _pairs_order4_l(f):
    f1, f2 = factor_with_l_coeffs(f)
    # x^1 to the width prec - s of both witnesses: w1 from x^(s-1), w2 from x^-1
    x = term(f.ctx, f.ctx.one(), 1, f.prec - f.val + 1)
    return ((x, x_bracket_preimage(f1)), (x, x_bracket_preimage(f2))), "Order4L"


def _conjugator(f, o4):
    """A unit u with u*lead*sigma^s(u)^(-1) outside k1.

    The map u -> u*sigma^s(u)^(-1) is a nontrivial multiplicative
    character times the identity, so failures form a proper subgroup;
    the normal-basis element is tried first, then seeded random picks.
    """
    ctx = f.ctx
    lead = f.coeffs[0]
    s = f.val

    def good(u):
        return u and not o4.in_k1(lead * u * ctx.sigma(u, s).inverse())

    if good(o4.y):
        return o4.y
    rng = random.Random(f"{_CONJ_SEED}:{ctx.field_spec()}:{ctx.sigma_spec()}")
    for _ in range(256):
        u = ctx.random_elem(rng)
        if good(u):
            return u
    raise DecompositionError("no conjugator moved the leading coefficient off k1")


def _conjugated(f, a, a_inv):
    """a*f*a^(-1) for a constant a: c*x^i -> a*c*sigma^i(a^(-1))*x^i, same val and prec."""
    ctx = f.ctx
    coeffs = [a * c * ctx.sigma(a_inv, i) if c else c for i, c in enumerate(f.coeffs, f.val)]
    return SkewSeries(ctx, f.val, coeffs, f.prec)


def _pairs_order4_conjugated(f, o4):
    u = _conjugator(f, o4)
    u_inv = u.inverse()
    inner, _ = _pairs_order4_l(_conjugated(f, u, u_inv))
    pairs = tuple(
        (_conjugated(b, u_inv, u), _conjugated(w, u_inv, u)) for b, w in inner
    )
    return pairs, "Order4Conjugated"


def _pairs_order4(f):
    o4 = f.ctx.build_order4_ctx()
    if f.val % 4 != 2:
        return _pairs_split(f, o4.y, "Order4Split")
    if not o4.in_k1(f.coeffs[0]):
        return _pairs_order4_l(f)
    return _pairs_order4_conjugated(f, o4)


# ---------------------------------------------------------------------------
# dispatch


def _pairs_zero(f):
    ctx = f.ctx
    pz = max(f.prec, 1)
    b = term(ctx, ctx.gen(), 0, pz)
    w = zero(ctx, pz)
    return ((b, w), (b, w)), "ZeroInput"


def decompose(f):
    """Certificate that f is a product of two commutators, to f's precision.

    Raises UnsupportedOrder for a nonzero f when sigma has order 2 or 3,
    where no such certificate is constructed; a zero f gets a ZeroInput
    certificate at any order.  Certificates over order-4 fields of
    characteristic 2 are marked experimental (they are still verified).
    """
    ctx = f.ctx
    n = ctx.sigma_order
    if n == 1:
        raise IdentityAutomorphism("sigma is the identity; the ring is commutative")
    if f.is_zero:
        pairs, method = _pairs_zero(f)
    elif n is None:
        pairs, method = _pairs_infinite(f)
    elif n >= 5:
        # full-degree witness: sigma^j must move it for every j not divisible
        # by n, and the factor supports can hit any such j
        pairs, method = _pairs_split(f, ctx.find_witness(n), "DegreeAtLeast5")
    elif n == 4:
        pairs, method = _pairs_order4(f)
    else:
        raise UnsupportedOrder(
            n, f"sigma has order {n}; certificates need order at least 4"
        )
    cert = Certificate(
        input=f,
        pairs=pairs,
        method=method,
        check_prec=f.prec,
        experimental=bool(n == 4 and ctx.characteristic == 2),
    )
    if not verify_certificate(cert):
        raise DecompositionError(
            "internal failure: a constructed certificate did not verify"
        )
    return cert
