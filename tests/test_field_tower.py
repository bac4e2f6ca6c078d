"""Field contexts: arithmetic, automorphisms, and k0-linear algebra."""

import gc
import random
import weakref
from fractions import Fraction
from itertools import product
from math import gcd
from operator import add, mul, sub

import pytest

from skewlaurent.errors import (
    CoefficientTooLarge,
    FieldSpecError,
    IdentityAutomorphism,
    InfiniteOrder,
    NoWitness,
    NotInL,
    ZeroNotInvertible,
)
from skewlaurent.field_tower import (
    _STANDARD_POLYS,
    _is_irreducible,
    _kernel,
    _prime_factors,
    _x_tables,
    _zgcd,
    FiniteFieldCtx,
    RationalFunctionCtx,
    default_modulus,
)
from skewlaurent.linalg import ZechScalars
from skewlaurent.packed import PackedField
from skewlaurent.skew_series import from_terms

from conftest import (
    NotInSpan,
    coords,
    k0_independent,
    k0_rank,
    k0_scalars,
    kernel_walk_tables,
    l_coords,
    nonzero_elem,
    particular_solver,
    pdivmod,
    sigma_degree,
    sigma_minus_one_oracle,
)


# ---------------------------------------------------------------------------
# construction and validation


def test_bad_specs_rejected():
    with pytest.raises(FieldSpecError):
        FiniteFieldCtx(4, 2)
    with pytest.raises(FieldSpecError):
        FiniteFieldCtx(3, 0)
    with pytest.raises(FieldSpecError):
        FiniteFieldCtx(3, 4, frob_power=0)
    # non-monic modulus
    with pytest.raises(FieldSpecError):
        FiniteFieldCtx(3, 2, modulus=(2, 2, 2))
    # x^2 + 1 = (x + 1)^2 over GF(2)
    with pytest.raises(FieldSpecError):
        FiniteFieldCtx(2, 2, modulus=(1, 0, 1))
    with pytest.raises(FieldSpecError):
        RationalFunctionCtx("shift", scale=Fraction(2))
    with pytest.raises(FieldSpecError):
        RationalFunctionCtx("scale", scale=Fraction(1))
    with pytest.raises(FieldSpecError):
        RationalFunctionCtx("twist")


def test_identity_automorphism_rejected():
    with pytest.raises(IdentityAutomorphism):
        FiniteFieldCtx(2, 1)
    with pytest.raises(IdentityAutomorphism):
        FiniteFieldCtx(3, 4, frob_power=4)
    with pytest.raises(IdentityAutomorphism):
        FiniteFieldCtx(2, 5, frob_power=10)


def test_standard_moduli_are_irreducible():
    for (p, m), poly in _STANDARD_POLYS.items():
        assert len(poly) == m + 1 and poly[-1] == 1
        assert _is_irreducible(poly, p)


# ---------------------------------------------------------------------------
# frozen arithmetic oracles


def test_f9_hand_computation(gf9):
    # modulus t^2 + 2t + 2: g^2 = -2g - 2 = g + 1
    g = gf9.gen()
    assert g * g == g + 1
    assert g**3 == 2 * g + 1
    assert gf9.sigma(g, 1) == 2 * g + 1


def test_f81_multiplication_is_field_like(gf34):
    # exhaustive: no zero divisors, exact inverses
    for a in gf34.elements():
        if not a:
            with pytest.raises(ZeroNotInvertible):
                a.inverse()
            continue
        assert a * a.inverse() == gf34.one()
        assert a.inverse() * a == gf34.one()


def test_field_axioms_random(gf25, gf35, gf28, gf34):
    rng = random.Random("field-axioms")
    for ctx in (gf25, gf35, gf28, gf34):
        for _ in range(100):
            a = ctx.random_elem(rng)
            b = ctx.random_elem(rng)
            c = ctx.random_elem(rng)
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            assert a - a == ctx.zero()
            assert a * ctx.one() == a
            if b:
                assert (a / b) * b == a


def test_int_coercion(gf34, qt_shift):
    g = gf34.gen()
    assert 2 * g == g + g
    assert g - 1 == g + 2
    assert 1 / gf34.from_int(2) == gf34.from_int(2)
    t = qt_shift.gen()
    assert 3 * t - t == 2 * t
    assert (1 - t) + t == qt_shift.one()


def test_finite_field_elements_equal_only_elements(gf34, gf28):
    """Equal elements hash equal; ints are coerced in arithmetic but never
    compare equal to an element."""
    for ctx in (gf34, gf28):
        elems = list(ctx.elements())
        again = [ctx.elem(ctx._digits(a.value)) for a in elems]
        assert elems == again
        assert [hash(a) for a in elems] == [hash(b) for b in again]
        assert len(set(elems) | set(again)) == ctx.q
        one = ctx.one()
        assert len({one, 1}) == 2
        assert one != 1 and 1 != one and not (one == 1)
        assert one + 1 == ctx.from_int(2) and one * 1 == one
    assert gf34.from_int(4) == gf34.one()
    assert gf34.from_int(4) != 1 and hash(gf34.from_int(4)) == hash(gf34.one())


# ---------------------------------------------------------------------------
# sigma: Frobenius powers


def test_sigma_is_the_stated_frobenius_power(gf25, gf34, gf28):
    rng = random.Random("sigma-frob")
    cases = [gf25, gf34, gf28, FiniteFieldCtx(2, 8, frob_power=3)]
    for ctx in cases:
        qe = ctx.p**ctx.e
        for _ in range(80):
            a = ctx.random_elem(rng)
            assert ctx.sigma(a, 1) == a**qe
    # repeated-multiplication oracle, independent of the pow routine
    for _ in range(20):
        a = gf34.random_elem(rng)
        assert gf34.sigma(a, 1) == a * a * a


def test_sigma_is_a_ring_automorphism(gf34, gf28):
    rng = random.Random("sigma-hom")
    for ctx in (gf34, gf28):
        n = ctx.sigma_order
        for _ in range(100):
            a = ctx.random_elem(rng)
            b = ctx.random_elem(rng)
            i = rng.randint(-7, 7)
            assert ctx.sigma(a + b, i) == ctx.sigma(a, i) + ctx.sigma(b, i)
            assert ctx.sigma(a * b, i) == ctx.sigma(a, i) * ctx.sigma(b, i)
            assert ctx.sigma(a, n) == a
            assert ctx.sigma(ctx.sigma(a, i), -i) == a
            j = rng.randint(-7, 7)
            assert ctx.sigma(ctx.sigma(a, i), j) == ctx.sigma(a, i + j)


def test_sigma_order_values():
    assert FiniteFieldCtx(2, 5).sigma_order == 5
    assert FiniteFieldCtx(2, 8).sigma_order == 8
    assert FiniteFieldCtx(2, 8, frob_power=2).sigma_order == 4
    assert FiniteFieldCtx(2, 8, frob_power=6).sigma_order == 4
    assert FiniteFieldCtx(2, 6, frob_power=2).sigma_order == 3
    assert FiniteFieldCtx(3, 2).sigma_order == 2
    assert RationalFunctionCtx("shift").sigma_order is None


def test_sigma_degree(gf34, qt_shift):
    assert sigma_degree(gf34, gf34.from_int(2), 4) == 1
    # an element of the sigma^2-fixed subfield GF(9) that sigma moves
    mid = next(
        a
        for a in gf34.elements()
        if a and gf34.sigma(a, 2) == a and gf34.sigma(a, 1) != a
    )
    assert sigma_degree(gf34, mid, 4) == 2
    rng = random.Random("sigma-degree")
    for _ in range(50):
        a = gf34.random_elem(rng)
        d = sigma_degree(gf34, a, 4)
        assert d in (1, 2, 4)
    t = qt_shift.gen()
    assert sigma_degree(qt_shift, t, 100) is None
    assert sigma_degree(qt_shift, qt_shift.from_int(5), 3) == 1


# ---------------------------------------------------------------------------
# witnesses


def test_find_witness_finite(gf25, gf34):
    y = gf25.find_witness(5)
    conj = [gf25.sigma(y, i) for i in range(5)]
    assert k0_independent(gf25, conj)
    assert sigma_degree(gf25, y, 5) == 5
    assert gf25.find_witness(5) == y  # deterministic

    y4 = gf34.find_witness(4)
    assert k0_independent(gf34, [gf34.sigma(y4, i) for i in range(4)])
    with pytest.raises(NoWitness):
        gf34.find_witness(5)


def test_find_witness_infinite(qt_shift):
    assert qt_shift.find_witness(5) == qt_shift.gen()
    scale = RationalFunctionCtx("scale", scale=Fraction(3, 2))
    assert scale.find_witness(9) == scale.gen()


# ---------------------------------------------------------------------------
# k0-linear algebra over finite fields


def test_k0_vec_is_additive_and_faithful(gf34):
    rng = random.Random("k0-vec")
    for _ in range(100):
        a = gf34.random_elem(rng)
        b = gf34.random_elem(rng)
        va, vb, vab = gf34.k0_vec(a), gf34.k0_vec(b), gf34.k0_vec(a + b)
        assert tuple((x + y) % 3 for x, y in zip(va, vb)) == tuple(vab)
    basis = gf34.k0_vec_basis()
    assert len(basis) == 4
    assert k0_independent(gf34, basis)


def test_coords_and_solver(gf34):
    o4 = gf34.build_order4_ctx()
    assert list(coords(gf34, o4.e1, o4.l_basis)) == [1, 0, 1]
    with pytest.raises(NotInSpan):
        coords(gf34, o4.y, o4.l_basis)
    rng = random.Random("coords")
    for _ in range(60):
        cs = [rng.randrange(3) for _ in range(3)]
        a = gf34.zero()
        for c, b in zip(cs, o4.l_basis):
            a = a + gf34.from_int(c) * b
        sol = coords(gf34, a, o4.l_basis)
        rebuilt = gf34.zero()
        for c, b in zip(sol, o4.l_basis):
            rebuilt = rebuilt + gf34.k0_scalar_to_elem(c) * b
        assert rebuilt == a
    # inconsistent single-column system
    solve = particular_solver([gf34.k0_vec(o4.e2)], k0_scalars(gf34))
    assert solve(gf34.k0_vec(o4.y)) is None


def test_sigma_minus_one_preimage(gf34, gf25):
    rng = random.Random("sig-minus-one")
    for ctx in (gf34, gf25):
        for _ in range(60):
            z0 = ctx.random_elem(rng)
            c = ctx.sigma(z0, 1) - z0
            z = ctx.sigma_minus_one_preimage(c)
            assert ctx.sigma(z, 1) - z == c
    o4 = gf34.build_order4_ctx()
    with pytest.raises(NotInL):
        gf34.sigma_minus_one_preimage(o4.y)


@pytest.mark.parametrize(
    "name", ["gf34", "gf24", "gf28_frob2", "gf54", "gf212_frob3", "gf58", "gf312"]
)
def test_sigma_minus_one_preimage_is_the_particular_solution(name, request):
    # the precomputed map gives the solution that elimination over k0 gives
    # on every element of L and raises NotInL off L: on every element of the
    # fields up to 256 elements, and on 500 seeded elements of the larger
    # ones plus 500 of their L
    if name == "gf28_frob2":
        ctx = FiniteFieldCtx(2, 8, frob_power=2)  # a table field with k0 = GF(4)
    elif name == "gf54":
        ctx = FiniteFieldCtx(5, 4)  # k0 = GF(5), on the packed kernel
    elif name == "gf212_frob3":
        ctx = FiniteFieldCtx(2, 12, frob_power=3)  # k0 = GF(8), on the packed kernel
    else:
        ctx = request.getfixturevalue(name)
    oracle = sigma_minus_one_oracle(ctx)
    if ctx.q <= 256:
        elems = list(ctx.elements())
    else:
        rng = random.Random(f"sigma-minus-one:{name}")
        elems = [ctx.random_elem(rng) for _ in range(500)]
        elems += [ctx.sigma(a, 1) - a for a in elems]
    in_l = 0
    for c in elems:
        want = oracle(c)
        if want is None:
            with pytest.raises(NotInL):
                ctx.sigma_minus_one_preimage(c)
        else:
            assert ctx.sigma_minus_one_preimage(c) == want, c
            in_l += 1
    # L has index |k0| in k
    if ctx.q <= 256:
        assert in_l * len(ctx.k0_scalar_elements()) == ctx.q
    else:
        assert in_l >= 500


def test_infinite_order_has_no_k0_algebra(qt_shift):
    t = qt_shift.gen()
    with pytest.raises(InfiniteOrder):
        qt_shift.k0_vec(t)
    with pytest.raises(InfiniteOrder):
        coords(qt_shift, t, [t])
    with pytest.raises(InfiniteOrder):
        qt_shift.build_order4_ctx()


# ---------------------------------------------------------------------------
# order-4 subspace geometry


def test_order4_ctx_subspaces(gf34):
    o4 = gf34.build_order4_ctx()
    s = gf34.sigma
    assert s(o4.e1, 1) == -o4.e1
    assert s(o4.e2, 2) == -o4.e2
    for b in o4.l_basis + (o4.e1, o4.e2, o4.k2_basis[1]):
        assert o4.in_l(b)
    assert not o4.in_l(o4.y)
    assert o4.in_k1(o4.e1)
    assert o4.in_k1(2 * o4.e1)
    assert o4.in_k1(gf34.zero())
    assert not o4.in_k1(o4.e2)
    with pytest.raises(NotInL):
        l_coords(o4, o4.y)

    # exhaustive subspace sizes over F81: dim L = 3, dim k1 = 1, dim k2 = 2
    n_l = sum(1 for a in gf34.elements() if o4.in_l(a))
    n_k1 = sum(1 for a in gf34.elements() if o4.in_k1(a))
    n_k2 = sum(1 for a in gf34.elements() if s(a, 2) == -a)
    assert (n_l, n_k1, n_k2) == (27, 3, 9)
    # k2_basis really spans k2
    for a in gf34.elements():
        if s(a, 2) == -a:
            coords(gf34, a, o4.k2_basis)  # must not raise


def _in_span(ctx, a, basis):
    try:
        coords(ctx, a, basis)
    except NotInSpan:
        return False
    return True


@pytest.mark.parametrize(
    "p, m, e, mod",
    [
        (2, 4, 1, None),  # characteristic 2: k1 = k0
        (5, 8, 2, (3, 2, 1, 0, 0, 0, 0, 0, 1)),
        (3, 12, 3, (2, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1)),
        (2, 20, 5, None),
    ],
    ids=["gf2^4", "gf5^8/frob^2", "gf3^12/frob^3", "gf2^20/frob^5"],
)
def test_order4_membership_matches_coordinates(p, m, e, mod):
    # in_l and in_k1 against the k0-coordinates of a over l_basis and e1
    ctx = FiniteFieldCtx(p, m, frob_power=e, modulus=mod)
    o4 = ctx.build_order4_ctx()
    s = ctx.sigma
    rng = random.Random(f"o4-membership:{p}:{m}:{e}")
    hits = [0, 0]
    for _ in range(60):
        z = ctx.random_elem(rng)
        # z, a member of L, of k1 and of k2
        for a in (z, s(z, 1) - z, z - s(z, 1) + s(z, 2) - s(z, 3), z - s(z, 2)):
            in_l = _in_span(ctx, a, o4.l_basis)
            in_k1 = _in_span(ctx, a, (o4.e1,))
            assert o4.in_l(a) == in_l, a
            assert o4.in_k1(a) == in_k1, a
            hits[0] += in_l
            hits[1] += in_k1
    assert 0 < hits[1] < hits[0] < 240


def test_order4_requires_order_4(gf25, gf34):
    from skewlaurent.errors import UnsupportedOrder

    with pytest.raises(UnsupportedOrder):
        gf25.build_order4_ctx()
    assert gf34.build_order4_ctx() is gf34.build_order4_ctx()


def test_independent_pair_l_translates_span_k(gf34):
    # for k0-independent a, b: a*L + b*L is all of k
    rng = random.Random("l-span")
    o4 = gf34.build_order4_ctx()
    done = 0
    while done < 60:
        a = nonzero_elem(gf34, rng)
        b = nonzero_elem(gf34, rng)
        if not k0_independent(gf34, [a, b]):
            continue
        prods = [a * l for l in o4.l_basis] + [b * l for l in o4.l_basis]
        assert k0_rank(gf34, prods) == 4
        done += 1


# ---------------------------------------------------------------------------
# proper subfield k0 (frob^e with gcd(e, m) > 1)


def test_frob_power_subfield_coordinates():
    ctx = FiniteFieldCtx(2, 8, frob_power=2)
    assert ctx.subfield_degree == 2
    assert ctx.sigma_order == 4
    rng = random.Random("subfield")
    basis = ctx.k0_vec_basis()
    assert len(basis) == 4
    for _ in range(40):
        a = ctx.random_elem(rng)
        vec = ctx.k0_vec(a)
        assert len(vec) == 4
        # coordinates are k0 scalars, standing for elements of k0 = Fix(sigma)
        elems = [ctx.k0_scalar_to_elem(c) for c in vec]
        for c in elems:
            assert ctx.sigma(c, 1) == c
        rebuilt = ctx.zero()
        for c, b in zip(elems, basis):
            rebuilt = rebuilt + c * b
        assert rebuilt == a
    o4 = ctx.build_order4_ctx()
    assert o4.in_l(o4.e1)
    assert o4.in_k1(o4.e1)


def test_large_field_matrix_fallback():
    # q = 2^17 is past the table limit; sigma and inverse use the generic path
    ctx = FiniteFieldCtx(2, 17)
    rng = random.Random("large")
    for _ in range(5):
        a = ctx.random_elem(rng)
        b = nonzero_elem(ctx, rng)
        c = ctx.random_elem(rng)
        assert a * (b + c) == a * b + a * c
        assert (a / b) * b == a
        assert ctx.sigma(a, 1) == a * a
        assert ctx.sigma(ctx.sigma(a, 9), 8) == a


# ---------------------------------------------------------------------------
# rational function field Q(t)


def test_ratfunc_canonical_forms(qt_shift):
    t = qt_shift.gen()
    assert (t * t - 1) / (t - 1) == t + 1
    q = 1 / (2 * t - 2)
    assert q * (2 * t - 2) == qt_shift.one()
    assert q.den[-1] == Fraction(1)  # denominators are kept monic
    assert not (t - t)
    with pytest.raises(ZeroNotInvertible):
        (t - t).inverse()


def test_ratfunc_field_axioms(qt_shift):
    rng = random.Random("qt-axioms")
    for _ in range(60):
        a = qt_shift.random_elem(rng)
        b = qt_shift.random_elem(rng)
        c = qt_shift.random_elem(rng)
        assert a * (b + c) == a * b + a * c
        assert (a + b) - b == a
        if b:
            assert (a / b) * b == a


def test_ratfunc_sigma_shift(qt_shift):
    t = qt_shift.gen()
    assert qt_shift.sigma(t, 1) == t + 1
    assert qt_shift.sigma(t, -3) == t - 3
    lhs = qt_shift.sigma((t + 1) / (t - 1), -1)
    assert lhs == t / (t - 2)
    rng = random.Random("qt-sigma")
    for _ in range(40):
        a = qt_shift.random_elem(rng)
        b = qt_shift.random_elem(rng)
        i = rng.randint(-4, 4)
        assert qt_shift.sigma(a * b, i) == qt_shift.sigma(a, i) * qt_shift.sigma(b, i)
        assert qt_shift.sigma(a + b, i) == qt_shift.sigma(a, i) + qt_shift.sigma(b, i)
        assert qt_shift.sigma(qt_shift.sigma(a, i), -i) == a


def test_ratfunc_sigma_scale():
    ctx = RationalFunctionCtx("scale", scale=Fraction(3, 2))
    t = ctx.gen()
    assert ctx.sigma(t, 1) == Fraction(3, 2) * t
    assert ctx.sigma(t * t, 1) == Fraction(9, 4) * t * t
    assert ctx.sigma(t, -1) == Fraction(2, 3) * t
    assert ctx.sigma(ctx.from_int(7), 5) == ctx.from_int(7)
    assert sigma_degree(ctx, t, 50) is None


def test_ratfunc_size_budget(qt_shift):
    t = qt_shift.gen()
    top = (t + 1) ** 512  # the largest power the parser takes
    assert len(top.n) == 513 and top.d == (1,)
    assert ((t + 1) ** -512).d == top.n
    assert len((top / (t + 2)).d) == 2
    for build in (
        lambda: (t + 1) ** 513,
        lambda: top * t,
        lambda: top / (t + 2) * (t + 3),
        lambda: qt_shift.from_int(2**32768) * t,
        # a sum is checked by the next product
        lambda: (qt_shift.from_int(2**32767) + 2**32767) * t,
        lambda: RationalFunctionCtx("scale", 2).sigma(t, 1 << 15),
    ):
        with pytest.raises(CoefficientTooLarge):
            build()
    assert qt_shift.from_int(2**32767) * t != t
    assert RationalFunctionCtx("scale", 2).sigma(t, (1 << 15) - 1).n == (0, 2 ** ((1 << 15) - 1))


def test_ratfunc_str(qt_shift):
    t = qt_shift.gen()
    assert str(t * t - 2 * t + qt_shift.from_fraction(Fraction(1, 2))) == "t^2-2*t+1/2"
    assert str((t + 1) / (t - 1)) == "(t+1)/(t-1)"
    assert str(qt_shift.zero()) == "0"


def test_ratfunc_constants_hash_like_numbers(qt_shift):
    half = qt_shift.from_fraction(Fraction(1, 2))
    assert hash(half) == hash(Fraction(1, 2))
    assert hash(qt_shift.one()) == hash(1) and hash(qt_shift.zero()) == hash(0)
    assert qt_shift.one() == 1
    assert {1: "one"}.get(qt_shift.one()) == "one"
    assert {Fraction(1, 2): "half"}.get(half) == "half"
    t = qt_shift.gen()
    assert {t + 1: "t+1"}.get(qt_shift.sigma(t, 1)) == "t+1"


# ---------------------------------------------------------------------------
# Q(t) kernel against Fraction evaluation


def _qt_rem(a, b):
    """Remainder of a by b over Q (Fraction Euclid, the reference)."""
    a = [Fraction(c) for c in a]
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        off = len(a) - len(b)
        for k, bk in enumerate(b):
            a[off + k] -= c * bk
        while a and a[-1] == 0:
            a.pop()
    return a


def _qt_coprime(a, b):
    while b:
        a, b = b, _qt_rem(a, b)
    return len(a) == 1


def _assert_canonical(x):
    n, d = x.n, x.d
    assert all(type(c) is int for c in n + d)
    assert d and d[-1] > 0
    if not n:
        assert d == (1,)
        return
    assert n[-1] != 0
    assert gcd(*n, *d) == 1
    assert _qt_coprime(list(n), list(d))


def _qt_value(x, r):
    """x at the rational point r, or None at a pole."""
    num = den = Fraction(0)
    for c in reversed(x.n):
        num = num * r + c
    for c in reversed(x.d):
        den = den * r + c
    return None if den == 0 else num / den


_QT_POINTS = (Fraction(0), Fraction(1, 3), Fraction(-5, 2), Fraction(7), Fraction(-11, 13))


@pytest.mark.parametrize("spec", ["shift", "scale:3/2", "scale:-2/3"])
def test_ratfunc_kernel_matches_fraction_evaluation(spec):
    if spec == "shift":
        ctx = RationalFunctionCtx("shift")
    else:
        q = Fraction(spec.split(":")[1])
        ctx = RationalFunctionCtx("scale", scale=q)

    def moved(r, i):
        """The point at which x takes the value sigma^i(x) takes at r."""
        return r + i if spec == "shift" else q**i * r

    rng = random.Random(f"qt-kernel:{spec}")

    def elem():
        # products and quotients of small elements, so gcds are nontrivial
        a = ctx.random_elem(rng) * ctx.random_elem(rng)
        b = ctx.random_elem(rng)
        return a / b + Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if b else a

    checked = 0
    for _ in range(40):
        a, b = elem(), elem()
        binary = [(a + b, add), (a - b, sub), (a * b, mul)]
        inv = a.inverse() if a else None
        shifted = {i: ctx.sigma(a, i) for i in range(-4, 5)}
        made = [a, b, *(res for res, _ in binary), *shifted.values()]
        if a:
            made.append(inv)
        for x in made:
            _assert_canonical(x)
        for r in _QT_POINTS:
            # sigma^i moves poles with the point: both sides are None together
            for i, res in shifted.items():
                assert _qt_value(res, r) == _qt_value(a, moved(r, i))
                checked += 1
            va, vb = _qt_value(a, r), _qt_value(b, r)
            if va is None or vb is None:
                continue
            for res, op in binary:
                assert _qt_value(res, r) == op(va, vb)
                checked += 1
            if va:
                assert _qt_value(inv, r) == 1 / va
                checked += 1
    assert checked > 1000


def test_integer_polynomial_gcd_with_cofactors():
    # contents stay with the cofactors; the gcd is primitive with a positive lead
    assert _zgcd((0, 2, 2), (-62, -64, -2)) == ((1, 1), (0, 2), (-62, -2))
    assert _zgcd((2, 2), (6, 3)) == ((1,), (2, 2), (6, 3))
    assert _zgcd((4, 4), (6, 6)) == ((1, 1), (4,), (6,))
    # (2t + 1)(3t - 1) and (2t + 1)(t^2 + 1): a non-monic gcd over Z
    assert _zgcd((-1, 1, 6), (1, 2, 1, 2)) == ((1, 2), (-1, 3), (1, 0, 1))
    assert _zgcd((1, 0, 1), (1, 1)) == ((1,), (1, 0, 1), (1, 1))


def _golden_elems(ctx):
    rng = random.Random("qt-golden")
    t = ctx.gen()
    out = [
        t,
        ctx.from_fraction(Fraction(-3, 4)),
        (t * t - 1) / (2 * t + 3),
        Fraction(2, 7) * t**3 - Fraction(5, 3) * t + 4,
        (3 * t + 1) ** -2,
        ctx.sigma((t - Fraction(1, 2)) / (5 * t * t + 2), 3),
        ctx.sigma(Fraction(-2, 9) * t**2 / (t + 1), -2),
    ]
    for _ in range(6):
        a, b = ctx.random_elem(rng), ctx.random_elem(rng)
        out.append(a * b + ctx.sigma(b, 2))
        if b:
            out.append(ctx.sigma(a / b, -1) - Fraction(1, 3))
    return out


# str() of _golden_elems, as printed by the Fraction-coefficient implementation
_GOLDEN_STR = {
    "shift": [
        "t",
        "-3/4",
        "(1/2*t^2-1/2)/(t+3/2)",
        "2/7*t^3-5/3*t+4",
        "(1/9)/(t^2+2/3*t+1/9)",
        "(1/5*t+1/2)/(t^2+6*t+47/5)",
        "(-2/9*t^2+8/9*t-8/9)/(t-1)",
        "(-4*t-4)/(t-2)",
        "(-1/3*t^2+t-2)/(t^2-9)",
        "(4*t+6)/(t)",
        "(1/6*t+4/3)/(t-1)",
        "(5*t^4+3*t^3-6*t^2-4*t+8)/(t^3-3*t^2+2*t)",
        "(-1/3*t^3+16/3*t^2-47/3*t+20/3)/(t^3-4*t^2+5*t-2)",
        "(t^2+5*t-8)/(t+1)",
        "(-1/3*t^2+t+4)/(t^2-3*t)",
        "(t+2)/(t-2)",
        "(-1/3*t+5)/(t-3)",
        "(-6*t^2-12*t+4)/(t^2+2*t)",
        "-3/2*t^2+7/2*t-7/3",
    ],
    "scale:3/2": [
        "t",
        "-3/4",
        "(1/2*t^2-1/2)/(t+3/2)",
        "2/7*t^3-5/3*t+4",
        "(1/9)/(t^2+2/3*t+1/9)",
        "(8/135*t-32/3645)/(t^2+128/3645)",
        "(-8/81*t^2)/(t+9/4)",
        "(-5/4*t^2+1/2*t-8)/(t-2)",
        "(-1/3*t^2+1/2*t-3)/(t^2+3*t-18)",
        "(4*t+6)/(t)",
        "(1/6*t+9/4)/(t)",
        "(25/4*t^4-299/36*t^3+49/18*t^2)/(t^3-35/9*t^2+14/3*t-16/9)",
        "(-1/3*t^3+13/2*t^2-27/2*t-27/2)/(t^3-3/2*t^2)",
        "(9/4*t^2+17/4*t-10)/(t+1)",
        "(-1/3*t^2+1/2*t+21/2)/(t^2-3/2*t-9/2)",
        "(t+2)/(t-2)",
        "(-1/3*t+7)/(t-3)",
        "(-6*t+10/9)/(t)",
        "-2/3*t^2+1/3*t-1/3",
    ],
}


@pytest.mark.parametrize("spec", sorted(_GOLDEN_STR))
def test_ratfunc_str_golden(spec):
    if spec == "shift":
        ctx = RationalFunctionCtx("shift")
    else:
        ctx = RationalFunctionCtx("scale", scale=Fraction(3, 2))
    elems = _golden_elems(ctx)
    for x in elems:
        _assert_canonical(x)
    assert [str(x) for x in elems] == _GOLDEN_STR[spec]


def _monic_by_trial_division():
    """(p, m, f, reducible) for every monic f of small degree, reducible
    by division by all monic polynomials of degree 1 .. m/2."""
    for p, top in ((2, 8), (3, 5), (5, 3), (17, 2)):
        for m in range(1, top + 1):
            divisors = [
                tuple(cs) + (1,)
                for d in range(1, m // 2 + 1)
                for cs in product(range(p), repeat=d)
            ]
            for cs in product(range(p), repeat=m):
                f = tuple(cs) + (1,)
                yield p, m, f, any(not pdivmod(f, g, p)[1] for g in divisors)


def test_rabin_test_matches_trial_division():
    for p, m, f, reducible in _monic_by_trial_division():
        assert _is_irreducible(f, p) == (not reducible), (p, f)


def test_x_tables_exist_only_for_irreducible_moduli_with_primitive_x():
    # the walk over the powers of x doubles as the irreducibility test of
    # a table field, so it must give tables for no reducible modulus
    for p, m, f, reducible in _monic_by_trial_division():
        tables = _x_tables(p, m, f)
        if reducible:
            assert tables is None, (p, f)
            continue
        qm1 = p**m - 1
        if m == 1:  # x is the constant -f_0
            x = -f[0] % p
            primitive = x != 0 and all(pow(x, qm1 // r, p) != 1 for r in _prime_factors(qm1))
        else:
            kern = _kernel(p, m, f)
            primitive = all(kern.pow(kern.x, qm1 // r) != 1 for r in _prime_factors(qm1))
        assert (tables is not None) == primitive, (p, f)


def test_table_fields_match_the_kernel_walk():
    # every field with p <= 7 and q <= 2^12 under its default modulus
    # matches the generator walk over the packed kernel.  Where x is
    # primitive the field binds Zech tables, and their exp, log and Zech
    # lists equal the walk's; where it is not, the field binds the packed
    # kernel, and its products by the walk's generator and its inverses
    # (with associativity these fix every product) match the walk's
    # tables on every element.  Either way every sigma^j map equals the
    # walk's powers of sigma.  Elements are matched by their base-p digits.
    fallbacks = []
    for p, top in ((2, 12), (3, 7), (5, 5), (7, 4)):
        for m in range(2, top + 1):
            q = p**m
            mod = default_modulus(p, m)
            ref = kernel_walk_tables(p, m, mod)
            if _x_tables(p, m, mod) is None:
                fallbacks.append((p, m))
            gen = ref._exp[1]
            for e in range(1, m):
                ctx = FiniteFieldCtx(p, m, frob_power=e)
                ops = ctx._mul.__self__
                values = [a.value for a in ctx.elements()]  # values[i] has the digits of i
                if (p, m) in fallbacks:
                    assert isinstance(ops, PackedField), (p, m, e)
                    index = {v: i for i, v in enumerate(values)}
                    times_gen = [index[ctx._mul(v, values[gen])] for v in values]
                    assert times_gen == [ref.mul(i, gen) for i in range(q)], (p, m, e)
                    inverses = [index[ctx._inv(v)] for v in values[1:]]
                    assert inverses == [ref.inv(i) for i in range(1, q)], (p, m, e)
                else:
                    assert isinstance(ops, ZechScalars), (p, m, e)
                    assert values == list(range(q)), (p, m, e)
                    assert ops._exp == ref._exp, (p, m, e)
                    assert ops._log == ref._log, (p, m, e)
                    assert ops._log1p == ref._log1p, (p, m, e)
                sig = [ref.pow(v, p**e) for v in range(q)]
                tab = list(range(q))
                for j in range(1, ctx.sigma_order):
                    tab = [sig[v] for v in tab]
                    want = [values[v] for v in tab]
                    assert list(map(ctx._sig_maps[j], values)) == want, (p, m, e, j)
    assert fallbacks == [(2, 9), (2, 12), (3, 7), (5, 4), (5, 5), (7, 3), (7, 4)]


def test_used_context_is_freed_without_the_cycle_collector():
    # contexts cache plain values, never elements of themselves, so a
    # dropped context goes at once, even after every lazy set-up ran
    specs = [
        (3, 4, 1, None),
        (2, 8, 2, None),
        (5, 8, 2, (3, 2, 1, 0, 0, 0, 0, 0, 1)),
        (2, 20, 1, None),
    ]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for p, m, e, mod in specs:
            ctx = FiniteFieldCtx(p, m, frob_power=e, modulus=mod)
            y = ctx.find_witness(ctx.sigma_order)
            ctx.k0_vec(y)
            ctx.k0_scalar_elements()
            # the sigma - 1 preimage map, with its elimination and tables
            ctx.sigma_minus_one_preimage(ctx.sigma(y, 1) - y)
            if ctx.sigma_order == 4:
                ctx.build_order4_ctx()
            ref = weakref.ref(ctx)
            del ctx, y
            assert ref() is None, (p, m, e)
        # Q(t) contexts too, after the series kernels ran on their elements
        for args in (("shift",), ("scale", 2)):
            ctx = RationalFunctionCtx(*args)
            t = ctx.gen()
            f = from_terms(ctx, [(0, t), (1, ctx.one()), (2, t + 3)], 8)
            (f * f).inverse()
            ref = weakref.ref(ctx)
            del ctx, t, f
            assert ref() is None, args
        # an order-4 context kept past its field says so
        o4 = FiniteFieldCtx(3, 4).build_order4_ctx()
        with pytest.raises(ReferenceError):
            o4.y
    finally:
        if enabled:
            gc.enable()
