"""Series engine: twisted multiplication, precision laws, inverses."""

import random

import pytest

from skewlaurent.errors import (
    ExponentBeyondPrecision,
    FieldMismatch,
    PrecisionExceeded,
    ZeroNotInvertible,
)
from skewlaurent.skew_series import (
    SkewSeries,
    commutator,
    conjugate,
    from_terms,
    term,
    zero,
)

from conftest import (
    nonzero_elem,
    random_series,
    reference_inverse,
    reference_product,
    reference_sum,
)
from skewlaurent.field_tower import FiniteFieldCtx, RationalFunctionCtx


# ---------------------------------------------------------------------------
# normal form and queries


def test_normal_form(gf34):
    a = gf34.gen()
    z = gf34.zero()
    f = SkewSeries(gf34, 0, (z, z, a, a + 1), 4)
    assert f.val == 2
    assert f.coeffs == (a, a + 1)
    assert f.valuation() == 2

    g = SkewSeries(gf34, -3, (z, z, z), 0)
    assert g.is_zero
    assert g.val == 0 and g.prec == 0
    assert g.valuation() is None
    assert g == zero(gf34, 0)

    with pytest.raises(ValueError):
        SkewSeries(gf34, 0, (a,), 3)


def test_coeff_access(gf34):
    a = gf34.gen()
    f = term(gf34, a, 2, 6)
    assert f.coeff_at(2) == a
    assert f.coeff_at(4) == gf34.zero()
    assert f.coeff_at(-10) == gf34.zero()
    with pytest.raises(PrecisionExceeded):
        f.coeff_at(6)


def test_from_terms_merges_duplicates(gf34):
    one = gf34.one()
    f = from_terms(gf34, [(1, one), (1, one)], 5)
    assert f == term(gf34, gf34.from_int(2), 1, 5)
    g = from_terms(gf34, [(0, one), (0, -one)], 5)
    assert g.is_zero and g.prec == 5
    with pytest.raises(ExponentBeyondPrecision):
        from_terms(gf34, [(5, one)], 5)
    with pytest.raises(ExponentBeyondPrecision):
        term(gf34, one, 3, 3)


def test_mixed_contexts_rejected(gf34, gf25, qt_shift):
    f = term(gf34, gf34.one(), 0, 4)
    g = term(gf25, gf25.one(), 0, 4)
    h = term(qt_shift, qt_shift.one(), 0, 4)
    for other in (g, h):
        with pytest.raises(FieldMismatch):
            f + other
        with pytest.raises(FieldMismatch):
            f * other
    with pytest.raises(TypeError):
        f + 1


# ---------------------------------------------------------------------------
# frozen multiplication oracles


def test_defining_relation_shift(qt_shift):
    t = qt_shift.gen()
    one = qt_shift.one()
    x = term(qt_shift, one, 1, 9)
    ts = term(qt_shift, t, 0, 9)
    assert x * ts == term(qt_shift, t + 1, 1, 9)
    assert ts * x == term(qt_shift, t, 1, 9)
    assert commutator(x, ts) == term(qt_shift, one, 1, 9)


def test_single_term_products(gf34):
    rng = random.Random("single-term")
    for _ in range(100):
        a = nonzero_elem(gf34, rng)
        b = nonzero_elem(gf34, rng)
        i = rng.randint(-6, 6)
        j = rng.randint(-6, 6)
        p = 12
        lhs = term(gf34, a, i, i + p) * term(gf34, b, j, j + p)
        assert lhs == term(gf34, a * gf34.sigma(b, i), i + j, i + j + p)


def test_x_power_n_is_central(gf25, gf34, gf28):
    rng = random.Random("central")
    for ctx in (gf25, gf34, gf28):
        n = ctx.sigma_order
        xn = term(ctx, ctx.one(), n, n + 20)
        for _ in range(20):
            f = random_series(ctx, rng, -5, 5, 12)
            assert xn * f == f * xn
    # x itself is not central: it moves the witness
    y = gf34.find_witness(4)
    x = term(gf34, gf34.one(), 1, 21)
    ys = term(gf34, y, 0, 20)
    assert x * ys != ys * x


# ---------------------------------------------------------------------------
# ring laws


def test_ring_laws_random(gf34, qt_shift):
    rng = random.Random("ring-laws")
    for ctx, rounds, width in ((gf34, 60, 12), (qt_shift, 25, 7)):
        for _ in range(rounds):
            f = random_series(ctx, rng, -4, 4, width, dense=False)
            g = random_series(ctx, rng, -4, 4, width, dense=False)
            h = random_series(ctx, rng, -4, 4, width, dense=False)
            assert f + g == g + f
            lhs = (f + g) + h
            rhs = f + (g + h)
            assert lhs.eq_to_prec(rhs, min(lhs.prec, rhs.prec))
            back = (f - g) + g
            assert back.prec == min(f.prec, g.prec)
            assert back.eq_to_prec(f, back.prec)
            p1 = (f * g) * h
            p2 = f * (g * h)
            upto = min(p1.prec, p2.prec)
            assert p1.eq_to_prec(p2, upto)
            d1 = f * (g + h)
            d2 = f * g + f * h
            assert d1.eq_to_prec(d2, min(d1.prec, d2.prec))


def test_add_precision_law(gf34):
    rng = random.Random("add-prec")
    for _ in range(60):
        f = random_series(gf34, rng, -6, 6, rng.randint(1, 15))
        g = random_series(gf34, rng, -6, 6, rng.randint(1, 15))
        s = f + g
        assert s.prec == min(f.prec, g.prec)
        if f.val < min(g.val, s.prec):
            assert s.valuation() == f.val


def test_mul_precision_law(gf34, qt_shift):
    rng = random.Random("mul-prec")
    for ctx in (gf34, qt_shift):
        for _ in range(60):
            f = random_series(ctx, rng, -6, 6, rng.randint(1, 10))
            g = random_series(ctx, rng, -6, 6, rng.randint(1, 10))
            p = f * g
            assert p.prec == min(f.prec + g.val, g.prec + f.val)
            # leading coefficients multiply to something nonzero in a field
            if p.prec > f.val + g.val:
                assert p.valuation() == f.val + g.val
        z = zero(ctx, 5)
        f = random_series(ctx, rng, -3, 3, 8)
        assert (f * z).is_zero
        assert (f * z).prec == 5 + f.val
        assert (z * f).prec == 5 + f.val


# ---------------------------------------------------------------------------
# inverses


def test_inverse_frozen_examples(gf34, qt_shift):
    one = qt_shift.one()
    x = term(qt_shift, one, 1, 33)
    assert x.inverse() == term(qt_shift, one, -1, 31)

    # (1 - x)^-1 = 1 + x + x^2 + ... over any coefficient field
    o = gf34.one()
    f = from_terms(gf34, [(0, o), (1, -o)], 20)
    g = f.inverse()
    assert g.val == 0 and g.prec == 20
    assert all(g.coeff_at(e) == o for e in range(20))

    with pytest.raises(ZeroNotInvertible):
        zero(gf34, 4).inverse()


def test_inverse_random_round_trip(gf25, gf34, gf28, qt_shift):
    rng = random.Random("inverse")
    for ctx, rounds, width in ((gf25, 25, 14), (gf34, 25, 14), (gf28, 25, 14), (qt_shift, 12, 8)):
        for _ in range(rounds):
            f = random_series(ctx, rng, -6, 6, width, dense=False)
            g = f.inverse()
            assert g.prec == f.prec - 2 * f.val
            assert g.val == -f.val
            for prod in (f * g, g * f):
                assert prod.prec == f.prec - f.val
                one_s = term(ctx, ctx.one(), 0, prod.prec)
                assert prod.eq_to_prec(one_s, prod.prec)


# ---------------------------------------------------------------------------
# reference oracle: every backend against the dict-of-exponents products

# (p, m, frob power) of each finite-field backend: Zech tables, bit-packed
# GF(2^m), and Kronecker-packed odd p with k0 != GF(p); then the
# RationalFunctionCtx arguments of Q(t) with each kind of sigma.
ORACLE_FIELDS = {
    "gf(3^4)/frob": (3, 4, 1),
    "gf(2^8)/frob": (2, 8, 1),
    "gf(2^20)/frob": (2, 20, 1),
    "gf(5^8)/frob^2": (5, 8, 2),
    "gf(3^12)/frob^3": (3, 12, 3),
    "qt/shift": ("shift",),
    "qt/scale:2": ("scale", 2),
}


@pytest.fixture(scope="module", params=list(ORACLE_FIELDS), ids=list(ORACLE_FIELDS))
def oracle_ctx(request):
    spec = ORACLE_FIELDS[request.param]
    if isinstance(spec[0], str):
        return RationalFunctionCtx(*spec)
    p, m, e = spec
    return FiniteFieldCtx(p, m, frob_power=e)


def oracle_series(ctx, rng, width, dense, val=None):
    """A series of this window width (0: zero to precision), dense or about
    a quarter nonzero, with a valuation in -8..8 unless given."""
    val = rng.randint(-8, 8) if val is None else val
    if dense:
        coeffs = [nonzero_elem(ctx, rng) for _ in range(width)]
    else:
        coeffs = [nonzero_elem(ctx, rng) if rng.random() < 0.25 else ctx.zero() for _ in range(width)]
    return SkewSeries(ctx, val, coeffs, val + width)


def check_against_oracle(f, g, inverse=True):
    assert f + g == reference_sum(f, g)
    assert f - g == reference_sum(f, g, -1)
    assert g - f == reference_sum(g, f, -1)
    assert f * g == reference_product(f, g)
    assert g * f == reference_product(g, f)
    if inverse and not f.is_zero:
        assert f.inverse() == reference_inverse(f)


def test_series_ops_match_the_reference_on_every_backend(oracle_ctx):
    ctx = oracle_ctx
    qt = ctx.sigma_order is None
    rng = random.Random(f"oracle:{ctx.field_spec()}:{ctx.sigma_spec()}")
    # Q(t) coefficients grow fast under products and inverses: keep them narrow
    max_width, max_inv = (12, 8) if qt else (64, 64)
    for round_ in range(16):
        dense = round_ % 2 == 0
        f = oracle_series(ctx, rng, rng.randint(0, max_width), dense)
        g = oracle_series(ctx, rng, rng.randint(0, max_width), not dense)
        check_against_oracle(f, g, inverse=len(f.coeffs) <= max_inv)
    # the widest windows, dense and sparse, and a window truncated by the
    # other operand's precision
    f = oracle_series(ctx, rng, max_width, True, -3)
    g = oracle_series(ctx, rng, max_width, False, 5)
    check_against_oracle(f, g, inverse=max_width <= max_inv)
    check_against_oracle(g, f, inverse=max_width <= max_inv)
    short = oracle_series(ctx, rng, 3, True, 1)
    check_against_oracle(f, short)
    check_against_oracle(short, g)
    # zero-to-precision operands, and operands whose window starts at or
    # past the result's precision
    for z in (zero(ctx, -2), zero(ctx, 4), oracle_series(ctx, rng, 6, False, 7)):
        check_against_oracle(z, f)
        check_against_oracle(f, z)
    low = oracle_series(ctx, rng, 5, True, 0)  # prec 5
    for val in (5, 6, 9):
        high = oracle_series(ctx, rng, 4, True, val)
        check_against_oracle(low, high)
        check_against_oracle(high, low)
    all_zero = SkewSeries(ctx, 2, [ctx.zero()] * 5, 7)
    assert all_zero.is_zero and all_zero.val == 7
    check_against_oracle(all_zero, short)
    check_against_oracle(short, all_zero)


def test_inverses_compute_each_coefficient_from_the_earlier_ones(oracle_ctx, monkeypatch):
    """Pull order: the products behind the first w coefficients of an
    inverse come first and in the same order at any width, so no product
    for a later coefficient is formed before the earlier ones are done."""
    ctx = oracle_ctx
    log = []
    mul = ctx._mul

    def logged(a, b):
        log.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(ctx, "_mul", logged)
    rng = random.Random(f"pull:{ctx.field_spec()}:{ctx.sigma_spec()}")
    w = 5 if ctx.sigma_order is None else 16
    for dense in (True, False):
        lead = term(ctx, nonzero_elem(ctx, rng), -3, 2 * w - 3)
        f = lead + oracle_series(ctx, rng, 2 * w - 1, dense, -2)
        assert len(f.coeffs) == 2 * w
        logs = []
        for width in (w, 2 * w):
            log.clear()
            SkewSeries(ctx, f.val, f.coeffs[:width], f.val + width).inverse()
            logs.append(list(log))
        short, full = logs
        assert 0 < len(short) < len(full)
        assert full[: len(short)] == short


def test_series_kernels_map_no_more_coefficients_than_the_pair_loop():
    """Each product and inverse applies sigma^i at most once per
    coefficient pair that the element loop visits with i moving it."""
    calls = [0]

    def counted(fn):
        def apply(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)

        return apply

    gf = FiniteFieldCtx(2, 20)  # n = 20: rows longer than the window
    gf._sig_maps = [None] + [counted(fn) for fn in gf._sig_maps[1:]]
    qt = RationalFunctionCtx("shift")  # infinite order: no row repeats
    qt.sigma = counted(qt.sigma)
    rng = random.Random("sigma-calls")
    for ctx, widths in ((gf, (1, 5, 24, 40)), (qt, (1, 5, 8))):
        n = ctx.sigma_order

        def moves(i):
            return i % n if n else i

        for width in widths:
            for dense in (True, False):
                f = oracle_series(ctx, rng, width, dense)
                g = oracle_series(ctx, rng, width + 3, not dense)
                prec = min(f.prec + g.val, g.prec + f.val)
                loop = sum(
                    1
                    for i, fi in enumerate(f.coeffs, f.val)
                    for j, gj in enumerate(g.coeffs, g.val)
                    if fi and gj and i + j < prec and moves(i)
                )
                calls[0] = 0
                f * g
                assert calls[0] <= loop
                if f.is_zero:
                    continue
                # the element loop maps each a_k, k >= 1, once per earlier
                # coefficient of the inverse, and the inverse lead once per term
                s, a = f.val, f.coeffs
                loop = sum(
                    1
                    for idx in range(len(a))
                    for idx2 in range(idx)
                    if a[idx - idx2] and moves(idx2 - s)
                ) + sum(1 for idx in range(len(a)) if moves(idx - s))
                calls[0] = 0
                f.inverse()
                assert calls[0] <= loop


# ---------------------------------------------------------------------------
# commutators and conjugation


def test_commutator_basics(gf34, qt_shift):
    rng = random.Random("comm")
    for ctx in (gf34, qt_shift):
        for _ in range(25):
            f = random_series(ctx, rng, -4, 4, 10, dense=False)
            g = random_series(ctx, rng, -4, 4, 10, dense=False)
            assert commutator(f, f).is_zero
            c1 = commutator(f, g)
            c2 = commutator(g, f)
            assert c1.eq_to_prec(-c2, min(c1.prec, c2.prec))


def test_commutator_with_x_twists_coefficient(gf34):
    rng = random.Random("comm-x")
    x = term(gf34, gf34.one(), 1, 16)
    for _ in range(40):
        a = nonzero_elem(gf34, rng)
        c = commutator(x, term(gf34, a, 0, 15))
        expect = from_terms(gf34, [(1, gf34.sigma(a, 1) - a)], 15)
        assert c.eq_to_prec(expect, 15)


def test_conjugation_by_constant_series(gf34):
    rng = random.Random("conj")
    for _ in range(30):
        u = term(gf34, nonzero_elem(gf34, rng), 0, 24)
        f = random_series(gf34, rng, -4, 4, 10, dense=False)
        w = conjugate(f, u)
        a = u.coeff_at(0)
        for e in range(f.val, min(w.prec, f.prec)):
            assert w._coeff(e) == a * f._coeff(e) * gf34.sigma(a.inverse(), e)


# ---------------------------------------------------------------------------
# printing


def test_str_forms(gf9, gf34):
    o = gf34.one()
    assert str(term(gf34, o, 2, 5)) == "x^2 + O(x^5)"
    assert str(zero(gf34, 3)) == "O(x^3)"
    g9 = gf9.gen()
    f = term(gf9, 2 * g9 + 1, -1, 4)
    assert str(f) == "(2*g+1)*x^-1 + O(x^4)"
    two = from_terms(gf34, [(0, o), (3, gf34.from_int(2))], 6)
    assert str(two) == "x^0 + (2)*x^3 + O(x^6)"
