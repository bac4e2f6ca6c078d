"""Regular representation over k((x^n)) and the reduced trace."""

import importlib
import random

import pytest

from skewlaurent.decompose import decompose
from skewlaurent.errors import InfiniteOrder
from skewlaurent.field_tower import FiniteFieldCtx
from skewlaurent.reduced_trace import matrix_rep, reduced_trace
from skewlaurent.skew_series import SkewSeries, commutator, term, zero

from conftest import random_series

# the package re-exports the function reduced_trace under the module's name
rtmod = importlib.import_module("skewlaurent.reduced_trace")


def test_rep_of_one_is_identity(gf34):
    m = matrix_rep(term(gf34, gf34.one(), 0, 8))
    for i in range(4):
        for j in range(4):
            if i == j:
                assert m.entries[i][j].eq_to_prec(term(gf34, gf34.one(), 0, 8), 8)
            else:
                assert m.entries[i][j].is_zero


def test_rep_of_x_is_the_twisted_companion(gf25):
    # x * x^j = x^(j+1); the last column wraps into x^0 * x^n
    n = 5
    m = matrix_rep(term(gf25, gf25.one(), 1, 1 + n))
    one = gf25.one()
    for j in range(n - 1):
        assert m.entries[j + 1][j].eq_to_prec(term(gf25, one, 0, 5), 5)
    wrap = m.entries[0][n - 1]
    assert wrap.valuation() == n and wrap.coeff_at(n) == one


def test_rep_entries_live_on_multiples_of_n(gf34):
    rng = random.Random("rep-support")
    for _ in range(20):
        f = random_series(gf34, rng, -6, 6, 13)
        m = matrix_rep(f)
        for row in m.entries:
            for entry in row:
                for idx, c in enumerate(entry.coeffs):
                    if c:
                        assert (entry.val + idx) % 4 == 0


def test_rep_is_multiplicative(gf34, gf25):
    rng = random.Random("rep-mult")
    for ctx in (gf34, gf25):
        for _ in range(25):
            f = random_series(ctx, rng, -5, 5, 12, dense=False)
            g = random_series(ctx, rng, -5, 5, 12, dense=False)
            lhs = matrix_rep(f * g)
            rhs = matrix_rep(f) * matrix_rep(g)
            for i in range(ctx.sigma_order):
                for j in range(ctx.sigma_order):
                    a, b = lhs.entries[i][j], rhs.entries[i][j]
                    assert a.eq_to_prec(b, min(a.prec, b.prec))


def test_rep_is_additive(gf34):
    rng = random.Random("rep-add")
    for _ in range(20):
        f = random_series(gf34, rng, -4, 4, 10)
        g = random_series(gf34, rng, -4, 4, 10)
        lhs = matrix_rep(f + g)
        rhs_f, rhs_g = matrix_rep(f), matrix_rep(g)
        for i in range(4):
            for j in range(4):
                s = rhs_f.entries[i][j] + rhs_g.entries[i][j]
                a = lhs.entries[i][j]
                assert a.eq_to_prec(s, min(a.prec, s.prec))


def test_trace_of_constants_is_the_field_trace(gf25, gf35, gf28, gf34):
    rng = random.Random("trd-const")
    for ctx in (gf25, gf35, gf28, gf34):
        n = ctx.sigma_order
        for _ in range(40):
            a = ctx.random_elem(rng)
            tr = reduced_trace(term(ctx, a, 0, 1))
            expect = ctx.zero()
            for r in range(n):
                expect = expect + ctx.sigma(a, r)
            assert tr.eq_to_prec(term(ctx, expect, 0, 1), 1)
        # trd(1) = n * 1
        tr1 = reduced_trace(term(ctx, ctx.one(), 0, 1))
        assert tr1.eq_to_prec(term(ctx, ctx.from_int(n), 0, 1), 1)


def test_trace_kills_off_multiples(gf34):
    one = gf34.one()
    for j in (-3, -2, -1, 1, 2, 3, 5, 6, 7):
        if j % 4:
            assert reduced_trace(term(gf34, one, j, j + 1)).is_zero
    tr = reduced_trace(term(gf34, gf34.gen(), 8, 9))
    assert tr.valuation() == 8


def test_trace_is_linear(gf34):
    rng = random.Random("trd-linear")
    for _ in range(25):
        f = random_series(gf34, rng, -5, 5, 11, dense=False)
        g = random_series(gf34, rng, -5, 5, 11, dense=False)
        lhs = reduced_trace(f + g)
        rhs = reduced_trace(f) + reduced_trace(g)
        assert lhs.eq_to_prec(rhs, min(lhs.prec, rhs.prec))


def test_trace_kills_commutators(gf25, gf35, gf28, gf34):
    rng = random.Random("trd-comm")
    for ctx in (gf25, gf35, gf28, gf34):
        for _ in range(40):
            f = random_series(ctx, rng, -6, 6, 12, dense=False)
            g = random_series(ctx, rng, -6, 6, 12, dense=False)
            assert reduced_trace(commutator(f, g)).is_zero


def test_trace_kills_certificate_brackets(gf34):
    rng = random.Random("trd-cert")
    for _ in range(10):
        f = random_series(gf34, rng, -5, 5, 12)
        cert = decompose(f)
        for b, w in cert.pairs:
            assert reduced_trace(commutator(b, w)).is_zero


def test_trace_of_zero(gf34):
    assert reduced_trace(zero(gf34, 6)).is_zero


def test_infinite_order_rejected(qt_shift):
    with pytest.raises(InfiniteOrder):
        matrix_rep(term(qt_shift, qt_shift.one(), 0, 4))
    with pytest.raises(InfiniteOrder):
        reduced_trace(term(qt_shift, qt_shift.gen(), 1, 5))


def _diagonal_sum(f):
    entries = matrix_rep(f).entries
    acc = entries[0][0]
    for i in range(1, len(entries)):
        acc = acc + entries[i][i]
    return acc


@pytest.mark.parametrize(
    "p, m, e, mod",
    [
        (3, 4, 1, None),
        (3, 5, 1, None),
        (2, 8, 1, None),
        (2, 8, 2, None),
        (5, 8, 2, (3, 2, 1, 0, 0, 0, 0, 0, 1)),
        (3, 12, 3, (2, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1)),
        (2, 20, 5, None),
    ],
    ids=[
        "gf3^4",
        "gf3^5",
        "gf2^8",
        "gf2^8/frob^2",
        "gf5^8/frob^2",
        "gf3^12/frob^3",
        "gf2^20/frob^5",
    ],
)
def test_trace_is_the_diagonal_sum_of_matrix_rep(p, m, e, mod):
    # structural equality: the same val, prec and coefficients
    ctx = FiniteFieldCtx(p, m, frob_power=e, modulus=mod)
    n = ctx.sigma_order
    rng = random.Random(f"trd-diagonal:{p}:{m}:{e}")
    zero_elem = ctx.zero()
    precs = set()
    for width in range(41):
        for val in (-width - 1, rng.randint(-9, 9)):
            for density in (0.0, 0.3, 1.0):  # 0.0: zero to its precision
                coeffs = [
                    ctx.random_elem(rng) if rng.random() < density else zero_elem
                    for _ in range(width)
                ]
                f = SkewSeries(ctx, val, coeffs, val + width)
                assert reduced_trace(f) == _diagonal_sum(f), f
                precs.add(f.prec % n)
    assert len(precs) == n  # every residue of prec mod n, 0 among them


def test_trace_does_not_build_the_matrix(gf34, monkeypatch):
    def refuse(f):
        raise AssertionError("reduced_trace built the matrix representation")

    monkeypatch.setattr(rtmod, "matrix_rep", refuse)
    g = gf34.gen()
    f = SkewSeries(gf34, 4, [g, gf34.zero(), g] + [gf34.zero()] * 5, 12)
    tr = g + gf34.sigma(g, 1) + gf34.sigma(g, 2) + gf34.sigma(g, 3)
    assert reduced_trace(f) == term(gf34, tr, 4, 12)
