"""Acceptance criteria.

Each test prints one [PASS]/[FAIL] line (through the capture) and then
asserts.  All comparisons are exact: coefficient equality in the exact
coefficient field, at the full stated precision.
"""

import random
import time

import pytest

from skewlaurent.decompose import (
    bracket_preimage,
    decompose,
    factor_into_l_pair,
    verify_certificate,
    x_bracket_preimage,
)
from skewlaurent.errors import IdentityAutomorphism, UnsupportedOrder
from skewlaurent.field_tower import FiniteFieldCtx, RationalFunctionCtx
from skewlaurent.reduced_trace import reduced_trace
from skewlaurent.skew_series import SkewSeries, commutator, from_terms, term

from conftest import k0_independent, k0_rank, nonzero_elem


def _report(capsys, num, ok, text):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}", flush=True)
    assert ok, f"criterion {num}: {text}"


def _random_input(ctx, rng, width=24, val_lo=-8, val_hi=8):
    val = rng.randint(val_lo, val_hi)
    coeffs = [ctx.random_elem(rng) for _ in range(width)]
    coeffs[0] = nonzero_elem(ctx, rng)
    return SkewSeries(ctx, val, coeffs, val + width)


@pytest.fixture(scope="module")
def fields():
    return {
        "gf(2^5)/frob": FiniteFieldCtx(2, 5),
        "gf(3^5)/frob": FiniteFieldCtx(3, 5),
        "gf(2^8)/frob": FiniteFieldCtx(2, 8),
        "gf(3^4)/frob": FiniteFieldCtx(3, 4),
        "qt/shift": RationalFunctionCtx("shift"),
    }


def test_criterion_1_decompose_round_trip(fields, capsys):
    """200 random nonzero series per field decompose into verified certificates."""
    rng = random.Random("acceptance-1")
    t0 = time.time()
    total = 0
    ok = True
    for name, ctx in fields.items():
        for _ in range(200):
            f = _random_input(ctx, rng)
            cert = decompose(f)
            if not (cert.check_prec == f.prec and verify_certificate(cert)):
                ok = False
            total += 1
    elapsed = time.time() - t0
    ok = ok and elapsed < 30.0
    _report(
        capsys,
        1,
        ok,
        f"{total} decompositions across {len(fields)} fields, every certificate "
        f"re-verified exactly at O(x^(val+24)) ({elapsed:.1f}s < 30s)",
    )


def test_criterion_2_order4_branch_coverage(capsys):
    """All three order-4 routes are exercised at least 30 times each."""
    ctx = FiniteFieldCtx(3, 4)
    o4 = ctx.build_order4_ctx()
    rng = random.Random("acceptance-2")
    counts = {"Order4Split": 0, "Order4L": 0, "Order4Conjugated": 0}
    ok = True
    for i in range(105):
        branch = ("Order4Split", "Order4L", "Order4Conjugated")[i % 3]
        if branch == "Order4Split":
            val = rng.choice([-8, -5, 1, 3, 4, 7, 8])
            lead = nonzero_elem(ctx, rng)
        else:
            val = rng.choice([-6, -2, 2, 6])
            if branch == "Order4L":
                lead = nonzero_elem(ctx, rng)
                while o4.in_k1(lead):
                    lead = nonzero_elem(ctx, rng)
            else:
                lead = ctx.from_int(rng.choice([1, 2])) * o4.e1
        coeffs = [lead] + [ctx.random_elem(rng) for _ in range(23)]
        cert = decompose(SkewSeries(ctx, val, coeffs, val + 24))
        if cert.method != branch:
            ok = False
        counts[cert.method] = counts.get(cert.method, 0) + 1
    ok = ok and all(counts[m] >= 30 for m in counts)
    _report(
        capsys,
        2,
        ok,
        "order-4 branches over gf(3^4): "
        + ", ".join(f"{m} x{c}" for m, c in sorted(counts.items()))
        + " (each >= 30, route matches construction)",
    )


def test_criterion_3_bracket_exactness(fields, capsys):
    """Bracket preimages reproduce their targets exactly at full precision."""
    rng = random.Random("acceptance-3")
    ok = True
    checked = 0
    for name, ctx in fields.items():
        if ctx.sigma_order is None:
            continue
        n = ctx.sigma_order
        y = ctx.find_witness(4)
        for _ in range(200):
            terms = [
                (e, ctx.random_elem(rng))
                for e in range(-8, 8)
                if e % n and rng.random() < 0.6
            ]
            if not terms:
                continue
            g = from_terms(ctx, terms, 10)
            w = bracket_preimage(y, g)
            b = term(ctx, y, 0, g.prec - w.val)
            if not commutator(b, w).eq_to_prec(g, g.prec):
                ok = False
            checked += 1
    # x-bracket over gf(3^4): targets with coefficients in L
    ctx = FiniteFieldCtx(3, 4)
    o4 = ctx.build_order4_ctx()
    for _ in range(200):
        terms = []
        for e in range(-6, 7):
            if rng.random() < 0.5:
                c = ctx.zero()
                for l in o4.l_basis:
                    c = c + ctx.from_int(rng.randrange(3)) * l
                if c:
                    terms.append((e, c))
        if not terms:
            continue
        g = from_terms(ctx, terms, 8)
        w = x_bracket_preimage(g)
        x = term(ctx, ctx.one(), 1, g.prec - w.val)
        if not commutator(x, w).eq_to_prec(g, g.prec):
            ok = False
        checked += 1
    _report(
        capsys,
        3,
        ok,
        f"{checked} bracket preimages (normal-element and x-brackets) "
        "re-multiplied to their exact targets",
    )


def test_criterion_4_exhaustive_f81_order4_geometry(capsys):
    """Exhaustive order-4 subspace facts over F81 within 5 seconds."""
    t0 = time.time()
    ctx = FiniteFieldCtx(3, 4)
    o4 = ctx.build_order4_ctx()
    ok = True

    # independent pairs drawn from a spanning family: a*L + b*L fills k
    basis = ctx.k0_vec_basis()
    family = list(basis) + [o4.y, o4.e2, o4.e1 + o4.e2, basis[1] + basis[2]]
    pairs = 0
    for a in family:
        for b in family:
            if not k0_independent(ctx, [a, b]):
                continue
            prods = [a * l for l in o4.l_basis] + [b * l for l in o4.l_basis]
            if k0_rank(ctx, prods) != 4:
                ok = False
            pairs += 1

    # every eligible element of F81 factors into a certified L-pair
    eligible = 0
    for c in ctx.elements():
        if not c or o4.in_k1(c):
            continue
        a, b = factor_into_l_pair(o4, c)
        good = (
            a * b == c
            and o4.in_l(a)
            and o4.in_l(b)
            and all(k0_independent(ctx, [a, ctx.sigma(b, i)]) for i in range(4))
        )
        if not good:
            ok = False
        eligible += 1
    ok = ok and eligible == 78
    elapsed = time.time() - t0
    ok = ok and elapsed < 5.0
    _report(
        capsys,
        4,
        ok,
        f"F81 exhaustive: {pairs} independent pairs span via L, "
        f"{eligible}/78 eligible elements factor with postconditions "
        f"({elapsed:.2f}s < 5s)",
    )


def test_criterion_5_reduced_trace(fields, capsys):
    """Traces kill commutators and restrict to the field trace on constants."""
    rng = random.Random("acceptance-5")
    ok = True
    comms = consts = 0
    for name, ctx in fields.items():
        if ctx.sigma_order is None:
            continue
        n = ctx.sigma_order
        for _ in range(200):
            f = _random_input(ctx, rng, width=12, val_lo=-6, val_hi=6)
            g = _random_input(ctx, rng, width=12, val_lo=-6, val_hi=6)
            if not reduced_trace(commutator(f, g)).is_zero:
                ok = False
            comms += 1
        for _ in range(100):
            a = ctx.random_elem(rng)
            expect = ctx.zero()
            for r in range(n):
                expect = expect + ctx.sigma(a, r)
            if not reduced_trace(term(ctx, a, 0, 1)).eq_to_prec(
                term(ctx, expect, 0, 1), 1
            ):
                ok = False
            consts += 1
    _report(
        capsys,
        5,
        ok,
        f"reduced trace: {comms} commutators mapped to 0, "
        f"{consts} constants matched the sigma-orbit sum",
    )


def test_criterion_6_ring_axioms(fields, capsys):
    """Ring laws, the twist relation, and the multiplication precision law."""
    rng = random.Random("acceptance-6")
    ok = True
    per_law = 500
    for name, ctx in fields.items():
        width = 6 if ctx.sigma_order is None else 10
        for _ in range(per_law):
            f = _random_input(ctx, rng, width=width, val_lo=-5, val_hi=5)
            g = _random_input(ctx, rng, width=width, val_lo=-5, val_hi=5)
            h = _random_input(ctx, rng, width=width, val_lo=-5, val_hi=5)
            if (f + g) != (g + f):
                ok = False
            s1, s2 = (f + g) + h, f + (g + h)
            if not s1.eq_to_prec(s2, min(s1.prec, s2.prec)):
                ok = False
            p1, p2 = (f * g) * h, f * (g * h)
            if not p1.eq_to_prec(p2, min(p1.prec, p2.prec)):
                ok = False
            d1, d2 = f * (g + h), f * g + f * h
            if not d1.eq_to_prec(d2, min(d1.prec, d2.prec)):
                ok = False
            e1, e2 = (f + g) * h, f * h + g * h
            if not e1.eq_to_prec(e2, min(e1.prec, e2.prec)):
                ok = False
            # precision law checked on every product instance above
            for a, b in ((f, g), (f, h), (g, h)):
                if (a * b).prec != min(a.prec + b.val, b.prec + a.val):
                    ok = False
            # the defining twist x*a = sigma(a)*x
            a = ctx.random_elem(rng)
            x = term(ctx, ctx.one(), 1, 9)
            lhs = x * term(ctx, a, 0, 8)
            if not lhs.eq_to_prec(term(ctx, ctx.sigma(a, 1), 1, 9), 8):
                ok = False
    _report(
        capsys,
        6,
        ok,
        f"{per_law} instances per law per field: associativity, "
        "distributivity, twist relation, and exact precision law",
    )


def test_criterion_7_unsupported_orders(capsys):
    """Orders 2 and 3 raise UnsupportedOrder; identity sigma is rejected."""
    ok = True
    ctx2 = FiniteFieldCtx(3, 2)
    try:
        decompose(term(ctx2, ctx2.one(), 1, 9))
        ok = False
    except UnsupportedOrder as exc:
        ok = ok and exc.order == 2
    ctx3 = FiniteFieldCtx(2, 6, frob_power=2)
    try:
        decompose(term(ctx3, ctx3.one(), -1, 7))
        ok = False
    except UnsupportedOrder as exc:
        ok = ok and exc.order == 3
    for build in (
        lambda: FiniteFieldCtx(5, 1),
        lambda: FiniteFieldCtx(3, 4, frob_power=4),
        lambda: FiniteFieldCtx(2, 5, frob_power=10),
    ):
        try:
            build()
            ok = False
        except IdentityAutomorphism:
            pass
    _report(
        capsys,
        7,
        ok,
        "orders 2 and 3 rejected with UnsupportedOrder; identity sigma "
        "rejected at construction",
    )
