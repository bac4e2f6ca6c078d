"""Differential oracle: the polynomial backend against the Zech tables.

Fields up to ``_TABLE_LIMIT`` elements run on exp/log/Zech tables; larger
ones on packed polynomial arithmetic.  Lowering the limit to 1 forces
the polynomial backend on small fields, where every result can be
checked exhaustively against the tables.  Elements are matched through
``elements()``, which denotes the same element at the same position in
both backends, and that matching is itself checked by printing them.

The tables are in turn checked against schoolbook polynomial arithmetic
over digit tuples, which shares no code with either backend.
"""

import importlib
import random
from math import gcd

import pytest

from skewlaurent import field_tower
from skewlaurent.cli import certificate_to_json
from skewlaurent.decompose import decompose, factor_avoiding_multiples, factor_with_l_coeffs
from skewlaurent.errors import UnsupportedOrder
from skewlaurent.field_tower import FiniteFieldCtx
from skewlaurent.packed import PackedField, PackedGF2, PackedOddField, ZechScalars
from skewlaurent.reduced_trace import reduced_trace
from skewlaurent.skew_series import SkewSeries, commutator, zero

from conftest import pdivmod, pmul

decompose_module = importlib.import_module("skewlaurent.decompose")

# (p, m, Frobenius power): orders 4, 4, 8, 5 and 4 with k0 = GF(4), then
# two fields whose packed slots need two bytes (m*(p-1)^2 >= 256): an
# order-2 one and an order-4 one, both checked on samples past q = 256.
FIELDS = [(2, 4, 1), (3, 4, 1), (2, 8, 1), (3, 5, 1), (2, 8, 2), (17, 2, 1), (11, 4, 1)]
# Moduli other than the default, under which x is primitive, so that the
# field binds Zech tables: x is not primitive under GF(17^2)'s default.
MODULI = {(17, 2): (3, 1, 1)}
EXHAUSTIVE_Q = 256
# Table fields checked against the digit-tuple reference: every power of
# the generator and every product.
REFERENCE_FIELDS = [(2, 4, 1), (3, 4, 1), (3, 5, 1), (2, 8, 2)]


@pytest.fixture(scope="module", params=FIELDS, ids=lambda f: "gf({}^{})/frob^{}".format(*f))
def backends(request):
    p, m, e = request.param
    mod = MODULI.get((p, m))
    table = FiniteFieldCtx(p, m, frob_power=e, modulus=mod)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field_tower, "_TABLE_LIMIT", 1)
        poly = FiniteFieldCtx(p, m, frob_power=e, modulus=mod)
    assert isinstance(table._mul.__self__, ZechScalars)
    assert isinstance(poly._mul.__self__, PackedField)
    t_elems, p_elems = list(table.elements()), list(poly.elements())
    assert [str(a) for a in t_elems] == [str(a) for a in p_elems]
    return table, poly, t_elems, p_elems


@pytest.mark.parametrize(
    "p, m, e", REFERENCE_FIELDS, ids=["gf({}^{})/frob^{}".format(*f) for f in REFERENCE_FIELDS]
)
def test_tables_match_digit_tuple_reference(p, m, e):
    ctx = FiniteFieldCtx(p, m, frob_power=e)
    assert isinstance(ctx._mul.__self__, ZechScalars)
    f = ctx.modulus
    elems = list(ctx.elements())  # the i-th has the base-p digits of i

    def to_index(poly):
        return sum(c * p**k for k, c in enumerate(poly))

    polys = []
    for i in range(ctx.q):
        ds = [i // p**k % p for k in range(m)]
        while ds and not ds[-1]:
            ds.pop()
        polys.append(tuple(ds))
    g, power = ctx.gen(), (1,)
    for i in range(ctx.q):
        assert g**i == elems[to_index(power)], i
        power = pdivmod(pmul(power, (0, 1), p), f, p)[1]
    idx = _indexer(elems)
    for a, pa in zip(elems, polys):
        want = [to_index(pdivmod(pmul(pa, pb, p), f, p)[1]) for pb in polys]
        assert [idx(a * b) for b in elems] == want


def _indexer(elems):
    pos = {a.value: i for i, a in enumerate(elems)}
    assert len(pos) == len(elems)
    return lambda a: pos[a.value]


def _sample(table, t_elems, p_elems):
    """Every element for q <= EXHAUSTIVE_Q, else a seeded sample with 0 and 1."""
    if table.q <= EXHAUSTIVE_Q:
        return t_elems, p_elems
    picks = [0, 1] + random.Random("poly-oracle-sample").sample(range(2, table.q), 200)
    return [t_elems[i] for i in picks], [p_elems[i] for i in picks]


def test_arithmetic_matches_tables(backends):
    table, poly, t_elems, p_elems = backends
    t_idx, p_idx = _indexer(t_elems), _indexer(p_elems)
    t_some, p_some = _sample(table, t_elems, p_elems)
    for ta, pa in zip(t_some, p_some):
        assert [t_idx(ta + b) for b in t_some] == [p_idx(pa + b) for b in p_some]
        assert [t_idx(ta - b) for b in t_some] == [p_idx(pa - b) for b in p_some]
        assert [t_idx(ta * b) for b in t_some] == [p_idx(pa * b) for b in p_some]
        assert t_idx(-ta) == p_idx(-pa)
        if ta:
            assert t_idx(ta.inverse()) == p_idx(pa.inverse())
            for k in (0, 1, 2, 7, table.q - 2, table.q + 3, -3):
                assert t_idx(ta**k) == p_idx(pa**k)
    assert p_idx(poly.gen()) == t_idx(table.gen())
    assert p_idx(poly.from_int(table.p + 1)) == t_idx(table.from_int(table.p + 1))
    digits = [1] * table.m
    assert p_idx(poly.elem(digits)) == t_idx(table.elem(digits))


def test_sigma_matches_tables(backends):
    table, poly, t_elems, p_elems = backends
    t_idx, p_idx = _indexer(t_elems), _indexer(p_elems)
    for j in range(-1, table.sigma_order + 2):
        want = [t_idx(table.sigma(a, j)) for a in t_elems]
        assert [p_idx(poly.sigma(a, j)) for a in p_elems] == want


def test_k0_algebra_matches_tables(backends):
    table, poly, t_elems, p_elems = backends
    t_idx, p_idx = _indexer(t_elems), _indexer(p_elems)
    assert [table.k0_vec(a) for a in t_elems] == [poly.k0_vec(a) for a in p_elems]
    assert table.k0_scalar_elements() == poly.k0_scalar_elements()
    assert [t_idx(table.k0_scalar_to_elem(c)) for c in table.k0_scalar_elements()] == [
        p_idx(poly.k0_scalar_to_elem(c)) for c in poly.k0_scalar_elements()
    ]
    assert [t_idx(b) for b in table.k0_vec_basis()] == [p_idx(b) for b in poly.k0_vec_basis()]
    n = table.sigma_order
    assert t_idx(table.find_witness(n)) == p_idx(poly.find_witness(n))


def _series_cases(table, t_elems, rng):
    """(val, coefficient indices, prec) per route, 3 each, plus a zero."""
    nonzero = range(1, table.q)
    width = 10
    cases = []
    if table.sigma_order == 4:
        minus = [i for i in nonzero if table.sigma(t_elems[i], 1) == -t_elems[i]]
        other = [i for i in nonzero if i not in minus]
        leads = [(rng.choice((0, 1, 3)), other), (2, other), (2, minus)]
    else:
        leads = [(r, list(nonzero)) for r in range(table.sigma_order)]
    for residue, pool in leads:
        for _ in range(3):
            val = residue + table.sigma_order * rng.randint(-2, 1)
            idx = [rng.choice(pool)] + [rng.randrange(table.q) for _ in range(width - 1)]
            cases.append((val, idx, val + width))
    cases.append((3, [], 3))
    return cases


def test_certificates_match_tables(backends):
    table, poly, t_elems, p_elems = backends
    rng = random.Random("poly-oracle:{}".format(table.field_spec()))
    routes = set()
    for val, idx, prec in _series_cases(table, t_elems, rng):
        if not idx:
            ft, fp = zero(table, prec), zero(poly, prec)
        else:
            ft = SkewSeries(table, val, [t_elems[i] for i in idx], prec)
            fp = SkewSeries(poly, val, [p_elems[i] for i in idx], prec)
        if table.sigma_order < 4 and idx:
            with pytest.raises(UnsupportedOrder):
                decompose(fp)
            continue
        ct, cp = decompose(ft), decompose(fp)
        assert certificate_to_json(ct) == certificate_to_json(cp)
        routes.add(cp.method)
        for b, w in cp.pairs:
            assert reduced_trace(commutator(b, w)).is_zero
    if table.sigma_order < 4:
        assert routes == {"ZeroInput"}
    elif table.sigma_order == 4:
        assert routes == {"Order4Split", "Order4L", "Order4Conjugated", "ZeroInput"}
    else:
        assert routes == {"DegreeAtLeast5", "ZeroInput"}


# ---------------------------------------------------------------------------
# delayed reduction on odd-p packed fields against the row loop
#
# series_mul and decompose._factor sum products in wide Kronecker slots and
# reduce each sum once (PackedOddField.wide) when the operands are dense
# enough; the row loop reduces every product.  Both must give the same
# values.  Forcing the loop is setting the context's _wide to None; forcing
# the delayed product is a _DELAYED_RATIO of 0.  Only fields with one-byte
# kernel slots delay; wider ones, as GF(17^5) and GF(257^3), keep the loop.

# (p, m, Frobenius power): sigma of every order from 2 to 12
DELAYED_FIELDS = [
    (11, 2, 1), (7, 3, 1), (5, 8, 2), (3, 5, 1), (3, 6, 1), (3, 7, 1), (3, 8, 1),
    (3, 9, 1), (3, 10, 1), (3, 11, 1), (3, 12, 1),
]  # fmt: skip
SHAPES = ("dense", "sparse", "mixed", "top")


@pytest.fixture(scope="module", params=DELAYED_FIELDS, ids=lambda f: "gf({}^{})/frob^{}".format(*f))
def packed_odd(request):
    p, m, e = request.param
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field_tower, "_TABLE_LIMIT", 1)
        ctx = FiniteFieldCtx(p, m, frob_power=e)
    assert ctx._wide is not None
    return ctx


def _coeffs(ctx, rng, width, shape):
    """Coefficients of one operand: every digit p - 1 for "top", else random
    ones, nonzero everywhere ("dense"), at about a quarter of the offsets
    ("sparse") or dense in the lower half only ("mixed"); the first is
    nonzero."""
    top = ctx.elem([ctx.p - 1] * ctx.m)
    out = []
    for j in range(width):
        if shape == "top":
            out.append(top)
        elif j and (
            shape == "sparse" and rng.random() < 0.75 or shape == "mixed" and 2 * j >= width
        ):
            out.append(ctx.zero())
        else:
            out.append(ctx.random_elem(rng) or ctx.one())
    return out


def _slot_checked(ctx, ks):
    """ctx._wide, each reduce checked against its k's slot bound: no slot of
    a sum past k*m*(p-1)^2 and nothing past the 2m - 1 slots of a product."""
    wide, kern, p, m = ctx._wide, ctx._mul.__self__, ctx.p, ctx.m

    def checked(k):
        lift, reduce = wide(k)
        bits = lift(kern.x).bit_length() - 1
        cap = k * m * (p - 1) ** 2
        assert cap < 1 << bits

        def reduce_checked(s):
            assert s >> bits * (2 * m - 1) == 0
            assert max((s >> bits * i) & ((1 << bits) - 1) for i in range(2 * m - 1)) <= cap
            ks.append(k)
            return reduce(s)

        return lift, reduce_checked

    return checked


@pytest.mark.parametrize("p, m", [(3, 4), (5, 8), (7, 4), (11, 2)], ids=lambda v: str(v))
def test_wide_slots_hold_every_sum(p, m):
    kern = PackedOddField(p, m, field_tower.default_modulus(p, m))
    unit = m * (p - 1) ** 2  # the largest slot value of one product
    ks = {1, 2, 3}
    for nbytes in range(1, 5):  # the last k of each slot width, and the first of the next
        k = (256**nbytes - 1) // unit
        if 1 <= k <= 600:
            ks |= {k, k + 1}
    full = kern.pack([p - 1] * m)
    rng = random.Random(f"wide:{p}^{m}")
    for k in sorted(ks):
        lift, reduce = kern.wide(k)
        bits = lift(kern.x).bit_length() - 1
        assert lift(1) == 1 and bits % 8 == 0
        # the narrowest slot that holds k*unit
        assert k * unit < 1 << bits and (bits == 8 or k * unit >= 1 << bits - 8)
        s = k * lift(full) ** 2  # k products at every digit p - 1
        mask = (1 << bits) - 1
        assert [s >> bits * i & mask for i in range(2 * m - 1)] == [
            k * (min(i, 2 * m - 2 - i) + 1) * (p - 1) ** 2 for i in range(2 * m - 1)
        ]
        assert s >> bits * (2 * m - 1) == 0
        want = 0
        for _ in range(k):
            want = kern.add(want, kern.mul(full, full))
        assert reduce(s) == want
        pairs = [
            [kern.pack([rng.randrange(p) for _ in range(m)]) for _ in range(2)] for _ in range(k)
        ]
        want = 0
        for a, b in pairs:
            want = kern.add(want, kern.mul(a, b))
        assert reduce(sum(lift(a) * lift(b) for a, b in pairs)) == want


def test_delayed_series_mul_matches_row_loop(packed_odd, monkeypatch):
    ctx = packed_odd
    rng = random.Random("delayed-mul:" + ctx.field_spec())
    ks = []
    cases = []
    for width in (1, 2, 3, 8, 17, 40):
        for f_shape in SHAPES:
            g_shape = rng.choice(SHAPES)
            operands = []
            for shape, w in ((f_shape, width), (g_shape, width - rng.randrange(width))):
                val = rng.randint(-13, 13)
                operands.append(SkewSeries(ctx, val, _coeffs(ctx, rng, w, shape), val + w))
            cases.append(tuple(operands))

    def products():
        return [[c.value for c in (f * g).coeffs] for f, g in cases]

    monkeypatch.setattr(ctx, "_wide", _slot_checked(ctx, ks))
    chosen = products()  # each product takes the path series_mul chooses
    used = len(ks)
    monkeypatch.setattr(field_tower, "_DELAYED_RATIO", 0)
    delayed = products()
    monkeypatch.setattr(ctx, "_wide", None)
    loop = products()
    assert chosen == loop
    assert delayed == loop
    assert 0 < used < len(ks)  # the rule keeps some products on the loop


def test_delayed_factor_matches_row_loop(packed_odd, monkeypatch):
    ctx = packed_odd
    n = ctx.sigma_order
    rng = random.Random("delayed-factor:" + ctx.field_spec())
    cases = []
    for width in (8, 24, 48):
        for shape in SHAPES:
            val = rng.randint(-9, 9)
            u = val + rng.randint(-6, 6)  # the loop needs no split avoiding multiples of n
            cases.append((SkewSeries(ctx, val, _coeffs(ctx, rng, width, shape), val + width), u))
    if n == 4:
        o4 = ctx.build_order4_ctx()
        for width in (8, 24, 48):
            for shape in SHAPES:
                coeffs = _coeffs(ctx, rng, width, shape)
                while o4.in_k1(coeffs[0]):
                    coeffs[0] = ctx.random_elem(rng)
                cases.append((SkewSeries(ctx, 2, coeffs, 2 + width), None))

    # a step that sets every b_t and c_t, so that any order delays early:
    # it solves nothing, but both paths must pass it the same sums
    dense = [(f, u, "dense") for f, u in cases if u is not None]

    def factors():
        out = []
        for f, u, *how in cases + dense:
            if how:
                b0 = f.coeffs[0].value
                pair = decompose_module._factor(f, u, b0, b0, lambda t, acc: (acc, acc))
            elif u is None:
                pair = factor_with_l_coeffs(f)
            else:
                pair = factor_avoiding_multiples(f, u, f.val - u)
            out.append([(s.val, s.prec, [c.value for c in s.coeffs]) for s in pair])
        return out

    ks = []
    monkeypatch.setattr(ctx, "_wide", _slot_checked(ctx, ks))
    delayed = factors()
    monkeypatch.setattr(ctx, "_wide", None)
    assert delayed == factors()
    assert ks  # the widest factorisations delay their sums


def test_delayed_reduction_only_on_odd_packed_fields(gf34, gf220, qt_shift, gf58):
    # Zech tables, GF(2^m), Q(t) and kernel slots wider than a byte (17^5:
    # two, 257^3: three) keep the row loop
    assert gf34._wide is None and gf220._wide is None and qt_shift._wide is None
    assert gf58._wide is not None
    for p, m in ((17, 5), (257, 3)):
        ctx = FiniteFieldCtx(p, m)
        assert ctx._mul.__self__.shift > 8 and ctx._wide is None


# ---------------------------------------------------------------------------
# the backend interface: a context binds Zech tables, PackedGF2 or
# PackedOddField without asking which, so each must keep the same contract

# (p, m, backend): GF(5^4)'s default modulus leaves x non-primitive, so
# it has no Zech tables
CONTRACT = [
    (2, 4, ZechScalars), (2, 4, PackedGF2), (3, 4, ZechScalars), (3, 4, PackedOddField),
    (2, 8, ZechScalars), (2, 8, PackedGF2), (5, 4, PackedOddField),
]  # fmt: skip


@pytest.mark.parametrize(
    "p, m, kind", CONTRACT, ids=[f"gf({p}^{m})-{k.__name__}" for p, m, k in CONTRACT]
)
def test_backends_share_one_interface(p, m, kind):
    q, mod = p**m, field_tower.default_modulus(p, m)
    tables = field_tower._x_tables(p, m, mod)
    assert (tables is None) == ((p, m) == (5, 4))
    ops = tables if kind is ZechScalars else field_tower._kernel(p, m, mod, m)
    assert type(ops) is kind
    values = [ops.from_base_p(i) for i in range(q)]
    assert [ops.digits(v) for v in values] == [
        tuple(i // p**k % p for k in range(m)) for i in range(q)
    ]
    assert all(ops.pack(ops.digits(v)) == v for v in values)
    assert ops.digits(ops.x) == (0, 1) + (0,) * (m - 2)
    assert all(ops.add(v, ops.neg(v)) == 0 for v in values)
    for e in range(1, m):
        n = m // gcd(m, e)
        maps = ops.sigma_maps(p**e, n)
        assert len(maps) == n
        for j, sig in enumerate(maps):
            k = p ** (e * j)
            assert [sig(v) for v in values] == [ops.pow(v, k) for v in values], (e, j)
    rng = random.Random(f"contract:{p}:{m}:{kind.__name__}")
    images = [rng.choice(values) for _ in range(m)]
    lin = ops.linear(images)
    for v in values:
        want = 0
        for d, img in zip(ops.digits(v), images):
            for _ in range(d):
                want = ops.add(want, img)
        assert lin(v) == want, v
    one_byte_odd_kernel = isinstance(ops, PackedOddField) and m * (p - 1) ** 2 < 256
    assert (ops.wide is not None) == one_byte_odd_kernel
