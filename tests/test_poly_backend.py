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

import random

import pytest

from skewlaurent import field_tower
from skewlaurent.cli import certificate_to_json
from skewlaurent.decompose import decompose
from skewlaurent.errors import UnsupportedOrder
from skewlaurent.field_tower import FiniteFieldCtx
from skewlaurent.linalg import ZechScalars
from skewlaurent.packed import PackedField
from skewlaurent.reduced_trace import reduced_trace
from skewlaurent.skew_series import SkewSeries, commutator, zero

from conftest import pdivmod, pmul

# (p, m, Frobenius power): orders 4, 4, 8, 5 and 4 with k0 = GF(4), then
# two fields whose packed slots need two bytes (m*(p-1)^2 >= 256): an
# order-2 one and an order-4 one, both checked on samples past q = 256.
FIELDS = [(2, 4, 1), (3, 4, 1), (2, 8, 1), (3, 5, 1), (2, 8, 2), (17, 2, 1), (11, 4, 1)]
EXHAUSTIVE_Q = 256
# Table fields checked against the digit-tuple reference: every power of
# the generator and every product.
REFERENCE_FIELDS = [(2, 4, 1), (3, 4, 1), (3, 5, 1), (2, 8, 2)]


@pytest.fixture(scope="module", params=FIELDS, ids=lambda f: "gf({}^{})/frob^{}".format(*f))
def backends(request):
    p, m, e = request.param
    table = FiniteFieldCtx(p, m, frob_power=e)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field_tower, "_TABLE_LIMIT", 1)
        poly = FiniteFieldCtx(p, m, frob_power=e)
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
