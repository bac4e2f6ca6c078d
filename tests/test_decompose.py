"""Decomposition engine: brackets, factorisations, dispatch, certificates."""

import hashlib
import importlib
import random
from collections import Counter

import pytest

from skewlaurent.cli import (
    build_ctx,
    certificate_from_json,
    certificate_to_json,
    parse_series,
)

from skewlaurent.decompose import (
    METHODS,
    Certificate,
    bracket_preimage,
    decompose,
    factor_avoiding_multiples,
    factor_into_l_pair,
    factor_with_l_coeffs,
    l_pair_step,
    split_exponent,
    verify_certificate,
    x_bracket_preimage,
)
from skewlaurent.errors import (
    DecompositionError,
    FieldMismatch,
    IdentityAutomorphism,
    K1Input,
    K1Leading,
    NoSplit,
    UnsupportedOrder,
    WitnessFixed,
    ZeroInput,
)
from skewlaurent.field_tower import FFElem, FiniteFieldCtx
from skewlaurent.skew_series import SkewSeries, commutator, from_terms, term, zero

from conftest import (
    k0_independent,
    l_pair_elimination_oracle,
    l_pair_oracle,
    nonzero_elem,
    random_series,
)

# the module: the package re-exports the function decompose under its name
decompose_module = importlib.import_module("skewlaurent.decompose")


# ---------------------------------------------------------------------------
# bracket preimages


def test_bracket_preimage_term_frozen(qt_shift):
    t = qt_shift.gen()
    # [t, c*x^1] = (t - (t+1))*c*x^1, so the preimage of x^1 is -x^1
    w = bracket_preimage(t, term(qt_shift, qt_shift.one(), 1, 8))
    assert w == term(qt_shift, -qt_shift.one(), 1, 8)
    b = term(qt_shift, t, 0, 7)
    assert commutator(b, w).eq_to_prec(term(qt_shift, qt_shift.one(), 1, 8), 8)


def test_bracket_preimage_term_fixed_witness(gf34):
    y = gf34.find_witness(4)
    with pytest.raises(WitnessFixed) as exc:
        bracket_preimage(y, term(gf34, gf34.one(), 0, 5))
    assert exc.value.exponent == 0
    with pytest.raises(WitnessFixed):
        bracket_preimage(y, term(gf34, gf34.one(), 4, 9))


def test_bracket_preimage_random(gf25, gf35, gf34, qt_shift):
    rng = random.Random("bracket")
    for ctx in (gf25, gf35, gf34):
        n = ctx.sigma_order
        y = ctx.find_witness(4)
        for _ in range(50):
            # support avoiding multiples of n, as produced by the factoriser
            terms = []
            for e in range(-6, 10):
                if e % n and rng.random() < 0.5:
                    terms.append((e, ctx.random_elem(rng)))
            if not terms:
                continue
            g = from_terms(ctx, terms, 12)
            w = bracket_preimage(y, g)
            b = term(ctx, y, 0, 12 - w.val)
            assert commutator(b, w).eq_to_prec(g, 12)
    t = qt_shift.gen()
    for _ in range(25):
        g = random_series(qt_shift, rng, -4, 1, 6)
        if g._coeff(0):
            continue  # only sigma^0 fixes t
        w = bracket_preimage(t, g)
        b = term(qt_shift, t, 0, g.prec - w.val)
        assert commutator(b, w).eq_to_prec(g, g.prec)


def test_bracket_preimage_inverts_once_per_residue(gf35, monkeypatch):
    n = gf35.sigma_order
    y = gf35.find_witness(n)
    inverted = []
    inv = gf35._inv
    monkeypatch.setattr(gf35, "_inv", lambda a: inverted.append(a) or inv(a))
    rng = random.Random("residues")
    g = from_terms(gf35, [(e, nonzero_elem(gf35, rng)) for e in range(-9, 55) if e % n], 55)
    w = bracket_preimage(y, g)
    assert len(inverted) <= n
    assert commutator(term(gf35, y, 0, 55 - w.val), w).eq_to_prec(g, 55)


def test_bracket_preimage_names_the_first_fixed_exponent(gf35, gf28):
    # the normal-basis witness of GF(3^5) is fixed exactly at multiples of 5;
    # -5, 0 and 5 share that residue, and 3 shares one with -2
    y = gf35.find_witness(5)
    g = from_terms(gf35, [(e, gf35.one()) for e in (-2, -5, 0, 3, 5)], 9)
    with pytest.raises(WitnessFixed, match=r"^sigma\^-5 fixes the chosen witness$") as exc:
        bracket_preimage(y, g)
    assert exc.value.exponent == -5
    # an element of GF(2^4) inside GF(2^8) is fixed by sigma^4, not by sigma
    b = next(c for c in gf28.elements() if gf28.sigma(c, 4) == c and gf28.sigma(c, 1) != c)
    g = from_terms(gf28, [(e, gf28.gen()) for e in (1, 3, 4, 9, 11, 12)], 14)
    with pytest.raises(WitnessFixed, match=r"^sigma\^4 fixes the chosen witness$") as exc:
        bracket_preimage(b, g)
    assert exc.value.exponent == 4
    # a zero coefficient at a fixed exponent needs no division
    g = from_terms(gf28, [(e, gf28.gen()) for e in (1, 3, 9, 11)], 14)
    w = bracket_preimage(b, g)
    assert commutator(term(gf28, b, 0, 14 - w.val), w).eq_to_prec(g, 14)


def test_bracket_preimage_zero_coefficients_pass_through(gf34):
    y = gf34.find_witness(4)
    g = from_terms(gf34, [(1, gf34.one())], 9)
    w = bracket_preimage(y, g)
    assert w.val == 1 and w.prec == 9


# ---------------------------------------------------------------------------
# exponent splitting


def test_split_exponent_examples():
    assert split_exponent(7, 4) == (6, 1)
    assert split_exponent(0, 5) == (1, -1)
    with pytest.raises(NoSplit):
        split_exponent(2, 4)
    with pytest.raises(NoSplit):
        split_exponent(-6, 4)
    with pytest.raises(UnsupportedOrder):
        split_exponent(1, 3)
    with pytest.raises(UnsupportedOrder):
        split_exponent(0, 2)


def test_split_exponent_exhaustive():
    for n in range(4, 13):
        for s in range(-50, 51):
            if n == 4 and s % 4 == 2:
                continue
            u, v = split_exponent(s, n)
            assert u + v == s
            assert u % n and v % n and (u - v) % n


# ---------------------------------------------------------------------------
# factorisation avoiding multiples of n


def test_factor_avoiding_multiples_example(gf25):
    a = gf25.gen()
    f = term(gf25, a, 3, 13)
    u, v = split_exponent(3, 5)
    assert (u, v) == (2, 1)
    g, h = factor_avoiding_multiples(f, u, v)
    assert g.val == 2 and h.val == 1
    assert (g * h).eq_to_prec(f, f.prec)


def test_factor_avoiding_multiples_random(gf25, gf35, gf28, gf34, gf24, gf58, gf220):
    rng = random.Random("factor-n")
    for ctx in (gf25, gf35, gf28, gf34, gf24, gf58, gf220):
        n = ctx.sigma_order
        for _ in range(40):
            f = random_series(ctx, rng, -8, 8, 20)
            if n == 4 and f.val % 4 == 2:
                continue
            u, v = split_exponent(f.val, n)
            g, h = factor_avoiding_multiples(f, u, v)
            assert g.prec == f.prec - v and h.prec == f.prec - u
            prod = g * h
            assert prod.prec == f.prec
            assert prod.eq_to_prec(f, f.prec)
            for e in range(g.val, g.prec):
                if e % n == 0:
                    assert not g._coeff(e)
            for e in range(h.val, h.prec):
                if e % n == 0:
                    assert not h._coeff(e)


def test_factor_maps_each_image_once(gf35, monkeypatch):
    # every application of sigma during the factorisation, through the seam
    # or through ctx.sigma, is recorded with the raw value it maps
    mapped = []
    sigma_map, sigma = FiniteFieldCtx._sigma_map, FiniteFieldCtx.sigma

    def counted_map(self, i):
        sig = sigma_map(self, i)
        return lambda a: mapped.append(a) or sig(a)

    def counted_sigma(self, a, i=1):
        if i % self.sigma_order:
            mapped.append(a.value)
        return sigma(self, a, i)

    monkeypatch.setattr(FiniteFieldCtx, "_sigma_map", counted_map)
    monkeypatch.setattr(FiniteFieldCtx, "sigma", counted_sigma)
    n = gf35.sigma_order
    rng = random.Random("images-once")
    for _ in range(4):
        f = random_series(gf35, rng, -8, 8, 64)
        u, v = split_exponent(f.val, n)
        mapped.clear()
        g, h = factor_avoiding_multiples(f, u, v)
        seen = Counter(mapped)
        # c_j = sigma^u of h's coefficient at x^(v+j); no value is mapped
        # more than n - 1 times for each c_j that holds it
        cs = Counter(gf35.sigma(c, u).value for c in h.coeffs if c)
        assert seen <= Counter({c: (n - 1) * k for c, k in cs.items()})
        assert (g * h).eq_to_prec(f, f.prec)


# ---------------------------------------------------------------------------
# order-4 L-pair machinery


def test_factor_into_l_pair_guards(gf34):
    o4 = gf34.build_order4_ctx()
    with pytest.raises(ZeroInput):
        factor_into_l_pair(o4, gf34.zero())
    with pytest.raises(K1Input):
        factor_into_l_pair(o4, o4.e1)
    with pytest.raises(K1Input):
        factor_into_l_pair(o4, 2 * o4.e1)


def test_factor_into_l_pair_postconditions(gf34):
    o4 = gf34.build_order4_ctx()
    checked = 0
    for c in gf34.elements():
        if not c or o4.in_k1(c):
            continue
        a, b = factor_into_l_pair(o4, c)
        assert a * b == c
        assert o4.in_l(a) and o4.in_l(b)
        for i in range(4):
            assert k0_independent(gf34, [a, gf34.sigma(b, i)])
        checked += 1
    assert checked == 78  # 81 elements minus zero minus the 2 nonzero k1 elements


# name -> (p, m, Frobenius power, modulus or None for the default)
L_PAIR_FIELDS = {
    "gf34": (3, 4, 1, None),
    "gf24": (2, 4, 1, None),
    "gf28/frob2": (2, 8, 2, None),
    "gf54": (5, 4, 1, None),  # x is not primitive: the packed kernel
    "gf58/frob2": (5, 8, 2, (3, 2, 1, 0, 0, 0, 0, 0, 1)),
    "gf312/frob3": (3, 12, 3, (2, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1)),
}


@pytest.mark.parametrize("name", list(L_PAIR_FIELDS))
def test_factor_into_l_pair_matches_elimination(name):
    # the closed form picks the L-pair that elimination over k0 picks: on
    # every nonzero c outside k1 of the fields up to 625 elements, and on
    # 300 seeded c of the larger ones
    p, m, e, mod = L_PAIR_FIELDS[name]
    ctx = FiniteFieldCtx(p, m, frob_power=e, modulus=mod)
    o4 = ctx.build_order4_ctx()
    if ctx.q <= 625:
        cs = list(ctx.elements())
    else:
        rng = random.Random(f"l-pair:{name}")
        cs = [ctx.random_elem(rng) for _ in range(300)]
    kinds = Counter()
    for c in cs:
        if not c or o4.in_k1(c):
            continue
        want, kind = l_pair_elimination_oracle(o4, c)
        assert factor_into_l_pair(o4, c) == want, c
        kinds[kind] += 1
    if ctx.q <= 625:  # each case of the closed form occurs
        assert set(kinds) == {"t1 != 0", "t1 = 0", "sigma2-fixed"}, kinds
    if name == "gf34":
        assert kinds == Counter({"t1 != 0": 54, "t1 = 0": 18, "sigma2-fixed": 6})


def test_factor_with_l_coeffs(gf34, gf24, gf58):
    rng = random.Random("factor-l")
    for ctx in (gf34, gf24, gf58):
        o4 = ctx.build_order4_ctx()
        done = 0
        while done < 60:
            f = random_series(ctx, rng, -8, 8, 18, dense=False)
            if f.val % 4 != 2 or o4.in_k1(f.coeffs[0]):
                continue
            f1, f2 = factor_with_l_coeffs(f)
            assert f1.prec == f.prec and f1.val == f.val
            assert f2.prec == f.prec - f.val and f2.val == 0
            prod = f1 * f2
            assert prod.prec == f.prec
            assert prod.eq_to_prec(f, f.prec)
            for s in (f1, f2):
                for c in s.coeffs:
                    if c:
                        assert o4.in_l(c)
            done += 1


def test_factor_with_l_coeffs_rejects_k1_leading(gf34):
    o4 = gf34.build_order4_ctx()
    f = term(gf34, o4.e1, 2, 9)
    with pytest.raises(K1Leading):
        factor_with_l_coeffs(f)


def _step_pair(o4, step, t, acc):
    """What step returns for (t, acc), as elements."""
    b, c = step(t, acc.value)
    return FFElem(o4.ctx, b), FFElem(o4.ctx, c)


@pytest.mark.parametrize("name", ["gf34", "gf24", "gf58", "gf312"])
def test_l_pair_step_is_the_particular_solution(name, request):
    # the trace formula gives the pair that elimination over k0 gives, at
    # every residue of t mod 4, for seeded accumulators and L-pairs
    ctx = request.getfixturevalue(name)
    o4 = ctx.build_order4_ctx()
    rng = random.Random(f"l-pair-step:{name}")
    for _ in range(3):
        lead = nonzero_elem(ctx, rng)
        while o4.in_k1(lead):
            lead = nonzero_elem(ctx, rng)
        a0, b0 = factor_into_l_pair(o4, lead)
        step = l_pair_step(o4, a0, b0)
        for t in range(1, 9):
            s = ctx.sigma(b0, t)
            for _ in range(12):
                acc = ctx.random_elem(rng)
                b, c = _step_pair(o4, step, t, acc)
                assert (b, c) == l_pair_oracle(o4, a0, b0, t, acc), (t, acc)
                assert a0 * c + b * s == acc
                assert o4.in_l(b) and o4.in_l(c)


def test_l_pair_step_on_a_k0_dependent_pair(gf34):
    # a0 = b0 puts sigma^t(b0)/a0 in k0 at t = 0 mod 4, also at t = 2 mod 4
    # for a0 in k2 and at every t for a0 in k1: there the step solves only
    # inside a0*L, as elimination does, and raises where elimination finds
    # no solution
    o4 = gf34.build_order4_ctx()
    for a0, residues in ((o4.e1, 4), (o4.e2, 2), (o4.l_basis[0], 1)):
        step = l_pair_step(o4, a0, a0)
        raised = 0
        for t in range(1, 5):
            for acc in gf34.elements():
                want = l_pair_oracle(o4, a0, a0, t, acc)
                if want is None:
                    with pytest.raises(DecompositionError, match="L-pair independence failed"):
                        step(t, acc.value)
                    raised += 1
                else:
                    assert _step_pair(o4, step, t, acc) == want, (t, acc)
        # 54 of the 81 accumulators lie outside a0*L at each such residue
        assert raised == residues * 54


@pytest.mark.parametrize(
    "spec, text, lead, message",
    [
        (("gf(3^4)", "frob"), "(g)*x^-2 + x + (g^3)*x^4 + O(x^10)", "e1",
         "L-pair independence failed mid-factorisation"),
        (("gf(3^4)", "frob"), "(g)*x^-2 + x + (g^3)*x^4 + O(x^10)", "e2",
         "internal failure: a constructed certificate did not verify"),
        (("gf(5^8);poly=3,2,1,0,0,0,0,0,1", "frob^2"),
         "(g^1234)*x^2 + (g+3)*x^3 + (2*g^6)*x^5 + O(x^10)", "e2",
         "L-pair independence failed mid-factorisation"),
    ],
)
def test_order4l_with_a_k0_dependent_pair(spec, text, lead, message, monkeypatch):
    # L-pairs (a, a) with a in k1 or k2, which factor_into_l_pair never
    # returns; the outcomes are those of the elimination the step replaced
    ctx = build_ctx(*spec)
    a = getattr(ctx.build_order4_ctx(), lead)
    monkeypatch.setattr(decompose_module, "factor_into_l_pair", lambda o4, c: (a, a))
    with pytest.raises(DecompositionError) as exc:
        decompose(parse_series(ctx, text))
    assert str(exc.value) == message


def test_x_bracket_preimage(gf34):
    rng = random.Random("x-bracket")
    o4 = gf34.build_order4_ctx()
    for _ in range(40):
        terms = []
        for e in range(-3, 6):
            if rng.random() < 0.6:
                cs = [rng.randrange(3) for _ in range(3)]
                c = gf34.zero()
                for ci, l in zip(cs, o4.l_basis):
                    c = c + gf34.from_int(ci) * l
                if c:
                    terms.append((e, c))
        if not terms:
            continue
        g = from_terms(gf34, terms, 7)
        w = x_bracket_preimage(g)
        assert w.prec == g.prec - 1
        x = term(gf34, gf34.one(), 1, g.prec - w.val)
        assert commutator(x, w).eq_to_prec(g, g.prec)


# ---------------------------------------------------------------------------
# full decomposition: frozen examples


def test_decompose_infinite_frozen(qt_shift):
    # x^-1 is reassembled as x^-2 * x; both witnesses bracket against t
    f = term(qt_shift, qt_shift.one(), -1, 31)
    cert = decompose(f)
    assert cert.method == "InfiniteWitness"
    (b1, w1), (b2, w2) = cert.pairs
    t = qt_shift.gen()
    assert b1.coeff_at(0) == t and b2.coeff_at(0) == t
    assert w1 == term(qt_shift, qt_shift.one() / qt_shift.from_int(2), -2, 30)
    assert w2 == term(qt_shift, -qt_shift.one(), 1, 33)
    assert verify_certificate(cert)


def test_decompose_constant_one(qt_shift, gf25):
    for ctx in (qt_shift, gf25):
        f = term(ctx, ctx.one(), 0, 12)
        cert = decompose(f)
        assert verify_certificate(cert)


def test_decompose_order4_branch_examples(gf34):
    o4 = gf34.build_order4_ctx()
    # valuation 1 mod 4: split route
    cert = decompose(term(gf34, gf34.one(), 5, 17))
    assert cert.method == "Order4Split"
    # valuation 2 mod 4, leading coefficient outside k1
    assert not o4.in_k1(gf34.gen())
    cert = decompose(term(gf34, gf34.gen(), 2, 14))
    assert cert.method == "Order4L"
    # valuation 2 mod 4, leading coefficient inside k1: conjugate first
    cert = decompose(term(gf34, o4.e1, 2, 14))
    assert cert.method == "Order4Conjugated"
    for b, w in cert.pairs:
        assert b.valuation() == 1  # conjugates of x


def test_decompose_zero(gf34, gf9, qt_shift):
    for ctx in (gf34, gf9, qt_shift):
        for p in (9, 1, 0, -4):
            cert = decompose(zero(ctx, p))
            assert cert.method == "ZeroInput"
            assert cert.check_prec == p
            assert verify_certificate(cert)


def test_decompose_rejects_orders_2_and_3(gf9):
    with pytest.raises(UnsupportedOrder) as exc:
        decompose(term(gf9, gf9.one(), 1, 9))
    assert exc.value.order == 2
    ctx3 = FiniteFieldCtx(2, 6, frob_power=2)
    with pytest.raises(UnsupportedOrder) as exc:
        decompose(term(ctx3, ctx3.one(), 0, 8))
    assert exc.value.order == 3


def test_identity_sigma_unreachable():
    with pytest.raises(IdentityAutomorphism):
        FiniteFieldCtx(5, 1)


def test_decompose_experimental_flag(gf34):
    ctx = FiniteFieldCtx(2, 8, frob_power=2)
    cert = decompose(term(ctx, ctx.gen(), 1, 9))
    assert cert.experimental
    cert34 = decompose(term(gf34, gf34.gen(), 1, 9))
    assert not cert34.experimental


def test_decompose_random_all_routes(gf25, gf35, gf28, gf34, qt_shift):
    rng = random.Random("dispatch")
    expected = {
        gf25: {"DegreeAtLeast5"},
        gf35: {"DegreeAtLeast5"},
        gf28: {"DegreeAtLeast5"},
        gf34: {"Order4Split", "Order4L", "Order4Conjugated"},
        qt_shift: {"InfiniteWitness"},
    }
    for ctx, methods in expected.items():
        seen = set()
        rounds = 40 if ctx is not qt_shift else 15
        for _ in range(rounds):
            f = random_series(ctx, rng, -8, 8, 16, dense=False)
            cert = decompose(f)
            seen.add(cert.method)
            assert cert.check_prec == f.prec
        assert seen <= methods


# ---------------------------------------------------------------------------
# certificate verification behaviour


def test_verify_rejects_tampering(gf34):
    f = term(gf34, gf34.gen(), 1, 10)
    cert = decompose(f)
    assert verify_certificate(cert)

    # tampered input series
    wrong = Certificate(
        input=f + term(gf34, gf34.one(), 3, 10),
        pairs=cert.pairs,
        method=cert.method,
        check_prec=cert.check_prec,
    )
    assert not verify_certificate(wrong)

    # tampered witness
    (b1, w1), (b2, w2) = cert.pairs
    bad_pairs = ((b1, w1 + term(gf34, gf34.one(), 2, w1.prec)), (b2, w2))
    assert not verify_certificate(
        Certificate(input=f, pairs=bad_pairs, method=cert.method, check_prec=cert.check_prec)
    )

    # claimed precision beyond what the witnesses support
    assert not verify_certificate(
        Certificate(input=f, pairs=cert.pairs, method=cert.method, check_prec=cert.check_prec + 1)
    )

    # wrong pair count
    assert not verify_certificate(
        Certificate(input=f, pairs=cert.pairs[:1], method=cert.method, check_prec=cert.check_prec)
    )

    # a claim below the input's precision, and a route decompose never names
    assert not verify_certificate(
        Certificate(input=f, pairs=cert.pairs, method=cert.method, check_prec=cert.check_prec - 1)
    )
    assert not verify_certificate(
        Certificate(input=f, pairs=cert.pairs, method="Bogus", check_prec=cert.check_prec)
    )


def test_verify_mixed_contexts_raise(gf34, gf25):
    f = term(gf34, gf34.one(), 1, 8)
    cert = decompose(f)
    alien = term(gf25, gf25.one(), 1, 8)
    mixed = Certificate(
        input=alien, pairs=cert.pairs, method=cert.method, check_prec=cert.check_prec
    )
    with pytest.raises(FieldMismatch):
        verify_certificate(mixed)


def test_certificates_are_deterministic(gf34, qt_shift):
    rng = random.Random("determinism")
    for ctx in (gf34, qt_shift):
        f = random_series(ctx, rng, -5, 5, 12)
        c1 = decompose(f)
        c2 = decompose(f)
        assert c1 == c2


# ---------------------------------------------------------------------------
# golden certificates: large fields (q > 2^16, polynomial backend), then
# Zech-table fields and Q(t)

_F20 = ("gf(2^20)", "frob")
_F58 = ("gf(5^8);poly=3,2,1,0,0,0,0,0,1", "frob^2")
_F312 = ("gf(3^12);poly=2,1,0,0,0,1,0,0,0,0,0,0,1", "frob^3")
_F34 = ("gf(3^4)", "frob")
_F24 = ("gf(2^4)", "frob")
# (field, input, route, SHA-256 of certificate_to_json).  Both moduli of
# the order-4 fields are primitive, so g^E lies in k1 = {z : sigma(z) = -z}
# exactly when E = M/2 mod M, M = (q - 1)/(q0 - 1): 16276 for GF(5^8),
# 20440 for GF(3^12).  Those inputs take the Order4Conjugated route.
GOLDEN = [
    (_F20, "(g^3+1)*x^-2 + (g)*x^1 + (g^19+g^7)*x^5 + O(x^6)", "DegreeAtLeast5",
     "45df50657c0ec47f8578062316908dbb5cf2b5077a205a4211be6fa31286ec4a"),
    (_F20, "x^7 + (g^5+g^2+1)*x^8 + (g^11)*x^9 + (g+1)*x^12 + O(x^16)", "DegreeAtLeast5",
     "b80b7485bdb44720d4c019be94ffc299561aa1fe114553b1ad134e53df3701a2"),
    (_F58, "(g^3+2)*x^1 + (4*g)*x^2 + (g^7+3*g^2)*x^4 + O(x^9)", "Order4Split",
     "e7795813473a5f9193fcd95a27f9aa0d887d269377b696b5e312c4a074046b9b"),
    (_F58, "(2*g^5+g)*x^-4 + (g^2+1)*x^-1 + (3)*x^0 + O(x^6)", "Order4Split",
     "9c9c535cc2083ebc224eec749f220f8c348962e0640208634d5b6973c721794c"),
    (_F58, "(g^1234)*x^2 + (g+3)*x^3 + (2*g^6)*x^5 + O(x^10)", "Order4L",
     "532b8e2d60817e5d016f6e61031110784251d510558f98a883543f75b6c27fe7"),
    (_F58, "(g^99)*x^-2 + (g^4+g)*x^0 + (g^3)*x^1 + (1)*x^4 + O(x^6)", "Order4L",
     "2c4f85cf0be6d41de05f4268602d7a9daa8cbda2ed93a23b08813c6508df467a"),
    (_F58, "(g^8138)*x^2 + (g+1)*x^3 + (g^2)*x^6 + O(x^10)", "Order4Conjugated",
     "086473b78f555a6958f38a5b4ef641e9b7b04ca1e225f16d371fb43529e834fa"),
    (_F58, "(g^40690)*x^-2 + (3*g^7+g)*x^-1 + (4)*x^2 + O(x^6)", "Order4Conjugated",
     "0c60ee2641a5fca29e2a4c45be683608f868611247569fc9270063d246ac254b"),
    (_F312, "(g^2+1)*x^3 + (2*g^11)*x^4 + (g^5+g)*x^7 + O(x^12)", "Order4Split",
     "211da38686d9b2d0a50b66709e90773b0de7e93026d77df5b519543c0cd7d29d"),
    (_F312, "(g)*x^-3 + (2)*x^0 + (g^9+2*g^3+1)*x^2 + O(x^7)", "Order4Split",
     "39698796a59e34b08f8b12e89aafb014a178b0739157e36319eea74c54577a40"),
    (_F312, "(g^777)*x^2 + (g^10+1)*x^4 + (2*g)*x^5 + O(x^12)", "Order4L",
     "9a4545001fb4b8ba44c7479cff9e8ceb18ee526fc2167faa03d98131c91f4eac"),
    (_F312, "(g^5)*x^-2 + (g+2)*x^-1 + (g^6)*x^3 + O(x^8)", "Order4L",
     "9f6117803b44db57056aed75320b11f6ddf70c7b2d1a436e4d2e25bae2673d2e"),
    (_F312, "(g^10220)*x^2 + (g^2+g)*x^3 + (2)*x^8 + O(x^12)", "Order4Conjugated",
     "513e1c34430f65b8606a0586d54de868df67693d597eb3cc23878a8a50d44d4a"),
    (_F312, "(g^71540)*x^6 + (g^11+2)*x^7 + (g^4)*x^9 + O(x^14)", "Order4Conjugated",
     "8ebab1f4c117af30b7b21871775675ec697f5fac54a16f2186ebf4cee2b4fcfe"),
]
SMALL_GOLDEN = [
    (_F34, "(g^20)*x^2 + (g+1)*x^3 + (2)*x^5 + O(x^14)", "Order4Conjugated",
     "fc29930dbc1d1e043abfc7ded578ac6723bd022dcd3907f38c48a5084ce6b60b"),
    (_F34, "(g)*x^-2 + x + (g^3)*x^4 + O(x^10)", "Order4L",
     "da83a7121947385813a2c25d9fbea01e68af1d324d2200433fff1879b418ee27"),
    (_F34, "(g^2+1)*x^-3 + (g)*x^0 + O(x^9)", "Order4Split",
     "b9428c2feeacd499262250d5e7a3a3333d49bb25f5eaa94dddefd2b357148ffd"),
    # characteristic 2, order 4: experimental certificates
    (_F24, "x^2 + (g)*x^3 + x^7 + O(x^12)", "Order4Conjugated",
     "b46c74e0282079f0f67e87cdf728c1dd48283ba7b9aa690a4d5e018d856570a4"),
    (_F24, "(g^5)*x^2 + (g)*x^3 + x^7 + O(x^12)", "Order4L",
     "49be0a43ff3e66aa1cf07cfda7e82d19fb9538d32368bcc40098429b71c4b5a4"),
    (("gf(2^5)", "frob"), "(g^3+1)*x^-2 + (g)*x^1 + O(x^10)", "DegreeAtLeast5",
     "c0608eea83725cbb4de8b3723b1d37e371b9627836d9521b91450de5fb4ce341"),
    (("qt", "shift"), "(t+1)/(t^2+2)*x^-1 + (t)*x^2 + O(x^8)", "InfiniteWitness",
     "28c5b2abe8bac2828cb4770bed4e3cebad42a1a17ee75672a8d1ae11a5adb04a"),
    (("qt", "scale:2"), "(1/2*t)*x^3 + (t^2-1)*x^5 + O(x^10)", "InfiniteWitness",
     "a4cc1aa3bcefa7f6b695725b4b31a111f17cce26968b25f28c14705f69509ac9"),
    # the order-5 and order-8 Zech-table fields of the table_gf benchmark
    (("gf(3^5)", "frob"),
     "(g^3+2*g)*x^-3 + (g)*x^-1 + (2*g^4+1)*x^2 + (g^100)*x^4 + x^7 + O(x^12)",
     "DegreeAtLeast5", "d902539c350bef441ec0732f9a6bb72a685a8554ec2472457803ca1221467bd6"),
    (("gf(2^8)", "frob"),
     "(g^7+g)*x^-2 + (g^200)*x^1 + (g^3+1)*x^3 + x^6 + (g)*x^9 + O(x^14)",
     "DegreeAtLeast5", "9623e37e7b222f2717b55eed915621ee97702a6d8f97597a15a21ed9a066cc55"),
]
GOLDEN += SMALL_GOLDEN


@pytest.mark.parametrize(
    "spec, text, route, digest", GOLDEN, ids=[f"{g[2]}-{i}" for i, g in enumerate(GOLDEN)]
)
def test_golden_large_field_certificates(spec, text, route, digest):
    ctx = build_ctx(*spec)
    cert = decompose(parse_series(ctx, text))
    assert cert.method == route
    js = certificate_to_json(cert)
    assert hashlib.sha256(js.encode()).hexdigest() == digest
    assert verify_certificate(certificate_from_json(js))


def test_decompose_inverts_no_series(monkeypatch):
    calls = []
    inverse = SkewSeries.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(SkewSeries, "inverse", counted)
    routes = set()
    # every route; Order4Conjugated in odd characteristic and in characteristic 2
    inputs = [(spec, text) for spec, text, _, _ in SMALL_GOLDEN] + [(_F34, "O(x^5)")]
    for spec, text in inputs:
        cert = decompose(parse_series(build_ctx(*spec), text))
        routes.add(cert.method)
        assert verify_certificate(cert)
        assert calls == [], (cert.method, text)
    assert routes == set(METHODS)
