"""Seeded request texts for the benchmark workloads.

Everything here is plain text built from ``random.Random``: field and
sigma specs, series strings and ``eval`` expressions.  Nothing imports
the library, so a change to element packing or to the library's own use
of random numbers cannot change the inputs.

The mix of each request kind is stratified: request ``r`` of a kind takes
its field, width, density, route, expression form, valuations and
pattern of zero coefficients from ``r`` itself, and only the coefficient
values come from the seed.  Two seeds therefore give the same
composition of work, which keeps the run-to-run spread of the
percentiles small.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

KINDS = ("decompose", "verify", "eval", "trace")
EVAL_FORMS = ("mul", "inv", "comm", "comm_inv")
ORDER4_ROUTES = ("Order4Split", "Order4L", "Order4Conjugated")
# One verify request in this many gets a tampered certificate.
TAMPER_EVERY = 8


@dataclass(frozen=True)
class Family:
    """A coefficient field with its sigma, as the CLI spells them."""

    field: str
    sigma: str
    p: int = 0  # 0 for Q(t)
    m: int = 0
    e: int = 0  # Frobenius power

    @property
    def finite(self):
        return self.p > 0

    @property
    def order(self):
        return self.m // gcd(self.m, self.e) if self.finite else None

    @property
    def q(self):
        return self.p**self.m

    @property
    def q0(self):
        """Size of the fixed field k0 = GF(p^gcd(m, e))."""
        return self.p ** gcd(self.m, self.e)

    @property
    def var(self):
        return "g" if self.finite else "t"


@dataclass(frozen=True)
class Workload:
    name: str
    families: tuple
    rounds: int  # distinct requests of each kind
    decompose_widths: tuple
    eval_widths: dict  # form -> widths, every form with the same count
    trace_widths: tuple


# GF(5^8) and GF(3^12) take explicit primitive moduli: the order-4 inputs
# write elements of the line k1 as powers of g, which needs g primitive.
WORKLOADS = {
    "table_gf": Workload(
        name="table_gf",
        families=(
            Family("gf(3^4)", "frob", 3, 4, 1),
            Family("gf(2^4)", "frob", 2, 4, 1),
            Family("gf(3^5)", "frob", 3, 5, 1),
            Family("gf(2^8)", "frob", 2, 8, 1),
        ),
        rounds=144,
        decompose_widths=(24, 64),
        eval_widths={form: (16, 32, 64) for form in EVAL_FORMS},
        trace_widths=(24, 64),
    ),
    "large_gf": Workload(
        name="large_gf",
        families=(
            Family("gf(2^20)", "frob", 2, 20, 1),
            Family("gf(5^8);poly=3,2,1,0,0,0,0,0,1", "frob^2", 5, 8, 2),
            Family("gf(3^12);poly=2,1,0,0,0,1,0,0,0,0,0,0,1", "frob^3", 3, 12, 3),
        ),
        rounds=108,
        decompose_widths=(16, 24),
        eval_widths={form: (8, 12) for form in EVAL_FORMS},
        trace_widths=(16, 24),
    ),
    # Q(t) coefficients grow under products, so eval widths stay small:
    # a width-8 comm(a,b)*inv(a) can take tens of seconds.
    "qt": Workload(
        name="qt",
        families=(Family("qt", "shift"), Family("qt", "scale:2")),
        rounds=112,
        decompose_widths=(16, 24),
        eval_widths={"mul": (6, 8), "inv": (4, 6), "comm": (6, 8), "comm_inv": (3, 4)},
        trace_widths=(16, 24, 32),
    ),
}

# Fields of the per-backend micro rows: Zech-table GF, polynomial GF,
# polynomial GF with k0 != GF(p) (Moore-matrix k0_vec), and Q(t).
MICRO_FAMILIES = {
    "table": WORKLOADS["table_gf"].families[0],
    "poly": WORKLOADS["large_gf"].families[0],
    "moore": WORKLOADS["large_gf"].families[1],
    "qt": WORKLOADS["qt"].families[0],
}


@dataclass(frozen=True)
class Request:
    kind: str
    index: int  # position among the requests of its kind
    family: int  # index into the workload's families
    text: str = ""  # series for decompose/trace, expression for eval
    route: str = ""  # decompose: the method the construction targets
    form: str = ""  # eval: one of EVAL_FORMS
    operands: tuple = ()  # eval: the operand texts, for the output checks
    tamper: int = -1  # verify: pair whose w gets changed, -1 for none


# ---------------------------------------------------------------------------
# coefficient texts


def _gf_poly_text(digits):
    parts = []
    for i in range(len(digits) - 1, -1, -1):
        c = digits[i]
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            sym = "g" if i == 1 else f"g^{i}"
            parts.append(sym if c == 1 else f"{c}*{sym}")
    return "+".join(parts)


def _gf_coeff(fam, rng):
    """A nonzero element of GF(p^m) as a polynomial in g."""
    while True:
        digits = [rng.randrange(fam.p) for _ in range(fam.m)]
        if any(digits):
            return _gf_poly_text(digits)


def _qt_poly_text(cs):
    out = ""
    for i in range(len(cs) - 1, -1, -1):
        c = cs[i]
        if not c:
            continue
        sym = "" if i == 0 else ("t" if i == 1 else f"t^{i}")
        mag = abs(c)
        body = str(mag) if not sym else (sym if mag == 1 else f"{mag}*{sym}")
        sign = "-" if c < 0 else ("+" if out else "")
        out += sign + body
    return out


def _qt_coeff(rng, shape):
    """A small nonzero rational function of t of the given shape (0..3).

    Shapes fix the degrees (constant, linear, linear over t + c,
    quadratic) so that the seed changes values but not how much the
    coefficients can grow.
    """
    deg = (0, 1, 1, 2)[shape]
    cs = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(deg + 1)]
    num = _qt_poly_text(cs)
    if shape != 2:
        return num
    return f"({num})/(t+{rng.randint(1, 3)})"


def coeff_text(fam, rng, shape=0):
    """A nonzero coefficient; shape only matters for Q(t)."""
    return _gf_coeff(fam, rng) if fam.finite else _qt_coeff(rng, shape % 4)


def _k1_step(fam):
    """(a0, M): g^E lies in k1 = {z : sigma(z) = -z} iff E = a0 mod M.

    For order 4, z^(q0-1) = -1 on k1; with g primitive that is
    E*(q0-1) = (q-1)/2 mod q-1.  In characteristic 2, -1 = 1 and k1 = k0.
    """
    M = (fam.q - 1) // (fam.q0 - 1)
    a0 = 0 if fam.p == 2 else M // 2
    return a0, M


def _order4_lead(fam, rng, route):
    a0, M = _k1_step(fam)
    if route == "Order4Conjugated":
        return f"g^{a0 + M * rng.randrange(fam.q0 - 1)}"
    while True:
        E = rng.randrange(fam.q - 1)
        if E % M != a0:
            return f"g^{E}"


# ---------------------------------------------------------------------------
# series texts


def _series_text(fam, rng, val, width, support, lead=None):
    """Series with a nonzero leading term at x^val and O(x^(val+width)).

    support lists the offsets from val of the nonzero coefficients and
    starts with 0.
    """
    terms = []
    for idx in support:
        c = lead if idx == 0 and lead is not None else coeff_text(fam, rng, idx + val)
        terms.append(f"({c})*x^{val + idx}")
    terms.append(f"O(x^{val + width})")
    return " + ".join(terms)


def _shape(kind, r):
    """The generator of request r's shape: its valuations and which
    coefficients are zero.

    These set how much work a request is, so they depend on the request's
    slot and not on the seed; the seed picks the coefficient values.  With
    the shape drawn from the seed, a sparse decompose cost about 16% more
    or less from seed to seed, and a Q(t) request more than that, since
    sigma^v of a rational function grows with |v|.
    """
    return random.Random(f"shape:{kind}:{r}")


def _support(shape, width, dense):
    """Offsets of the nonzero coefficients of one operand.

    Dense inputs have every coefficient nonzero; sparse ones about a
    quarter, because series products skip zero coefficients.
    """
    if dense:
        return range(width)
    extra = max(round(width / 4) - 1, 0)
    return [0] + sorted(shape.sample(range(1, width), extra))


def _valuation(fam, rng):
    """Valuations cover every residue mod the order of sigma."""
    n = fam.order
    if n is None:
        return rng.randint(-8, 8)
    return rng.randrange(-n, n)


def _dense_rounds(kind, rounds):
    """The rounds whose inputs are dense: 9 in 16, the rest sparse.

    The choice depends on the kind and the round count but not the seed,
    and mixes across the other strata.  Sparse inputs are much cheaper;
    with an exact half of each, the median latency would sit in the gap
    between the two groups and jump with their extreme values.
    """
    order = list(range(rounds))
    random.Random(f"density:{kind}").shuffle(order)
    return set(order[: (9 * rounds + 15) // 16])


def _digits(r, *radices):
    out = []
    for radix in radices:
        r, d = divmod(r, radix)
        out.append(d)
    return out


def _decompose_cell(wl, r):
    """(family index, width, route) of decompose request r."""
    nf, nw = len(wl.families), len(wl.decompose_widths)
    fi, wi, ri = _digits(r, nf, nw, 3)
    fam = wl.families[fi]
    if fam.order is None:
        route = "InfiniteWitness"
    elif fam.order >= 5:
        route = "DegreeAtLeast5"
    else:
        route = ORDER4_ROUTES[ri]
    return fi, wl.decompose_widths[wi], route


def _decompose_request(wl, r, rng, dense):
    fi, width, route = _decompose_cell(wl, r)
    fam = wl.families[fi]
    shape = _shape("decompose", r)
    lead = None
    if fam.order != 4:
        val = _valuation(fam, shape)
    else:
        k = shape.randrange(-2, 2)
        if route == "Order4Split":
            val = 4 * k + shape.choice((0, 1, 3))
        else:
            val = 4 * k + 2
            lead = _order4_lead(fam, rng, route)
    support = _support(shape, width, dense)
    text = _series_text(fam, rng, val, width, support, lead)
    return Request("decompose", r, fi, text=text, route=route)


def _eval_request(wl, r, rng, dense):
    nf = len(wl.families)
    nw = len(wl.eval_widths[EVAL_FORMS[0]])
    form_i, fi, wi = _digits(r, len(EVAL_FORMS), nf, nw)
    form = EVAL_FORMS[form_i]
    fam = wl.families[fi]
    width = wl.eval_widths[form][wi]
    shape = _shape("eval", r)

    def operand():
        val = _valuation(fam, shape)
        return "(" + _series_text(fam, rng, val, width, _support(shape, width, dense)) + ")"

    a, b = operand(), operand()
    if form == "mul":
        text, operands = f"{a} * {b}", (a, b)
    elif form == "inv":
        text, operands = f"inv({a})", (a,)
    elif form == "comm":
        text, operands = f"comm({a}, {b})", (a, b)
    else:
        text, operands = f"comm({a}, {b}) * inv({a})", (a, b)
    return Request("eval", r, fi, text=text, form=form, operands=operands)


def _trace_request(wl, r, rng, dense):
    nf, nw = len(wl.families), len(wl.trace_widths)
    fi, wi = _digits(r, nf, nw)
    fam = wl.families[fi]
    if fam.order is None:
        # Q(t) has no reduced trace, so these requests only measure parsing
        # and the rejection.  Dense inputs only keep the median out of the
        # gap between a sparse and a dense group; three widths in equal
        # numbers put the median and the p90 inside a group each.
        dense = True
    width = wl.trace_widths[wi]
    shape = _shape("trace", r)
    val = _valuation(fam, shape)
    text = _series_text(fam, rng, val, width, _support(shape, width, dense))
    return Request("trace", r, fi, text=text)


def _tampered_rounds(wl, rounds, rng):
    """Rounds whose verify request gets a tampered certificate.

    Order4Conjugated certificates are left alone: their b factors carry a
    coefficient of their own, so one changed coefficient of w is not
    guaranteed to change the commutator.  For every other route it is.
    """
    eligible = [
        r for r in range(rounds) if _decompose_cell(wl, r)[2] != "Order4Conjugated"
    ]
    return set(rng.sample(eligible, max(rounds // TAMPER_EVERY, 1)))


def _verify_request(wl, r, rng, tampered):
    """Re-checks the certificate of decompose request r."""
    pair = rng.randrange(2) if r in tampered else -1
    return Request("verify", r, _decompose_cell(wl, r)[0], tamper=pair)


_MAKERS = {
    "decompose": _decompose_request,
    "eval": _eval_request,
    "trace": _trace_request,
}


def requests(wl, seed, rounds=None):
    """The workload's request list for one seed, in closed-loop order.

    Each round holds one request of each kind in a seeded order, with
    verify r after decompose r, whose certificate it re-checks.
    """
    rounds = wl.rounds if rounds is None else rounds
    rng = random.Random(f"{wl.name}:{seed}")
    tampered = _tampered_rounds(wl, rounds, random.Random(f"{wl.name}:{seed}:tamper"))
    dense = {kind: _dense_rounds(kind, rounds) for kind in _MAKERS}
    out = []
    for r in range(rounds):
        kinds = list(KINDS)
        rng.shuffle(kinds)
        i, j = kinds.index("decompose"), kinds.index("verify")
        if j < i:
            kinds[i], kinds[j] = kinds[j], kinds[i]
        for kind in kinds:
            if kind == "verify":
                out.append(_verify_request(wl, r, rng, tampered))
            else:
                out.append(_MAKERS[kind](wl, r, rng, r in dense[kind]))
    return out


def element_texts(fam, seed, count):
    """Nonzero element texts for the field micro rows."""
    rng = random.Random(f"micro:{fam.field}:{fam.sigma}:{seed}")
    return [coeff_text(fam, rng, i) for i in range(count)]
