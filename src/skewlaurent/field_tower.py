"""Coefficient fields carrying a distinguished automorphism sigma.

Two concrete families are provided:

* ``FiniteFieldCtx``: GF(p^m) with sigma a power of the Frobenius map
  a -> a^(p^e).  The order of sigma is m / gcd(m, e) and its fixed field
  k0 is GF(p^gcd(m, e)).
* ``RationalFunctionCtx``: Q(t) with sigma the shift t -> t + 1 or the
  scaling t -> q*t for a rational q outside {0, 1, -1}.  Both have
  infinite order and fixed field Q.

Elements are exact.  A finite-field element is an int, and its context
binds, at construction, one of the three backends of ``packed``, which
share one interface: Zech tables for a field of at most _TABLE_LIMIT
elements whose x generates the multiplicative group (the walk over the
powers of x that builds them also proves the modulus irreducible), else
the packed kernel, after Rabin's test.  A field named without a modulus
takes a Conway polynomial from _STANDARD_POLYS or the first irreducible
of a constant-first scan.  A Q(t) element is a pair n/d of
integer-coefficient polynomials, coprime over Q[t], with joint integer
content 1 and a positive leading coefficient of d; Q(t) arithmetic is
fraction-free.

The finite-field context also gives k0-coordinates, and the module hosts
the order-4 subspace context used by the decomposition engine: the image
L of sigma - 1, the line k1 = {z : sigma(z) = -z} and the plane
k2 = {z : sigma^2(z) = -z}.  The order-4 route needs only field
arithmetic: the trace to k0 (L = ker Tr, by additive Hilbert 90) and the
preimage under sigma - 1, one GF(p)-linear map on raw values built once
per context from partial traces of the normal-basis element.  Every
elimination over GF(p) (``linalg``) is set-up, once per context.
"""

from __future__ import annotations

import random
import weakref
from fractions import Fraction
from functools import cached_property
from math import fsum, gcd
from operator import add, methodcaller, mul, neg

from .errors import (
    CoefficientTooLarge,
    FieldMismatch,
    FieldSpecError,
    IdentityAutomorphism,
    InfiniteOrder,
    NoWitness,
    NotInL,
    OutputTooLarge,
    UnsupportedOrder,
    ZeroNotInvertible,
)
from .linalg import invert_matrix, kernel_from_columns, rank_of_vectors
from .packed import PackedGF2, PackedOddField, ZechScalars, slot_codec

_TABLE_LIMIT = 1 << 16
# Field budgets: _is_prime is trial division, so p stays below _P_LIMIT;
# Rabin's test and the kernel grow with m, so q stays within _Q_LIMIT.
# The default-modulus search tries at most _SEARCH_LIMIT candidates
# (GF(2^32) needs 142).
_P_LIMIT = 1 << 32
_Q_LIMIT = 1 << 64
_SEARCH_LIMIT = 1024
_WITNESS_SEED = "normal-basis-search"
# series_mul sums by delayed reduction (where the context binds _wide)
# when the pairs of nonzero terms, nf*ng, reach _DELAYED_RATIO times the
# output width: below that, lifting and reducing cost more than the
# products they save.
_DELAYED_RATIO = 5
# The exponent numerals of format_elem's text (m <= 64), without leading zeros.
_POWERS = {str(i): i for i in range(2, 100)}


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _kernel(p, m, mod, maps=1):
    """The packed arithmetic of GF(p)[x]/(mod); maps sizes PackedGF2's linear maps."""
    return PackedGF2(m, mod, maps) if p == 2 else PackedOddField(p, m, mod)


def _x_tables(p, m, mod):
    """``ZechScalars`` of GF(p)[x]/(mod) on base-p ints with generator x, or None.

    The powers of x are walked through the table of v -> x*v: the digits
    of v shifted up, plus its lead digit times x^m = -(mod - x^m).  When
    x^(q-1) = 1 and no earlier power is 1, the ring has q - 1 units, so
    it is a field and mod is irreducible.  None means x is not primitive
    or mod is reducible.  1 + x^i differs from x^i in digit 0 alone.
    """
    q = p**m
    qm1 = q - 1
    times_x = list(range(0, q, p))  # lead digit 0: a shift
    x_m = [-c % p for c in mod[:m]]
    for d in range(1, p):
        t = [d * c % p for c in x_m]
        block = [t[0]]  # digit 0 of x*v: d times that of x^m
        place = p
        for k in range(1, m):  # digit k: v's digit k - 1 plus d times that of x^m
            col = [(c + t[k]) % p * place for c in range(p)]
            block = [a + b for b in col for a in block]
            place *= p
        times_x += block
    exp = [1]
    v = 1
    for _ in range(qm1 - 1):
        v = times_x[v]
        exp.append(v)
    if times_x[v] != 1 or exp.count(1) != 1:
        return None
    plus_one = list(range(1, q + 1))
    plus_one[p - 1 :: p] = range(0, q, p)  # digit 0 wraps from p - 1 to 0
    return ZechScalars(p, m, exp, list(map(plus_one.__getitem__, exp)))


def _is_irreducible(mod, p, kern=None):
    """Rabin's test (Rabin, 1980) for a monic polynomial f over GF(p).

    f of degree m is irreducible iff x^(p^m) = x mod f and x^(p^(m/r)) - x
    is a unit mod f for every prime r dividing m.  The test runs in the
    packed arithmetic of GF(p)[x]/(f), kern when given, which needs no
    irreducibility.  The powers x^(p^i) are the iterates of the Frobenius
    map v -> v^p, kern's first sigma map for k = p, applied m times.  The
    unit test is an extended Euclidean inverse.
    """
    m = len(mod) - 1
    if m < 1:
        return False
    if m == 1:
        return True
    if kern is None:
        kern = _kernel(p, m, mod)
    frob_map = kern.sigma_maps(p, 2)[1]
    frob = [kern.x]  # frob[i] = x^(p^i) mod f
    for _ in range(m):
        frob.append(frob_map(frob[-1]))
    if frob[m] != kern.x:
        return False
    try:
        for r in _prime_factors(m):
            kern.inv(kern.add(frob[m // r], kern.neg(kern.x)))
    except ZeroNotInvertible:
        return False
    return True


def _search_irreducible(p, m):
    """First monic irreducible of degree m among the first _SEARCH_LIMIT
    candidates, by lexicographic constant-first scan.

    The candidates come in blocks of p that share every coefficient but
    the constant c0.  For m >= 2, f = c0 + h has a root a in GF(p), and so
    is reducible, exactly when c0 = -h(a); one evaluation of h at every a
    per block (Horner's rule over the list of all a) lists those c0, and
    only the others go through Rabin's test.  For p past _SEARCH_LIMIT
    (up to 2^32) the scan stays in the first block and every candidate
    goes through the test: an evaluation at all p points would grow with
    p, and the test runs at most _SEARCH_LIMIT times.
    """
    count = min(p**m, _SEARCH_LIMIT)
    filtered = m >= 2 and p <= _SEARCH_LIMIT
    for block in range(-(-count // p)):
        high, rem = [], block
        for _ in range(m - 1):
            rem, d = divmod(rem, p)
            high.append(d)
        high = tuple(high) + (1,)
        rooted = ()
        if filtered:
            vals = [1] * p  # Horner's rule for h(a)/a = c1 + c2*a + ... + a^(m-1)
            for c in reversed(high[:-1]):
                vals = [(v * a + c) % p for a, v in enumerate(vals)]
            rooted = {-v * a % p for a, v in enumerate(vals)}
        for c0 in range(min(p, count - block * p)):
            cand = (c0,) + high
            if c0 not in rooted and _is_irreducible(cand, p):
                return cand
    raise FieldSpecError(
        f"no irreducible polynomial of degree {m} over GF({p}) among the first "
        f"{_SEARCH_LIMIT} candidates; pass a modulus as ';poly=c0,c1,...'"
    )


# Standard (Conway) polynomials for common small fields; ascending coefficients.
_STANDARD_POLYS = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (5, 2): (2, 4, 1),
    (5, 3): (3, 3, 0, 1),
    (7, 2): (3, 6, 1),
}


def default_modulus(p, m):
    poly = _STANDARD_POLYS.get((p, m))
    if poly is None:
        poly = _search_irreducible(p, m)
    return poly


# ---------------------------------------------------------------------------
# base context


class FieldCtx:
    """Shared behaviour of coefficient-field contexts.

    Subclasses provide element arithmetic, ``sigma`` and the seam of the
    series kernels.  The structure that needs sigma of finite order (the
    k0-coordinates, the trace to k0 and the order-4 context) lives on
    ``FiniteFieldCtx``; here ``k0_vec`` and ``build_order4_ctx`` raise
    InfiniteOrder.
    """

    sigma_order = None  # int for finite order, None for infinite
    _wide = None  # k -> (lift, reduce) for delayed sums of k products, if bound

    # -- series kernels ----------------------------------------------------
    #
    # One product and one inverse for every context, on raw values through
    # the seam each context binds: _add, _neg, _mul, _inv, _sigma_map(i) for
    # sigma^i, and _unwrap/_wrap between elements and raw values.  A row
    # holds the nonzero terms of sigma^i of a window; for finite order n it
    # is kept under r = i mod n from its first use, which needs the longest
    # prefix.  An inverse runs in pull order, each coefficient summed from
    # the earlier ones, so no product for a later coefficient comes first.
    #
    # A context may also bind _wide (``PackedOddField.wide``; only odd-p
    # packed fields with one-byte kernel slots do): sums of products taken
    # as plain ints in wide slots and reduced once.  series_mul takes it for
    # a product whose pairs of nonzero terms reach _DELAYED_RATIO times its
    # width, judged from the two operands' nonzero counts; sparser products,
    # and every product of a context without it, run the row loop.

    def _map_row(self, rows, r, terms, k):
        """(j, sigma^r(b)) for the (j, b) in terms with j < k, kept for finite order."""
        sig = self._sigma_map(r)
        row = [(j, sig(b)) for j, b in terms if j < k]
        if self.sigma_order:
            rows[r] = row
        return row

    def series_mul(self, f, g, prec):
        """Coefficients of f*g from x^(f.val + g.val) to O(x^prec), for f
        and g with nonempty windows."""
        add, mul, unwrap, n = self._add, self._mul, self._unwrap, self.sigma_order
        room = prec - f.val - g.val
        fs = unwrap(f.coeffs[:room])
        terms = [(j, b) for j, b in enumerate(unwrap(g.coeffs[:room])) if b]
        rows = {0: terms}  # rows[r]: terms of sigma^r(g), r = i mod n
        if self._wide is not None and terms:
            nf = room - fs.count(0)
            if nf * len(terms) >= _DELAYED_RATIO * room:
                return self._wrap(self._delayed_mul(fs, f.val, terms, rows, min(nf, len(terms))))
        acc = unwrap((self.zero(),)) * room
        for idx, a in enumerate(fs):
            if not a:
                continue
            k = room - idx  # offsets into g below k reach the product
            i = f.val + idx
            r = i % n if n else i
            row = rows.get(r)
            if row is None:
                row = self._map_row(rows, r, terms, k)
            for j, b in row:
                if j >= k:
                    break
                e = idx + j
                acc[e] = add(acc[e], mul(a, b))
        return self._wrap(acc)

    def _delayed_mul(self, fs, val, terms, rows, bound):
        """series_mul's coefficients by delayed reduction, with at most
        bound products summed into any one of them.

        Each row sigma^r(g) is lifted once into a dense list of wide-slot
        ints (zero where g has no term), each nonzero coefficient of f once,
        and a row's products are added into the plain-int sums by one
        slice assignment; every sum is reduced once at the end.
        """
        lift, reduce = self._wide(bound)
        n, room = self.sigma_order, len(fs)
        top = terms[-1][0] + 1  # g has no term at or past offset top
        lifted = {}  # lifted[r]: sigma^r(g) lifted, r = i mod n
        acc = [0] * room
        for idx, a in enumerate(fs):
            if not a:
                continue
            k = room - idx  # offsets into g below k reach the product
            r = (val + idx) % n
            row = lifted.get(r)
            if row is None:
                sparse = rows.get(r) or self._map_row(rows, r, terms, k)
                row = lifted[r] = [0] * min(top, k)
                for j, b in sparse:
                    if j >= k:
                        break
                    row[j] = lift(b)
            end = min(room, idx + len(row))
            acc[idx:end] = map(add, acc[idx:end], map(lift(a).__mul__, row))
        return [reduce(s) if s else 0 for s in acc]

    def series_inverse(self, a, gval, gprec):
        """Coefficients from x^gval to O(x^gprec) of the inverse of the
        series with window a (a[0] nonzero) from x^-gval; gprec - gval is
        len(a)."""
        add, neg, mul, unwrap, n = self._add, self._neg, self._mul, self._unwrap, self.sigma_order
        width = gprec - gval
        terms = [(j, b) for j, b in enumerate(unwrap(a)) if b]
        terms[0] = (0, self._inv(terms[0][1]))
        rows = {0: terms}  # rows[r]: sigma^r of the lead's inverse and a's tail
        minus_one, zero = unwrap((-self.one(), self.zero()))
        done = []  # done[idx]: the coefficient and the row of its exponent
        tail, nxt = [], 1  # (j, position in terms) of a's tail terms with j <= idx, j falling
        for idx in range(width):
            if nxt < len(terms) and terms[nxt][0] == idx:
                tail.insert(0, (idx, nxt))
                nxt += 1
            acc = minus_one if idx == 0 else zero  # minus the coefficient, before the lead
            for j, t in tail:  # the earlier coefficients, ascending
                c, row = done[idx - j]
                if c:
                    acc = add(acc, mul(c, row[t][1]))
            if acc:
                i = gval + idx
                r = i % n if n else i
                row = rows.get(r)
                if row is None:
                    row = self._map_row(rows, r, terms, width - idx)
                done.append((mul(neg(acc), row[0][1]), row))
            else:
                done.append((zero, None))
        return self._wrap(c for c, _ in done)

    # -- witnesses ---------------------------------------------------------

    def find_witness(self, min_degree):
        """An element moved by every relevant power of sigma.

        For infinite order this is the designated generator (t); for
        finite order n >= min_degree it is a normal-basis element, whose
        sigma-degree is exactly n.  Raises NoWitness when n < min_degree.
        """
        if self.sigma_order is None:
            return self.gen()
        if self.sigma_order < min_degree:
            raise NoWitness(
                f"sigma has order {self.sigma_order}, below the requested degree {min_degree}"
            )
        return self._normal_basis_elem()

    # -- k0-coordinates ------------------------------------------------------

    def k0_vec(self, a):
        """Coordinates of a over k0 as a tuple of k0 scalars."""
        raise InfiniteOrder("k0-linear algebra requires finite sigma order")

    def build_order4_ctx(self):
        raise InfiniteOrder("order-4 context requires sigma of order 4")


# ---------------------------------------------------------------------------
# finite fields


class FFElem:
    """Element of GF(p^m), stored as a packed int (see FiniteFieldCtx)."""

    __slots__ = ("ctx", "value")

    def __init__(self, ctx, value):
        self.ctx = ctx
        self.value = value

    def _coerce(self, other):
        if isinstance(other, FFElem):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise FieldMismatch("elements of different fields")
            return other
        if isinstance(other, int):
            return self.ctx.from_int(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FFElem(self.ctx, self.ctx._add(self.value, o.value))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FFElem(self.ctx, self.ctx._add(self.value, self.ctx._neg(o.value)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return FFElem(self.ctx, self.ctx._neg(self.value))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FFElem(self.ctx, self.ctx._mul(self.value, o.value))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k):
        return FFElem(self.ctx, self.ctx._pow(self.value, k))

    def inverse(self):
        return FFElem(self.ctx, self.ctx._inv(self.value))

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        # an int never equals an element: equal objects must hash equal,
        # and on GF(3^m) both 4 and 1 would equal from_int(1)
        if not isinstance(other, FFElem):
            return NotImplemented
        return self.value == self._coerce(other).value

    def __hash__(self):
        return hash((self.ctx.key, self.value))

    def __str__(self):
        return self.ctx.format_elem(self)

    def __repr__(self):
        return f"FFElem({self.ctx.format_elem(self)})"


class FiniteFieldCtx(FieldCtx):
    """GF(p^m) with sigma = Frobenius^e.

    The constructor binds one backend of ``packed`` through its shared
    interface: the seam of the series kernels (see FieldCtx) and the
    digit codec _digits, _pack and _from_base_p.  Nothing else depends on
    the backend.  A field of at most _TABLE_LIMIT elements whose x is
    primitive binds ``ZechScalars``, as lookups are cheaper there than
    the kernel's products and inverses; every other field binds
    ``PackedGF2`` or ``PackedOddField``.  Elements, texts and the seeded
    searches are defined on base-p digits, so a field gives the same
    certificates on either backend.

    The k0-coordinates are over k0 = GF(p^d), d = gcd(m, e), as small
    ints: the digits when d = 1, and otherwise, against the normal basis,
    ints whose base-p digits c_0, ..., c_(d-1) stand for sum_j c_j*beta_j
    over the GF(p)-basis beta of k0 that also orders k0_scalar_elements()
    (see k0_scalar_to_elem).  Then k0_vec is one precomputed GF(p) matrix
    applied to the coefficients, a big-int combination of its packed
    columns (``slot_codec``).  The trace to k0, ``k0_trace``, sums the
    bound sigma maps, and the order-4 subspace tests go through it or
    sigma.  What these need is set up on first use, as cached
    properties holding plain values and closures, never an element: a
    dropped context is freed at once.
    """

    def __init__(self, p, m, frob_power=1, modulus=None):
        if p >= _P_LIMIT:
            raise FieldSpecError(f"characteristic {p} is past the limit p < 2^32")
        if not _is_prime(p):
            raise FieldSpecError(f"{p} is not prime")
        if m < 1:
            raise FieldSpecError("extension degree must be positive")
        if m > 64 or p**m > _Q_LIMIT:  # m > 64 also keeps p**m from running long
            raise FieldSpecError(f"GF({p}^{m}) is past the limit p^m <= 2^64")
        if frob_power < 1:
            raise FieldSpecError("Frobenius power must be a positive integer")
        e = frob_power % m
        if e == 0:
            raise IdentityAutomorphism(
                f"frob^{frob_power} is the identity on GF({p}^{m})"
            )
        if modulus is None:
            modulus = default_modulus(p, m)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise FieldSpecError(f"modulus must be monic of degree {m}")

        self.p = p
        self.m = m
        self.q = q = p**m
        self.frob_power = frob_power
        self.e = e
        self.modulus = modulus
        self.subfield_degree = gcd(m, e)  # k0 = GF(p^subfield_degree)
        self.sigma_order = m // self.subfield_degree
        self.key = ("gf", p, m, e, modulus)
        # A table field's walk over the powers of x also proves the modulus
        # irreducible; every other field runs Rabin's test on the kernel.
        ops = _x_tables(p, m, modulus) if q <= _TABLE_LIMIT else None
        if ops is None:
            ops = _kernel(p, m, modulus, self.sigma_order)
            if not _is_irreducible(modulus, p, ops):
                raise FieldSpecError(f"modulus {list(modulus)} is reducible over GF({p})")
        self._add, self._neg, self._mul, self._inv = ops.add, ops.neg, ops.mul, ops.inv
        self._pow, self._linear, self._wide, self._gen_value = ops.pow, ops.linear, ops.wide, ops.x
        self._digits, self._pack, self._from_base_p = ops.digits, ops.pack, ops.from_base_p
        self._sig_maps = ops.sigma_maps(p**e, self.sigma_order)  # sigma(a) = a^(p^e)

    def sigma(self, a, i=1):
        j = i % self.sigma_order
        if j == 0:
            return a
        return FFElem(self, self._sig_maps[j](a.value))

    def k0_trace(self, a):
        """Tr(a) = sum_(i<n) sigma^i(a), the trace from k down to k0."""
        return FFElem(self, self._trace(a.value))

    def _trace(self, v):
        """k0_trace on a raw value."""
        add = self._add
        t = v
        for sig in self._sig_maps[1:]:
            t = add(t, sig(v))
        return t

    # -- series-kernel seam (see FieldCtx) -----------------------------------

    @staticmethod
    def _unwrap(elems):
        return [a.value for a in elems]

    def _wrap(self, values):
        return [FFElem(self, v) for v in values]

    def _sigma_map(self, i):
        return self._sig_maps[i]

    # -- constructors ------------------------------------------------------

    def zero(self):
        return FFElem(self, 0)

    def one(self):
        return FFElem(self, 1)

    def from_int(self, v):
        return FFElem(self, v % self.p)

    def gen(self):
        """The residue of the generator polynomial (printed as g)."""
        return FFElem(self, self._gen_value)

    def elem(self, coeffs):
        """Element from GF(p) coefficients of 1, g, g^2, ..."""
        ds = [c % self.p for c in coeffs]
        if len(ds) > self.m:
            raise FieldSpecError("too many coefficients")
        ds += [0] * (self.m - len(ds))
        return FFElem(self, self._pack(ds))

    def elements(self):
        """Every element, the i-th having the base-p digits of i as coefficients."""
        return (FFElem(self, self._from_base_p(v)) for v in range(self.q))

    def random_elem(self, rng):
        return FFElem(self, self._from_base_p(rng.randrange(self.q)))

    @property
    def characteristic(self):
        return self.p

    def __eq__(self, other):
        return isinstance(other, FiniteFieldCtx) and other.key == self.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"FiniteFieldCtx({self.field_spec()!r}, {self.sigma_spec()!r})"

    # -- formatting ----------------------------------------------------------

    def format_elem(self, a):
        ds = self._digits(a.value)
        parts = []
        for i in range(self.m - 1, -1, -1):
            c = ds[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("g" if c == 1 else f"{c}*g")
            else:
                parts.append(f"g^{i}" if c == 1 else f"{c}*g^{i}")
        return "+".join(parts) if parts else "0"

    def read_tokens(self, toks, i):
        """Read an element as format_elem prints it from toks[i:].

        Zero is "0".  Otherwise the terms are c*g^e, c*g, g^e or g with
        1 < c < p and 1 < e, or a constant 0 < c < p, joined by "+", their
        exponents falling strictly from below m; numerals have no leading
        zeros, and c has at most 10 digits (p < 2^32).  A token that starts
        with an ASCII digit must be all digits, and the list must end in a
        token that is none of "g", "*", "^", "+" or a numeral.

        Returns (element, j), where toks[j] is the first token past the
        terms, or None where the tokens hold no such text; the caller
        checks what toks[j] may be.  The one copy of these rules: the
        parser reads a whole coefficient text and a parenthesised
        coefficient through it.
        """
        if toks[i] == "0":
            return FFElem(self, 0), i + 1
        p = self.p
        ds = [0] * self.m
        top = self.m  # exponents fall strictly, from below m
        while True:
            tok = toks[i]
            if tok == "g":
                c = 1
            elif "1" <= tok[:1] <= "9" and len(tok) <= 10:
                c = int(tok)
                if c >= p:
                    return None
                i += 1
                if toks[i] != "*":  # a constant, the last term
                    ds[0] = c
                    return FFElem(self, self._pack(ds)), i
                if c == 1 or toks[i + 1] != "g":
                    return None
                i += 1
            else:
                return None
            i += 1  # past the g
            if toks[i] == "^":
                e = _POWERS.get(toks[i + 1], top)
                i += 2
            else:
                e = 1
            if e >= top:
                return None
            ds[e] = c
            top = e
            if toks[i] != "+":
                return FFElem(self, self._pack(ds)), i
            i += 1

    def field_spec(self):
        poly = ",".join(str(c) for c in self.modulus)
        return f"gf({self.p}^{self.m});poly={poly}"

    def sigma_spec(self):
        return "frob" if self.frob_power == 1 else f"frob^{self.frob_power}"

    # -- k0 = Fix(sigma) -----------------------------------------------------

    @cached_property
    def _k0_values(self):
        """Every element of k0 as a packed value, the k0 scalar c at position c.

        Position c = sum_j c_j*p^j holds sum_j c_j*beta_j, where
        beta_(d-1), ..., beta_0 is the echelon basis of the kernel of
        sigma - 1 as a GF(p)-linear map.
        """
        if self.subfield_degree == 1:
            return list(range(self.p))
        cols = []
        for i in range(self.m):
            b = self.elem([0] * i + [1])
            cols.append(self._digits((self.sigma(b, 1) - b).value))
        add = self._add
        out = [0]
        for vec in reversed(kernel_from_columns(cols, self.p)):  # beta_0 first
            beta, multiples = self._pack(vec), [0]
            for _ in range(self.p - 1):
                multiples.append(add(multiples[-1], beta))
            out = [add(t, u) for u in multiples for t in out]
        return out

    def _k0_basis(self):
        """beta_0, ..., beta_(d-1): the k0 elements standing for 1, p, p^2, ..."""
        values = self._k0_values
        return [FFElem(self, values[self.p**j]) for j in range(self.subfield_degree)]

    def k0_scalar_elements(self):
        """All scalars of k0, in a fixed order, as the ints of k0_vec."""
        return list(range(len(self._k0_values)))

    @cached_property
    def _k0_setup(self):
        """(vec, units): the k0-coordinates against the normal basis.

        vec takes the digits of an element to its m/d k0-coordinates: it
        inverts the GF(p)-linear map that takes the digits c_(i*d+j) to
        sum c_(i*d+j)*beta_j*sigma^i(y), y the normal-basis element, as one
        big-int combination of the packed columns of the inverse (see
        slot_codec), scalar i having base-p digits i*d, ..., i*d + d - 1 of
        the combination.  units[j] is the coordinates of g^j, read off
        column j alone.  (k0_vec reads the digits instead when d = 1.)
        """
        p, m, d = self.p, self.m, self.subfield_degree
        _, split, join = slot_codec(p, m)
        # the columns of the inverse are the rows of the transpose's inverse
        packed = [join(row) for row in invert_matrix(self._normal[1], p)]
        pw = [p**j for j in range(d)]

        def coords(v):  # a GF(p)-combination of the columns, as k0 scalars
            ds = split(v, m)
            return tuple([sum(map(mul, ds[i : i + d], pw)) for i in range(0, m, d)])

        def vec(digits):  # no reference to the context: it holds vec
            return coords(sum(map(mul, digits, packed)))

        return vec, [coords(col) for col in packed]

    def _conjugate_digits(self, y):
        """The digits of beta_j*sigma^i(y), for i < n and, within each i, j < d."""
        beta = self._k0_basis()
        n = self.sigma_order
        return [self._digits((b * self.sigma(y, i)).value) for i in range(n) for b in beta]

    # -- witnesses and k0 vectorisation ------------------------------------

    @cached_property
    def _normal(self):
        """(value, conjugate digits) of the normal-basis element y, the
        first nonzero of a seeded search whose conjugates are k0-independent,
        that is, whose beta_j*sigma^i(y) are GF(p)-independent."""
        rng = random.Random(f"{_WITNESS_SEED}:{self.field_spec()}:{self.sigma_spec()}")
        for _ in range(256):
            y = self.random_elem(rng)
            if not y:
                continue
            cols = self._conjugate_digits(y)
            if rank_of_vectors(cols, self.p) == self.m:
                return y.value, cols
        raise NoWitness("normal basis search exhausted its retry budget")

    def _normal_basis_elem(self):
        return FFElem(self, self._normal[0])

    def k0_vec(self, a):
        if self.subfield_degree == 1:
            return self._digits(a.value)
        return self._k0_setup[0](self._digits(a.value))

    def k0_vec_basis(self):
        if self.subfield_degree == 1:
            return [self.elem([0] * i + [1]) for i in range(self.m)]
        y = self._normal_basis_elem()
        return [self.sigma(y, i) for i in range(self.sigma_order)]

    def k0_scalar_to_elem(self, c):
        if self.subfield_degree == 1:
            return self.from_int(c)
        return FFElem(self, self._k0_values[c])

    def sigma_minus_one_preimage(self, c):
        """Some z with sigma(z) - z = c, free coordinates pinned to zero."""
        return FFElem(self, self._sigma_minus_one(c.value))

    @cached_property
    def _sigma_minus_one(self):
        """sigma_minus_one_preimage on raw values.

        Against the conjugates sigma^i(y) of the normal-basis element,
        sigma - 1 is the cyclic shift less the identity, whose echelon form
        over k0 has pivots 0, ..., n - 2 and the last coordinate free.
        With that coordinate zero, the solution of sigma(z) - z = c takes
        sigma^i(y) to the partial trace y + ... + sigma^(i-1)(y) (on L,
        where the coordinates of c sum to zero), and it is one
        GF(p)-linear map, _linear of the images of 1, g, ..., g^(m-1): the
        image of g^j combines the partial traces by the coordinates of
        g^j, column j of the inverse behind k0_vec (_k0_setup).  When
        d = 1, k0_vec_basis() is the powers of g instead, and the kernel
        of sigma - 1 is GF(p)*1, the column of the constant digit: so each
        image less its constant digit is the solution with that free
        coordinate zero.  The map is defined on all of k; z solves the
        equation exactly when c lies in L = Im(sigma - 1), which
        sigma(z) - z == c checks (NotInL otherwise).
        """
        maps, add, neg, mul_ = self._sig_maps, self._add, self._neg, self._mul
        k0, y = self._k0_values, self._normal[0]
        partials = [0]  # partials[i]: y + ... + sigma^(i-1)(y)
        for sig in maps[:-1]:
            partials.append(add(partials[-1], sig(y)))
        images = []
        for xs in self._k0_setup[1]:  # the coordinates of g^j
            z = 0
            for x, v in zip(xs, partials):
                if x:
                    z = add(z, mul_(k0[x], v))
            if self.subfield_degree == 1:
                z = add(z, neg(self._digits(z)[0]))
            images.append(z)
        lin, sig = self._linear(images), maps[1]

        def preimage(c):  # no reference to the context: it holds preimage
            z = lin(c)
            if add(sig(z), neg(z)) != c:
                raise NotInL("element is not in the image of sigma - 1")
            return z

        return preimage

    @cached_property
    def _order4(self):
        return Order4Ctx(self)

    def build_order4_ctx(self):
        if self.sigma_order != 4:
            raise UnsupportedOrder(
                self.sigma_order, "order-4 context requires sigma of order 4"
            )
        return self._order4


# ---------------------------------------------------------------------------
# rational functions over Q
#
# Polynomials over Z are tuples of ints, ascending degree, trailing-trimmed.
# A rational function is a pair n/d of them, coprime over Q[t], with joint
# integer content 1 and d[-1] > 0.  That form is unique, so equality is
# tuple equality, and each operation normalises its result once.


_ZONE = (1,)
# The Q(t) size budget.  A product, a quotient, a sum of fractions and
# sigma on scale:a/b multiply integers, so each result they build has
# degree at most _QT_MAX_DEGREE (the parser's largest power, (t+1)^512, has
# 512) and no integer past _QT_MAX_BITS bits, and so has each
# pseudo-remainder of a gcd.  A sum of two polynomials and a shift keep the
# degree and add a few bits; the next product checks what they built.
# (1000^3000, from scale:1000, has 29,898 bits; past about 14,285 bits an
# integer is too long to print.)
_QT_MAX_DEGREE = 512
_QT_MAX_LEN = _QT_MAX_DEGREE + 1
_QT_MAX_BITS = 1 << 15


def _check_size(n, d=_ZONE):
    """Raise CoefficientTooLarge unless n/d (n nonzero) is within the budget:
    the check of every result _normed and RatFunc.__mul__ build."""
    if len(n) > _QT_MAX_LEN or len(d) > _QT_MAX_LEN or _past_bits(n + d):
        raise CoefficientTooLarge(
            f"a Q(t) coefficient is past the size budget of degree {_QT_MAX_DEGREE} "
            f"and {_QT_MAX_BITS}-bit integers"
        )


def _past_bits(a):
    """Whether an integer in the nonempty a has more than _QT_MAX_BITS bits.

    fsum turns each integer into a float and raises OverflowError only from
    2^1024 on, far inside the budget, so one call clears the usual small
    integers and only a tuple it refuses is scanned.
    """
    try:
        fsum(a)
        return False
    except OverflowError:
        return max(map(abs, a)) >> _QT_MAX_BITS > 0


def _zadd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(map(add, a, b))
    if len(a) > len(b):
        out.extend(a[len(b) :])
        return tuple(out)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _zmul(a, b):
    """Product of two nonzero integer polynomials."""
    if len(a) == 1:
        c = a[0]
        return tuple([c * x for x in b])
    if len(b) == 1:
        c = b[0]
        return tuple([c * x for x in a])
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for k, bj in enumerate(b, i):
                out[k] += ai * bj
    return tuple(out)


def _zdiv(a, b):
    """Quotient a / b for b primitive and dividing a over Q[t] (it lies in Z[t])."""
    db = len(b) - 1
    r = list(a)
    lead = b[-1]
    q = [0] * (len(a) - db)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + db] // lead
        if c:
            q[i] = c
            for k, bj in enumerate(b, i):
                r[k] -= c * bj
    return tuple(q)


def _zpp(a):
    """Primitive part of a nonzero a, with a positive leading coefficient."""
    c = gcd(*a)
    if a[-1] < 0:
        c = -c
    return a if c == 1 else tuple([x // c for x in a])


def _zprem(u, v):
    """Pseudo-remainder: lc(v)^k * u mod v, k the number of division steps."""
    r = list(u)
    lead = v[-1]
    dv = len(v) - 1
    while len(r) > dv:
        c = r.pop()  # lead * c - c * lead cancels the top term
        if lead != 1:
            r = [x * lead for x in r]
        for k, vk in enumerate(v[:dv], len(r) - dv):
            r[k] -= c * vk
        while r and not r[-1]:
            r.pop()
    return tuple(r)


def _zgcd(a, b):
    """(g, a/g, b/g) for the primitive gcd g of nonzero a, b over Z[t], g[-1] > 0.

    Primitive pseudo-remainder sequence (Knuth, TAOCP vol. 2, 4.6.1).
    """
    if len(a) == 1 or len(b) == 1:
        return _ZONE, a, b
    u, v = _zpp(a), _zpp(b)
    if len(u) < len(v):
        u, v = v, u
    while len(v) > 1:
        r = _zprem(u, v)
        if not r:
            return v, _zdiv(a, v), _zdiv(b, v)
        if _past_bits(r):
            raise CoefficientTooLarge(
                f"a Q(t) gcd has a pseudo-remainder past the budget of {_QT_MAX_BITS} bits"
            )
        u, v = v, _zpp(r)
    return _ZONE, a, b


def _zshift(a, s):
    """a(t + s) for an integer s (Taylor shift)."""
    c = list(a)
    top = len(c) - 1
    for i in range(top):
        for k in range(top - 1, i - 1, -1):
            c[k] += s * c[k + 1]
    return tuple(c)


def _zscale(n, d, a, b):
    """b^D * n(a*t/b) and b^D * d(a*t/b) for nonzero a, b; D the larger degree."""
    size = max(len(n), len(d))
    w = [1] * size
    for k in range(1, size):
        w[k] = w[k - 1] * a
    bk = 1
    for k in range(size - 2, -1, -1):
        bk *= b
        w[k] *= bk
    return tuple(map(mul, n, w)), tuple(map(mul, d, w))


def _normed(ctx, n, d):
    """n/d for n, d coprime over Q[t]: joint content divided out, d[-1] > 0."""
    if not n:
        return RatFunc(ctx, ())
    g = gcd(*n, *d)
    if d[-1] < 0:
        g = -g
    if g != 1:
        n = tuple([c // g for c in n])
        d = tuple([c // g for c in d])
    _check_size(n, d)
    return RatFunc(ctx, n, d)


class RatFunc:
    """Element n/d of Q(t): integer polynomials, coprime over Q[t], with
    joint content 1 and d[-1] > 0."""

    __slots__ = ("ctx", "n", "d")

    def __init__(self, ctx, n, d=_ZONE):
        self.ctx = ctx
        self.n = n
        self.d = d

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise FieldMismatch("elements of different fields")
            return other
        if isinstance(other, int):
            return self.ctx.from_int(other)
        if isinstance(other, Fraction):
            return self.ctx.from_fraction(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n1, d1, n2, d2 = self.n, self.d, o.n, o.d
        if not n1:
            return o
        if not n2:
            return self
        ctx = self.ctx
        if len(d1) == 1 and d1 == d2:
            n = _zadd(n1, n2)
            if d1 == _ZONE or not n:
                return RatFunc(ctx, n)
            return _normed(ctx, n, d1)
        # Henrici: with g = gcd(d1, d2), only g can share a factor with n
        g, c1, c2 = _zgcd(d1, d2)
        n = _zadd(_zmul(n1, c2), _zmul(n2, c1))
        if not n:
            return RatFunc(ctx, ())
        d = _zmul(c1, c2)
        if len(g) > 1:
            _, n, g = _zgcd(n, g)
            d = _zmul(d, g)
        return _normed(ctx, n, d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return RatFunc(self.ctx, tuple([-c for c in self.n]), self.d)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n1, d1, n2, d2 = self.n, self.d, o.n, o.d
        ctx = self.ctx
        if not n1 or not n2:
            return RatFunc(ctx, ())
        if len(d1) == 1 and len(d2) == 1:
            n = _zmul(n1, n2)
            if d1 == _ZONE and d2 == _ZONE:
                _check_size(n)
                return RatFunc(ctx, n)
            return _normed(ctx, n, (d1[0] * d2[0],))
        _, n1, d2 = _zgcd(n1, d2)
        _, n2, d1 = _zgcd(n2, d1)
        return _normed(ctx, _zmul(n1, n2), _zmul(d1, d2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def inverse(self):
        n, d = self.n, self.d
        if not n:
            raise ZeroNotInvertible("0 has no inverse")
        if n[-1] < 0:
            return RatFunc(self.ctx, tuple([-c for c in d]), tuple([-c for c in n]))
        return RatFunc(self.ctx, d, n)

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.ctx.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __bool__(self):
        return bool(self.n)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.n == o.n and self.d == o.d

    def __hash__(self):
        n, d = self.n, self.d
        if len(n) <= 1 and len(d) == 1:
            # a constant hashes like the equal int or Fraction
            return hash(Fraction(n[0], d[0])) if n else 0
        return hash((n, d))

    def __str__(self):
        lead = self.d[-1]
        try:
            if len(self.d) == 1:
                return _qpoly_str(self.n, lead)
            return f"({_qpoly_str(self.n, lead)})/({_qpoly_str(self.d, lead)})"
        except ValueError as exc:  # past Python's int-string limit
            raise OutputTooLarge("a Q(t) coefficient has too many digits to print") from exc

    def __repr__(self):
        return f"RatFunc({self})"


def _qpoly_str(cs, lead):
    """The polynomial with coefficients c / lead, as Fractions print them."""
    if not cs:
        return "0"
    parts = []
    for i in range(len(cs) - 1, -1, -1):
        c = cs[i]
        if c == 0:
            continue
        g = gcd(c, lead)
        c, q = c // g, lead // g
        if q != 1:
            c = f"{c}/{q}"
        if i == 0:
            parts.append(str(c))
        else:
            sym = "t" if i == 1 else f"t^{i}"
            if c == 1:
                parts.append(sym)
            elif c == -1:
                parts.append(f"-{sym}")
            else:
                parts.append(f"{c}*{sym}")
    out = parts[0]
    for part in parts[1:]:
        out += part if part.startswith("-") else "+" + part
    return out


class RationalFunctionCtx(FieldCtx):
    """Q(t) with sigma(t) = t + 1 (shift) or sigma(t) = q*t (scale)."""

    def __init__(self, kind, scale=None):
        if kind == "shift":
            if scale is not None:
                raise FieldSpecError("shift takes no scale parameter")
            self.scale = None
        elif kind == "scale":
            scale = Fraction(scale)
            if scale == 0 or scale == 1 or scale == -1:
                raise FieldSpecError("scale factor must lie outside {0, 1, -1}")
            self.scale = scale
        else:
            raise FieldSpecError(f"unknown automorphism kind {kind!r}")
        self.kind = kind
        self.sigma_order = None
        self.key = ("qt", kind, self.scale)

    # -- series-kernel seam (see FieldCtx): raw values are the elements, and
    # the operations dispatch through the RatFunc operators and self.sigma

    _add, _neg, _mul, _inv = add, neg, mul, methodcaller("inverse")
    _unwrap = _wrap = staticmethod(list)

    def _sigma_map(self, i):
        sigma = self.sigma
        return lambda a: sigma(a, i)

    def sigma(self, a, i=1):
        n, d = a.n, a.d
        if i == 0 or (len(n) <= 1 and len(d) == 1):
            return a
        if self.kind == "shift":
            # a Taylor shift keeps content, leading coefficients and coprimality
            return RatFunc(self, _zshift(n, i), _zshift(d, i))
        a, b = self.scale.numerator, self.scale.denominator
        if i < 0:
            a, b, i = b, a, -i
        # the image of a nonconstant element has a coefficient of about the
        # size of a^i or b^i: refuse one past the budget before the power
        if i * (max(a.bit_length(), b.bit_length()) - 1) >= _QT_MAX_BITS:
            raise CoefficientTooLarge(
                f"sigma^{i} gives a Q(t) coefficient an integer past the budget "
                f"of {_QT_MAX_BITS} bits"
            )
        return _normed(self, *_zscale(n, d, a**i, b**i))

    def zero(self):
        return RatFunc(self, ())

    def one(self):
        return RatFunc(self, _ZONE)

    def from_int(self, v):
        return RatFunc(self, (int(v),) if v else ())

    def from_fraction(self, fr):
        fr = Fraction(fr)
        return RatFunc(self, (fr.numerator,) if fr else (), (fr.denominator,))

    def gen(self):
        """The independent variable t."""
        return RatFunc(self, (0, 1))

    def random_elem(self, rng):
        """Small random rational function (degrees kept low for speed)."""
        num = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
        while num and not num[-1]:
            num.pop()
        num = tuple(num)
        if rng.random() < 0.5:
            return RatFunc(self, num)
        den = (rng.randint(-3, 3), 1)
        if not num:
            return RatFunc(self, num)
        _, num, den = _zgcd(num, den)
        return _normed(self, num, den)

    @property
    def characteristic(self):
        return 0

    def field_spec(self):
        return "qt"

    def sigma_spec(self):
        return "shift" if self.kind == "shift" else f"scale:{self.scale}"

    def __eq__(self, other):
        return isinstance(other, RationalFunctionCtx) and other.key == self.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"RationalFunctionCtx({self.sigma_spec()!r})"

    def format_elem(self, a):
        return str(a)


# ---------------------------------------------------------------------------
# order-4 subspace context


class Order4Ctx:
    """Subspaces of k attached to an order-4 sigma.

    Built from a normal-basis element y:

    * ``l_basis`` spans L = Im(sigma - 1), dimension 3;
    * ``e1`` spans k1 = {z : sigma(z) = -z};
    * ``e2`` and sigma(e2) span k2 = {z : sigma^2(z) = -z}.

    Both k1 and k2 sit inside L, and k2 is closed under inversion of its
    nonzero elements.  Membership has closed forms in sigma: L is the
    kernel of the trace to k0 (additive Hilbert 90), and k1 is defined by
    sigma itself.

    The context caches this object, which holds the context only weakly
    and its elements as packed values: a context without reference
    cycles is freed as soon as it is dropped.  Keep the context alive
    while using this object.
    """

    def __init__(self, ctx):
        self._ctx = weakref.ref(ctx)
        y = ctx._normal_basis_elem()
        sy = ctx.sigma(y, 1)
        s2 = ctx.sigma(y, 2)
        s3 = ctx.sigma(y, 3)
        l_basis = (y - sy, sy - s2, s2 - s3)
        e2 = y - s2
        self._y = y.value
        self._l_basis = tuple(b.value for b in l_basis)
        self._e1 = (y - sy + s2 - s3).value
        self._k2_basis = (e2.value, ctx.sigma(e2, 1).value)

    @property
    def ctx(self):
        ctx = self._ctx()
        if ctx is None:
            raise ReferenceError("the field context of this Order4Ctx has been freed")
        return ctx

    @property
    def y(self):
        return FFElem(self.ctx, self._y)

    @property
    def l_basis(self):
        ctx = self.ctx
        return tuple(FFElem(ctx, v) for v in self._l_basis)

    @property
    def e1(self):
        return FFElem(self.ctx, self._e1)

    @property
    def e2(self):
        return FFElem(self.ctx, self._k2_basis[0])

    @property
    def k2_basis(self):
        ctx = self.ctx
        return tuple(FFElem(ctx, v) for v in self._k2_basis)

    def in_l(self, a):
        return not self.ctx.k0_trace(a)

    def in_k1(self, a):
        return self.ctx.sigma(a, 1) == -a
