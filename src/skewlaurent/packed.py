"""The three arithmetic backends of GF(p^m) = GF(p)[x]/(f).

A finite-field context binds one of them at construction and never asks
which.  Each computes on Python ints, with one interface:

* ``x``, the int standing for the residue of x;
* ``add``, ``neg``, ``mul``, ``inv`` and ``pow``;
* ``digits(v)``, the m coefficients of v over GF(p), ``pack``, its
  inverse, and ``from_base_p``, the element whose coefficients are the
  base-p digits of an int (the order the context lists elements in);
* ``linear(images)``, the GF(p)-linear map v -> sum_i digit_i(v)*images[i];
* ``sigma_maps(k, n)``, the maps v -> v^(k^j) for j < n, k a power of p
  and n >= 2;
* ``wide``, k -> (lift, reduce) for sums of k products reduced once, or
  None.

``ZechScalars`` computes on exp/log/Zech tables, ``PackedGF2`` and
``PackedOddField`` on packed polynomials; each class documents its own
representation.  The elimination over GF(p) (``linalg``) packs its rows
with the same ``slot_codec``.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul, xor

from .errors import ZeroNotInvertible

# Entries allowed in the lookup tables of one GF(2^m) context's linear
# maps: 2^11 keeps GF(2^20)/frob (20 maps) at 4-bit chunks, about 60 KB.
LINEAR_TABLE_BUDGET = 1 << 11
# Entries in one lookup table of a ZechScalars linear map.
_CHUNK_ENTRIES = 1 << 6
_ASCII_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _identity(v):
    return v


def _slot_bytes(bound):
    """Bytes in the narrowest slot that holds every value up to bound."""
    return max(1, -(-bound.bit_length() // 8))


@lru_cache(maxsize=64)
def _byte_residues(p, nbytes):
    """Translate tables b -> b*256^i mod p for the bytes i < nbytes of a slot."""
    return tuple(bytes((b << 8 * i) % p for b in range(256)) for i in range(nbytes))


@lru_cache(maxsize=64)
def slot_codec(p, n):
    """(bits, split, join) for GF(p)-vectors packed one slot per entry.

    A slot of ``bits`` bits holds any value up to n*(p-1)^2, a sum of n
    products of two residues.  So the product of two packed polynomials
    of degree < n (Kronecker substitution) or a GF(p)-combination of n
    packed vectors is a single big-int operation, after which
    ``split(v, count)`` returns the first count slots reduced mod p, and
    ``join`` packs such a sequence back into an int.  The codec is built
    once per (p, n) and shared by every kernel and elimination using it.
    """
    nbytes = _slot_bytes(n * (p - 1) ** 2)
    bits = 8 * nbytes
    if nbytes == 1:
        modp = bytes(b % p for b in range(256))

        def split(v, count):
            return v.to_bytes(count, "little").translate(modp)

        def join(ds):
            return int.from_bytes(ds, "little")

        return bits, split, join

    mask = (1 << bits) - 1

    def split(v, count):
        return [(v >> (bits * i) & mask) % p for i in range(count)]

    def join(ds):
        v = 0
        for d in reversed(ds):
            v = v << bits | d
        return v

    return bits, split, join


class ZechScalars:
    """GF(p^m) on exp/log/Zech tables, an element as the base-p int of its
    coefficients.

    ``exp[i]`` is the int standing for g^i, g a generator of the
    multiplicative group, and ``one_plus[i]`` the int standing for
    1 + g^i; 0 stands for 0.  The Zech table holds the log of 1 + g^i, -1
    when that is 0.  The field contexts build the tables from the powers
    of g = x, so ``x`` is p; the tests also build them over k0 from other
    generators.  For p = 2 a sum is the XOR of the coefficient bits.  A
    power map permutes the logs, so each of ``sigma_maps`` is a lookup
    table of q entries.  ``linear`` looks up one table per chunk of c
    digits, p^c <= _CHUNK_ENTRIES, holding the combination of that
    chunk's images for every value of its digits.  ``wide`` is None:
    lifting rows into wide slots cost more, in each context's set-up,
    than the products it saved.
    """

    wide = None

    def __init__(self, p, m, exp, one_plus):
        qm1 = len(exp)
        log = [-1] * (qm1 + 1)  # 0 has no log
        for i, v in enumerate(exp):
            log[v] = i
        self.p, self.m, self.x = p, m, p
        self.zero = 0
        self.one = exp[0]
        self._exp, self._log, self._qm1 = exp, log, qm1
        self._log1p = list(map(log.__getitem__, one_plus))
        self._neg_log = 0 if p == 2 else qm1 // 2
        if p == 2:
            self.add = xor

    # Logs differ by less than q - 1, so a negative index into a table of
    # length q - 1 reduces them mod q - 1, and so does subtracting q - 1
    # from a sum of two logs.

    def add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        log = self._log
        la = log[a]
        z = self._log1p[log[b] - la]
        if z < 0:
            return 0
        return self._exp[la + z - self._qm1]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if a and b:
            log = self._log
            return self._exp[log[a] + log[b] - self._qm1]
        return 0

    def neg(self, a):
        if a == 0:
            return 0
        return self._exp[(self._log[a] + self._neg_log) % self._qm1]

    def inv(self, a):
        if a == 0:
            raise ZeroNotInvertible("0 has no inverse")
        return self._exp[-self._log[a] % self._qm1]

    def pow(self, a, k):
        if a == 0:
            if k > 0:
                return 0
            if k == 0:
                return self.one
            raise ZeroNotInvertible("0 has no negative powers")
        return self._exp[self._log[a] * k % self._qm1]

    def digits(self, v):
        out = []
        for _ in range(self.m):
            v, d = divmod(v, self.p)
            out.append(d)
        return tuple(out)

    def pack(self, ds):
        v = 0
        for d in reversed(ds):
            v = v * self.p + d
        return v

    from_base_p = staticmethod(_identity)

    def linear(self, images):
        p, add = self.p, self.add
        c = 1
        while c < self.m and p ** (c + 1) <= _CHUNK_ENTRIES:
            c += 1
        size = p**c
        tables = []
        for lo in range(0, self.m, c):
            tab = [0]
            for img in images[lo : lo + c]:
                multiples = [0]
                for _ in range(p - 1):
                    multiples.append(add(multiples[-1], img))
                tab = [add(t, u) for u in multiples for t in tab]
            tables.append(tab)

        def apply(v):
            r = 0
            for tab in tables:
                v, d = divmod(v, size)
                r = add(r, tab[d])
            return r

        return apply

    def sigma_maps(self, k, n):
        exp, qm1 = self._exp, self._qm1
        step = [exp[i * k % qm1] for i in self._log]  # (g^i)^k = g^(i*k mod (q - 1))
        step[0] = 0
        tabs = [range(qm1 + 1), step]
        for _ in range(2, n):
            tabs.append(list(map(step.__getitem__, tabs[-1])))
        return [tab.__getitem__ for tab in tabs]


class PackedField:
    """What the packed backends share: square-and-multiply powers and the
    sigma maps.

    Coefficient i sits at bit ``shift*i``, so x is ``1 << shift`` and its
    powers below x^m (the parser's g^k) are single shifts.  Both reduce a
    product through the precomputed images of x^m, ..., x^(2m-2) and
    invert by the extended Euclidean algorithm over GF(p)[x] (Knuth,
    TAOCP vol. 2, 4.6.1).  Nothing needs f to be irreducible except
    ``inv``, which raises ZeroNotInvertible for an element sharing a
    factor with f, so Rabin's test runs on a kernel, with the Frobenius
    map v -> v^p from ``sigma_maps``.
    """

    def pow(self, a, k):
        if a == 0:
            if k > 0:
                return 0
            if k == 0:
                return 1
            raise ZeroNotInvertible("0 has no negative powers")
        if a == self.x and 0 <= k < self.m:
            return 1 << self.shift * k
        k %= self.qm1
        mul_ = self.mul
        out = 1
        while k:
            if k & 1:
                out = mul_(out, a)
            a = mul_(a, a)
            k >>= 1
        return out

    def sigma_maps(self, k, n):
        """Each map is ``linear`` of the images of the basis 1, x, ...,
        x^(m-1): under v -> v^k those are the powers of x^k, and each
        further power of the map takes them once more through the first."""
        x_k = self.pow(self.x, k)
        images = [1]
        for _ in range(self.m - 1):
            images.append(self.mul(images[-1], x_k))
        maps = [_identity, self.linear(images)]
        for _ in range(2, n):
            images = list(map(maps[1], images))
            maps.append(self.linear(images))
        return maps


class PackedGF2(PackedField):
    """GF(2^m) on bit-packed ints: bit i is the coefficient of x^i.

    Sums are XOR.  Products are windowed shift-XOR carry-less products.
    GF(2)-linear maps (sigma^j, the reduction) are lookup tables on
    chunks of bits, with chunks small enough that ``maps`` of them fit in
    LINEAR_TABLE_BUDGET entries.  Sums of carry-less products have no
    plain-int form, so ``wide`` is None.
    """

    wide = None

    def __init__(self, m, modulus, maps):
        self.m = m
        self.qm1 = (1 << m) - 1
        self.shift = 1
        self.x = 2
        self._f = sum(c << i for i, c in enumerate(modulus))
        self._mask = (1 << m) - 1
        self._fmt = f"0{m}b"
        self._chunk = next(
            c for c in (8, 4, 2, 1) if c == 1 or (maps * -(-m // c)) << c <= LINEAR_TABLE_BUDGET
        )
        self.add = xor
        fold = []
        cur = self._f & self._mask  # x^m
        for _ in range(m - 1):
            fold.append(cur)
            cur <<= 1
            if cur >> m:
                cur ^= self._f
        self._fold = self.linear(fold)

    def neg(self, a):
        return a

    def mul(self, a, b):
        a2, a4, a8 = a << 1, a << 2, a << 3
        a3, a12 = a ^ a2, a4 ^ a8
        win = (
            0, a, a2, a3, a4, a4 ^ a, a4 ^ a2, a4 ^ a3,
            a8, a8 ^ a, a8 ^ a2, a8 ^ a3, a12, a12 ^ a, a12 ^ a2, a12 ^ a3,
        )  # fmt: skip
        r = 0
        i = 0
        while b:
            r ^= win[b & 15] << i
            b >>= 4
            i += 4
        hi = r >> self.m
        if hi:
            return (r & self._mask) ^ self._fold(hi)
        return r

    def inv(self, a):
        if a == 0:
            raise ZeroNotInvertible("0 has no inverse")
        # invariants: g1*a = u and g2*a = v mod f
        u, v, g1, g2 = a, self._f, 1, 0
        while u != 1:
            j = u.bit_length() - v.bit_length()
            if j < 0:
                if u == 0:  # v = gcd(a, f) is not 1: only for reducible f
                    raise ZeroNotInvertible("not a unit modulo the defining polynomial")
                u, v, g1, g2 = v, u, g2, g1
                j = -j
            u ^= v << j
            g1 ^= g2 << j
        return g1

    def digits(self, v):
        return tuple(format(v, self._fmt)[::-1].encode().translate(_ASCII_BITS))

    def pack(self, ds):
        v = 0
        for d in reversed(ds):
            v = v << 1 | d
        return v

    from_base_p = staticmethod(_identity)

    def linear(self, images):
        c = self._chunk
        tables = []
        for lo in range(0, len(images), c):
            tab = [0]
            for img in images[lo : lo + c]:
                tab += [t ^ img for t in tab]
            tables.append(tab)
        mask = (1 << c) - 1

        def apply(v):
            r = 0
            for tab in tables:
                r ^= tab[v & mask]
                v >>= c
            return r

        return apply


class PackedOddField(PackedField):
    """GF(p^m), p odd, on Kronecker-packed ints: coefficient i in slot i.

    A slot is byte-aligned and holds m*(p-1)^2, so a product of two
    packed polynomials is one big-int product (Kronecker substitution;
    Harvey, JSC 2009), reduced mod p slot by slot and then folded.  Sums,
    negatives and GF(p)-linear maps are big-int sums reduced slot by
    slot.  Where a slot is one byte (m*(p-1)^2 < 256), ``wide`` gives
    delayed reduction, as in FFLAS-FFPACK (Dumas, Giorgi and Pernet, ACM
    TOMS 2008); wider slots would be reduced digit by digit in Python,
    the step that made a delayed sum lose to the row loop, so there it is
    None.
    """

    def __init__(self, p, m, modulus):
        self.p = p
        self.m = m
        self.qm1 = p**m - 1
        self._bits, self._split, self._join = slot_codec(p, m)
        self.shift = self._bits
        self.x = 1 << self._bits
        self._fill = self._join([p] * m)  # p - a_i >= 1 in every slot
        self._f = self._join(modulus)
        top = self._bits * m
        x_m = self._join([-c % p for c in modulus[:m]])
        fold = []
        cur = x_m
        for _ in range(m - 1):
            fold.append(cur)
            cur <<= self._bits
            cur = self._reduce((cur & ((1 << top) - 1)) + (cur >> top) * x_m)
        self._fold = fold
        self._wide = {}  # slot bytes -> (lift, reduce), see wide
        if self._bits > 8:
            self.wide = None

    def _reduce(self, v):
        return self._join(self._split(v, self.m))

    def add(self, a, b):
        return self._join(self._split(a + b, self.m))

    def neg(self, a):
        return self._join(self._split(self._fill - a, self.m))

    def mul(self, a, b):
        m = self.m
        ds = self._split(a * b, 2 * m - 1)
        return self._join(self._split(self._join(ds[:m]) + sum(map(mul, ds[m:], self._fold)), m))

    def wide(self, k):
        """(lift, reduce) for a sum of up to k products, reduced once.

        lift(a) re-spreads the m digits of a, its bytes, into slots of
        slot_codec(p, m*k) width.  The plain-int product of two lifted
        values then has 2m - 1 slots of at most m*(p-1)^2 each, so a
        plain-int sum of k such products overflows no slot.  reduce(s) is
        the element such a sum stands for: every slot mod p, then folded
        through the images of x^m, ..., x^(2m-2) as mul folds one product.
        The pair is built once per slot width.
        """
        p, m = self.p, self.m
        nbytes = _slot_bytes(m * k * (p - 1) ** 2)
        pair = self._wide.get(nbytes)
        if pair is None:
            pair = self._wide[nbytes] = self._wide_pair(nbytes)
        return pair

    def _wide_pair(self, nbytes):
        p, m, fold = self.p, self.m, self._fold
        slots = 2 * m - 1  # slots of a product
        # A wide slot is reduced a byte position at a time: byte i of every
        # slot maps to its residue b*256^i mod p by one bytes.translate.  The
        # nbytes residues of a slot sum below 256, as p <= 13 here and
        # nbytes < 20 for any k that fits in memory.
        tables = _byte_residues(p, nbytes)
        modp = tables[0]
        zeros = bytes(m * nbytes)
        unpack = int.from_bytes

        def lift(a):
            buf = bytearray(zeros)
            buf[::nbytes] = a.to_bytes(m, "little")
            return unpack(buf, "little")

        def reduce(s):
            bs = s.to_bytes(slots * nbytes, "little")
            t = 0
            for i, tab in enumerate(tables):
                t += unpack(bs[i::nbytes].translate(tab), "little")
            ds = t.to_bytes(slots, "little").translate(modp)
            v = unpack(ds[:m], "little") + sum(map(mul, ds[m:], fold))
            return unpack(v.to_bytes(m, "little").translate(modp), "little")

        return lift, reduce

    def inv(self, a):
        if a == 0:
            raise ZeroNotInvertible("0 has no inverse")
        bits, p, split, join = self._bits, self.p, self._split, self._join
        n = self.m + 1
        # invariants: s0*a = r0 and s1*a = r1 mod f
        r0, r1, s0, s1 = self._f, a, 0, 1
        d1 = (r1.bit_length() - 1) // bits
        while d1:
            d0 = (r0.bit_length() - 1) // bits
            lead_inv = pow(r1 >> bits * d1, -1, p)
            while d0 >= d1:
                shift = bits * (d0 - d1)
                c = p - (r0 >> bits * d0) * lead_inv % p
                r0 = join(split(r0 + (c * r1 << shift), n))
                s0 = join(split(s0 + (c * s1 << shift), n))
                d0 = (r0.bit_length() - 1) // bits
            if r0 == 0:  # r1 = gcd(a, f) is not constant: only for reducible f
                raise ZeroNotInvertible("not a unit modulo the defining polynomial")
            r0, r1, s0, s1, d1 = r1, r0, s1, s0, d0
        return self._reduce(s1 * pow(r1, -1, p))

    def digits(self, v):
        return tuple(self._split(v, self.m))

    def pack(self, ds):
        return self._join(ds)

    def from_base_p(self, v):
        ds = []
        for _ in range(self.m):
            v, d = divmod(v, self.p)
            ds.append(d)
        return self._join(ds)

    def linear(self, images):
        split, join, m = self._split, self._join, self.m
        return lambda v: join(split(sum(map(mul, split(v, m), images)), m))
