"""Packed-row elimination over GF(p) against the generic scalar-adapter
elimination of conftest, on every shape of matrix, for one-byte slots
(p = 3, 5, 7), two-byte ones (p = 13), wider ones (p = 257, 2^31 - 1)
and one-bit ones (p = 2)."""

import random

import pytest

from skewlaurent import linalg
from skewlaurent.packed import PackedOddField, slot_codec

import conftest as oracle

PRIMES = [2, 3, 5, 7, 13, 257, (1 << 31) - 1]


def _random_rows(rng, p, nrows, ncols, rank=None):
    """nrows random rows of ncols residues; with rank, combinations of
    rank random rows, so of rank at most rank."""
    if rank is None:
        return [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
    basis = _random_rows(rng, p, rank, ncols)
    rows = []
    for _ in range(nrows):
        cs = [rng.randrange(p) for _ in basis]
        rows.append([sum(c * b[j] for c, b in zip(cs, basis)) % p for j in range(ncols)])
    return rows


def _shapes(rng, p):
    """(name, rows) for the empty, all-zero, tall, wide, rank-deficient and
    full-rank cases, with a few seeded matrices of each."""
    yield "empty", []
    yield "no columns", [[], []]
    for n, k in ((1, 1), (3, 5), (4, 4)):
        yield "all-zero", [[0] * k for _ in range(n)]
    for _ in range(3):
        yield "tall", _random_rows(rng, p, 7, 3)
        yield "wide", _random_rows(rng, p, 3, 7)
        yield "rank-deficient", _random_rows(rng, p, 6, 6, rank=3)
        yield "rank-deficient tall", _random_rows(rng, p, 8, 5, rank=2)
        yield "full-rank", _random_rows(rng, p, 5, 5)
        rest = _random_rows(rng, p, 4, 3)
        yield "identity-led", [[int(i == j) for j in range(4)] + r for i, r in enumerate(rest)]
    # one full-rank square matrix of each size up to 8, and 20 x 20
    for n in list(range(1, 9)) + [20]:
        while True:
            rows = _random_rows(rng, p, n, n)
            if oracle.rank_of_vectors(rows, oracle.ModPScalars(p)) == n:
                break
        yield "full-rank", rows


@pytest.mark.parametrize("p", PRIMES)
def test_packed_elimination_matches_the_scalar_oracle(p):
    rng = random.Random(f"linalg:{p}")
    scalars = oracle.ModPScalars(p)
    seen = set()
    for name, rows in _shapes(rng, p):
        seen.add(name)
        what = (p, name, rows)
        assert linalg.rref(rows, p) == oracle.rref(rows, scalars), what
        assert linalg.rank_of_vectors(rows, p) == oracle.rank_of_vectors(rows, scalars), what
        columns = [list(c) for c in zip(*rows)]
        assert linalg.kernel_from_columns(columns, p) == oracle.kernel_from_columns(
            columns, scalars
        ), what
        if len(rows) == len(rows[0] if rows else ()):
            try:
                want = oracle.invert_matrix(rows, scalars)
            except ValueError:
                with pytest.raises(ValueError):
                    linalg.invert_matrix(rows, p)
            else:
                assert linalg.invert_matrix(rows, p) == want, what
    assert seen >= {"empty", "all-zero", "tall", "wide", "rank-deficient", "full-rank"}


@pytest.mark.parametrize("p", PRIMES)
def test_singular_matrices_do_not_invert(p):
    rng = random.Random(f"singular:{p}")
    for n in (1, 2, 4, 7):
        for rows in ([[0] * n for _ in range(n)], _random_rows(rng, p, n, n, rank=n - 1)):
            with pytest.raises(ValueError):
                oracle.invert_matrix(rows, oracle.ModPScalars(p))
            with pytest.raises(ValueError):
                linalg.invert_matrix(rows, p)


def test_slot_codec_is_built_once():
    # every PackedOddField constructor and every odd-p elimination shares
    # one codec (and its byte translate table) per (p, n)
    assert slot_codec(3, 12) is slot_codec(3, 12)
    a = PackedOddField(3, 4, (2, 0, 0, 2, 1))
    b = PackedOddField(3, 4, (2, 0, 0, 2, 1))
    assert a._split is b._split and a._join is b._join
