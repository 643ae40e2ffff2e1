"""The GF(2^8) operations the RS layer runs, on packed vectors, against the
log/antilog oracle in tests/gf_ref.py."""

import random

import pytest
from hypothesis import given, strategies as st

from hqc128 import codes
from hqc128.params import P
from tests.gf_ref import EXP, LOG, gf_mul_table

MSG = codes._MSG  # gf_mul works at the k-lane message width
K = MSG.n
ALL = bytes(range(256))
CHUNKS = [ALL[i:i + K] for i in range(0, 256, K)]
# every byte as a spread scalar, the form gf_mul_vec takes
SPREAD = [s for chunk in CHUNKS for s in MSG.scalars(MSG.pack(chunk))]


def mul(a: bytes, b: bytes) -> bytes:
    """Lane-wise a*b of two k-byte vectors through codes.gf_mul."""
    return MSG.unpack(codes.gf_mul(MSG.pack(a), MSG.pack(b)))


def mul_vec(rows: list[bytes], scalars: bytes) -> bytes:
    """sum_i rows[i] * scalars[i] through codes.gf_mul_vec, reduced."""
    packed = [MSG.pack(r) & MSG.low for r in rows]
    return MSG.unpack(MSG.reduce(codes.gf_mul_vec(packed, [SPREAD[s] for s in scalars])))


def test_gf_mul_identities():
    for a in CHUNKS:
        assert mul(a, bytes([1]) * K) == a
        assert mul(bytes(K), a) == bytes(K)


def test_gf_mul_known_value():
    assert mul(bytes([0x02]) * K, bytes([0x80]) * K) == bytes([0x1D]) * K
    assert mul_vec([bytes([0x02]) * K], b"\x80") == bytes([0x1D]) * K


def test_gf_mul_matches_table_backend_exhaustive():
    for a in range(256):
        for b in CHUNKS:
            assert mul(bytes([a]) * K, b) == bytes(gf_mul_table(a, y) for y in b)


def test_gf_mul_commutative_and_associative():
    rng = random.Random(3)
    for _ in range(1000):
        a, b, c = (rng.randbytes(K) for _ in range(3))
        assert mul(a, b) == mul(b, a)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))


def test_gf_inverse_of_one():
    assert codes.gf_inverse(b"\x01") == b"\x01"


def test_gf_inverse_exhaustive():
    for a in CHUNKS:
        a = a.replace(b"\x00", b"\x01")
        assert mul(a, codes.gf_inverse(a)) == bytes([1]) * K


def test_exp_log_tables():
    assert codes.gf_pow_alpha(0) == 0x01
    assert codes.gf_pow_alpha(8) == 0x1D
    assert codes.gf_pow_alpha(255) == 0x01
    for i in range(255):
        assert LOG[EXP[i]] == i


def test_gf_pow_alpha_matches_independent_table():
    assert [codes.gf_pow_alpha(i) for i in range(-255, 510)] == EXP * 3


def test_alpha_is_primitive():
    # alpha has order 255: its powers below 255 are all different and not 1
    assert sorted(EXP) == list(range(1, 256))
    for i in range(1, 255):
        assert codes.gf_pow_alpha(i) != 0x01


def test_vectorized_mul_matches_scalar_exhaustive():
    for s in range(256):
        for a in CHUNKS:
            assert mul_vec([a], bytes([s])) == bytes(gf_mul_table(x, s) for x in a)


def test_vectorized_inverse():
    # the full-scan table inverse the RS decoder runs, over all 256 bytes at once
    inv = codes.gf_inverse(ALL)
    assert inv[0] == 0
    for a in range(1, 256):
        assert gf_mul_table(a, inv[a]) == 1


# bit i of a byte at bit 4i: a field element as one packed lane
LANE = [int(f"{v:b}", 16) for v in range(256)]
WIDTHS = pytest.mark.parametrize("lanes", [codes._WORD, codes._CHIEN, codes._MSG],
                                 ids=["word", "chien", "msg"])


@WIDTHS
def test_reduce_top_lane_exhaustive(lanes):
    # every a * b as the RS layer makes it, a public row times a secret
    # scalar taken as s + _NZ, in the top lane (next to the guard), then one
    # reduce: the product alone is left in that lane, and the guard is set
    top = 64 * (lanes.n - 1)
    for a in range(256):
        row = LANE[a] << top
        got = [lanes.reduce(row * (LANE[b] + codes._NZ)) for b in range(256)]
        assert got == [(LANE[gf_mul_table(a, b)] << top) | lanes.guard for b in range(256)], a


@WIDTHS
def test_reduce_xor_sums_of_up_to_n1_products(lanes):
    # sums of 1..n1 row products, unreduced as gf_mul_vec hands them over,
    # against the table XOR-summed lane by lane
    rng = random.Random(113)
    for count in [*range(1, P.n1 + 1), *(rng.randrange(1, P.n1 + 1) for _ in range(50))]:
        rows = [rng.randbytes(lanes.n) for _ in range(count)]
        scalars = rng.randbytes(count)
        acc = codes.gf_mul_vec([lanes.pack(r) & lanes.low for r in rows],
                               [LANE[x] for x in scalars])
        expect = bytearray(lanes.n)
        for row, x in zip(rows, scalars):
            for lane, a in enumerate(row):
                expect[lane] ^= gf_mul_table(a, x)
        assert lanes.unpack(lanes.reduce(acc)) == bytes(expect), count


vectors = st.binary(min_size=K, max_size=K)


@given(vectors, vectors, vectors, st.integers(0, 255), st.integers(0, 255))
def test_gf_mul_distributes_over_xor(a, b, c, s, t):
    assert mul(a, bytes(x ^ y for x, y in zip(b, c))) == bytes(
        x ^ y for x, y in zip(mul(a, b), mul(a, c)))
    # gf_mul_vec is the XOR sum of its row products
    assert mul_vec([a, b], bytes([s, t])) == bytes(
        x ^ y for x, y in zip(mul(a, bytes([s]) * K), mul(b, bytes([t]) * K)))
