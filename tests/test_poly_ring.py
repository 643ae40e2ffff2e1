import hmac
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hqc128 import poly_ring
from hqc128.counters import Counters, collecting
from hqc128.poly_ring import (
    DensePoly,
    SparsePoly,
    ct_equal,
    dense_from_sparse,
    mul_sparse_dense,
    xor_into,
)
from tests.ring_ref import add, as_int, dense, mul_shift_xor, unreduced_product


def bit(d: DensePoly, i: int) -> int:
    return (as_int(d) >> i) & 1


def rand_dense(n: int, rng: random.Random, density: float = 0.5) -> DensePoly:
    value = 0
    for i in range(n):
        if rng.random() < density:
            value |= 1 << i
    return dense(n, value)


def rand_sparse(n: int, w: int, rng: random.Random) -> SparsePoly:
    return SparsePoly(n, tuple(sorted(rng.sample(range(n), w))))


def fold_per_bit(acc: int, n: int) -> int:
    """Reduce a value of degree < 2n - 1 mod X^n - 1, one bit at a time."""
    for i in range(2 * n - 2, n - 1, -1):
        if (acc >> i) & 1:
            acc ^= (1 << i) | (1 << (i - n))
    return acc


def schoolbook_mul(s: SparsePoly, d: DensePoly) -> int:
    """O(n^2) oracle: walk every bit position of the densified sparse
    operand, then reduce bit by bit."""
    n = s.n
    a = 0
    for c in s.support.tolist():
        a |= 1 << c
    b = as_int(d)
    acc = 0
    for i in range(n):
        if (a >> i) & 1:
            acc ^= b << i
    return fold_per_bit(acc, n)


# ---------------------------------------------------------------------------
# types


def test_sparse_rejects_unsorted_support():
    # unsorted, repeated, at or above n, negative: as a tuple, a list and an
    # intp array
    for support in ((5, 3), (3, 3), (3, 97), (-1, 3)):
        for given in (support, list(support), np.array(support, dtype=np.intp)):
            with pytest.raises(ValueError):
                SparsePoly(97, given)
    # not integers: floats are not truncated, strings not parsed, a bool is
    # not 1, and an int past 64 bits raises ValueError, not OverflowError;
    # as a tuple, a list and the array numpy reads them as
    for support in ((3.5, 7.9), ("3", "5"), (True,), (2**70,)):
        for given in (support, list(support), np.array(support)):
            with pytest.raises(ValueError):
                SparsePoly(97, given)
    # a bool among ints, which numpy reads as an int64 array of 0 and 1: as a
    # tuple and a list
    for support in ((0, True), (True, 5)):
        for given in (support, list(support)):
            with pytest.raises(ValueError):
                SparsePoly(97, given)


def test_sparse_support_is_a_read_only_copy():
    given = np.array([3, 5, 96], dtype=np.intp)
    s = SparsePoly(97, given)
    assert s.support.dtype == np.intp and s.support.tolist() == [3, 5, 96]
    with pytest.raises(ValueError):
        s.support[0] = 4
    given[0] = 4
    assert s.support.tolist() == [3, 5, 96]
    assert SparsePoly(97, [3, 5, 96]) == s != SparsePoly(97, [3, 5])
    assert SparsePoly(97, ()) != SparsePoly(98, ())


def test_dense_from_sparse_empty_and_single():
    assert as_int(dense_from_sparse(SparsePoly(97, ()))) == 0
    d = dense_from_sparse(SparsePoly(97, (0,)))
    assert as_int(d) == 1


def test_dense_from_sparse_weight_oracle():
    rng = random.Random(10)
    for _ in range(1000):
        n = rng.choice((97, 257))
        s = rand_sparse(n, rng.randrange(0, min(20, n)), rng)
        d = dense_from_sparse(s)
        assert as_int(d).bit_count() == len(s.support)
        assert sum(bit(d, i) for i in range(n)) == len(s.support)


def test_dense_from_sparse_value_oracle():
    # the exact bits, so a slip in the bit order inside a byte shows
    n = 17669
    rng = random.Random(11)
    supports = [(0,), (7,), (8,), (n - 1,), (0, 7, 8, n - 1)]
    supports += [rand_sparse(n, 75, rng).support.tolist() for _ in range(200)]
    for support in supports:
        d = dense_from_sparse(SparsePoly(n, support))
        assert as_int(d) == sum(1 << c for c in support)
        assert as_int(d) >> n == 0


# ---------------------------------------------------------------------------
# add


def test_add_identity_and_self_inverse():
    rng = random.Random(11)
    a = rand_dense(257, rng)
    zero = dense(257)
    assert add(a, zero) == a
    assert add(a, a) == zero


def test_add_commutative():
    rng = random.Random(12)
    for _ in range(1000):
        a = rand_dense(97, rng)
        b = rand_dense(97, rng)
        assert add(a, b) == add(b, a)


def test_add_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        add(dense(97), dense(257))


# ---------------------------------------------------------------------------
# mul, including the reduction mod X^n - 1


def test_mul_by_x0_is_identity():
    rng = random.Random(13)
    d = rand_dense(17669, rng, density=0.3)
    assert as_int(mul_sparse_dense(SparsePoly(17669, (0,)), d)) == as_int(d)


def test_mul_single_shift_with_wraparound():
    # n = 7: X * (1 + X^6) = X + X^7 = 1 + X
    d = dense(7, 1 | 1 << 6)
    r = mul_sparse_dense(SparsePoly(7, (1,)), d)
    assert [bit(r, i) for i in range(7)] == [1, 1, 0, 0, 0, 0, 0]


@pytest.mark.parametrize("n,w", [(97, 10), (257, 15)])
def test_mul_matches_schoolbook_oracle(n, w):
    rng = random.Random(n)
    for _ in range(200):
        s = rand_sparse(n, w, rng)
        d = rand_dense(n, rng)
        got = mul_sparse_dense(s, d)
        assert as_int(got) >> n == 0
        assert as_int(got) == schoolbook_mul(s, d)


def test_mul_matches_schoolbook_at_full_size():
    rng = random.Random(14)
    for _ in range(5):
        s = rand_sparse(17669, 75, rng)
        d = rand_dense(17669, rng)
        assert as_int(mul_sparse_dense(s, d)) == schoolbook_mul(s, d)


def test_mul_is_xor_of_single_coordinate_products():
    rng = random.Random(15)
    for _ in range(200):
        s = rand_sparse(97, 6, rng)
        d = rand_dense(97, rng)
        combined = mul_sparse_dense(s, d)
        acc = dense(97)
        for c in s.support.tolist():
            acc = add(acc, dense(97, as_int(mul_sparse_dense(SparsePoly(97, (c,)), d))))
        assert as_int(combined) == as_int(acc)


def test_mul_distributes_over_add():
    rng = random.Random(16)
    for _ in range(200):
        s = rand_sparse(97, 5, rng)
        d1 = rand_dense(97, rng)
        d2 = rand_dense(97, rng)
        lhs = mul_sparse_dense(s, add(d1, d2))
        rhs = add(dense(97, as_int(mul_sparse_dense(s, d1))),
                  dense(97, as_int(mul_sparse_dense(s, d2))))
        assert as_int(lhs) == as_int(rhs)


def test_reduce_xn_is_one():
    # X * X^(n-1) = X^n, which reduces to 1
    n = 97
    r = mul_sparse_dense(SparsePoly(n, (1,)), dense(n, 1 << (n - 1)))
    assert bit(r, 0) == 1
    assert as_int(r).bit_count() == 1


def test_reduce_low_bits_unchanged():
    # a product with no bit at or above n is left as it is by the reduction
    rng = random.Random(17)
    n = 97
    for c in (0, 1, 30, 60):
        low = dense(n, rng.getrandbits(n - c))
        got = mul_sparse_dense(SparsePoly(n, (c,)), low)
        assert as_int(got) == as_int(low) << c


def test_reduce_matches_per_bit_oracle():
    rng = random.Random(18)
    n = 97
    for _ in range(1000):
        s = rand_sparse(n, rng.randrange(1, 20), rng)
        d = dense(n, rng.getrandbits(n))
        unreduced = unreduced_product(s, d)
        assert unreduced.bit_length() <= 2 * n - 1
        assert as_int(mul_sparse_dense(s, d)) == fold_per_bit(unreduced, n)


def test_accumulator_degree_bound_after_mul():
    rng = random.Random(19)
    for n in (97, 257, 17669):
        s = rand_sparse(n, 8, rng)
        d = rand_dense(n, rng)
        for k in range(1, len(s.support) + 1):
            prefix = SparsePoly(n, s.support[:k])
            assert unreduced_product(prefix, d).bit_length() <= 2 * n - 1


# n = 64 and 72 (n mod 8 = 0): d << n starts on a byte boundary, so the
# bits that d << n carries past each byte are none
@pytest.mark.parametrize("n", [7, 64, 72, 97, 257, 17669])
def test_mul_matches_shift_xor_oracle(n):
    rng = random.Random(n + 20)
    for w in (0, 1, 66, 75):
        w = min(w, n)
        for _ in range(12):
            support = set(rng.sample(range(n), w))
            if w >= 2:
                # both ends: the shortest (c = 0) and longest (c = n - 1) shift
                support = set(sorted(support)[1:-1]) | {0, n - 1}
            d = dense(n, rng.getrandbits(n))
            s = SparsePoly(n, tuple(sorted(support)))
            assert as_int(mul_sparse_dense(s, d)) == mul_shift_xor(s, d)
            # the same operand again, with another support: cached copies
            s2 = rand_sparse(n, w, rng)
            got = mul_sparse_dense(s2, d)
            assert as_int(got) >> n == 0
            assert as_int(got) == mul_shift_xor(s2, d)


@pytest.mark.parametrize("n", [97, 17669])
def test_cached_gather_indices_serve_every_operand(n):
    # a sparse operand keeps its gather indices from its first product; one
    # built by the checking constructor and one by _trusted (the sampler's
    # path) each multiply two dense operands twice, in turn
    rng = random.Random(n + 23)
    w = min(75, n // 2)
    built = [rand_sparse(n, w, rng),
             SparsePoly._trusted(n, np.array(sorted(rng.sample(range(n), w)), dtype=np.intp))]
    for s in built:
        operands = [dense(n, rng.getrandbits(n)) for _ in range(2)]
        for d in 2 * operands:
            assert as_int(mul_sparse_dense(s, d)) == mul_shift_xor(s, d)


# ---------------------------------------------------------------------------
# canonical form and serialization


def test_operations_preserve_canonical_form():
    rng = random.Random(21)
    for n in (97, 257, 17669):
        s = rand_sparse(n, 10, rng)
        d = rand_dense(n, rng)
        assert as_int(dense_from_sparse(s)) >> n == 0
        assert as_int(add(d, d)) >> n == 0
        assert as_int(mul_sparse_dense(s, d)) >> n == 0


def test_byte_roundtrip():
    rng = random.Random(22)
    for n in (97, 257, 17669):
        d = rand_dense(n, rng)
        blob = d.to_bytes()
        assert len(blob) == (n + 7) // 8
        assert DensePoly.from_bytes(n, blob) == d


def test_from_bytes_rejects_bad_input():
    with pytest.raises(ValueError):
        DensePoly.from_bytes(97, b"\x00" * 12)
    bad = bytearray((97 + 7) // 8)
    bad[-1] = 0x80  # bit 103 >= n
    with pytest.raises(ValueError):
        DensePoly.from_bytes(97, bytes(bad))


def test_from_bytes_checks_each_pad_bit():
    # n = 17669 leaves 5 data bits in the last byte: 0x20 is the lowest pad bit
    n = 17669
    blob = bytearray(random.Random(26).randbytes((n + 7) // 8))
    blob[-1] = 0x1F
    assert DensePoly.from_bytes(n, bytes(blob)).to_bytes() == bytes(blob)
    for pad in (0x20, 0x40, 0x80):
        blob[-1] = 0x1F | pad
        with pytest.raises(ValueError):
            DensePoly.from_bytes(n, bytes(blob))
    # a degree that fills its last byte has no pad bits
    assert DensePoly.from_bytes(64, b"\xff" * 8).to_bytes() == b"\xff" * 8


@pytest.mark.parametrize("n", [7, 64, 97, 17669])
def test_ring_results_are_fixed_length_words(n):
    # every ring result is ceil(n/64) '<u8' words with the bits at or above n
    # clear, whatever the support: the KEM adds its addends into them. n = 64
    # fills its last byte and word, so d << n needs no bit shift
    rng = random.Random(n + 27)
    words = (n + 63) // 64
    for d in (dense(n, (1 << n) - 1), dense(n, rng.getrandbits(n))):
        for support in ((), (0,), (n - 1,), tuple(sorted(rng.sample(range(n), min(n, 20))))):
            s = SparsePoly(n, support)
            product, scattered = mul_sparse_dense(s, d), dense_from_sparse(s)
            for got in (product, scattered):
                assert got.dtype == np.dtype("<u8") and got.shape == (words,)
                assert as_int(got) >> n == 0
            assert as_int(product) == mul_shift_xor(s, d)
            assert as_int(scattered) == sum(1 << c for c in support)


@pytest.mark.parametrize("n", [7, 97, 17669])
def test_xor_into_matches_int_oracle(n):
    # the wire bytes, zero-padded to whole words, are added in place: at
    # these n the bytes end inside the last word and the last byte has pad
    # bits
    rng = random.Random(n + 28)
    words = (n + 63) // 64
    for a, b in ((0, (1 << n) - 1), ((1 << n) - 1, (1 << n) - 1),
                 (rng.getrandbits(n), rng.getrandbits(n))):
        acc = np.frombuffer(a.to_bytes(8 * words, "little"), "<u8").copy()
        got = xor_into(acc, dense(n, b))
        assert got is acc and got.dtype == np.dtype("<u8") and got.shape == (words,)
        assert as_int(got) == a ^ b


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=13, max_size=13))
def test_byte_roundtrip_hypothesis(blob):
    # n = 97: top 7 bits of the last byte are padding
    blob = blob[:-1] + bytes([blob[-1] & 0x01])
    assert DensePoly.from_bytes(97, blob).to_bytes() == blob


# ---------------------------------------------------------------------------
# ct_equal


def test_ct_equal_basic():
    rng = random.Random(23)
    a = rng.randbytes(64)
    assert ct_equal(a, a)
    assert not ct_equal(a, a[:-1] + bytes([a[-1] ^ 1]))


def test_ct_equal_exhaustive_flip_sweep():
    rng = random.Random(24)
    a = rng.randbytes(16)  # 128-bit input
    for bit in range(128):
        flipped = bytearray(a)
        flipped[bit >> 3] ^= 1 << (bit & 7)
        assert not ct_equal(a, bytes(flipped))


def test_ct_equal_hands_full_inputs_to_compare_digest(monkeypatch):
    seen = []
    real = poly_ring.compare_digest
    monkeypatch.setattr(poly_ring, "compare_digest",
                        lambda a, b: seen.append((a, b)) or real(a, b))
    rng = random.Random(25)
    a = rng.randbytes(16)
    flipped = bytes([a[0] ^ 1]) + a[1:]  # difference in the first byte
    assert not ct_equal(a, flipped)
    assert seen == [(a, flipped)]
    assert ct_equal(b"x" * 2209, b"x" * 2209)
    assert seen[1] == (b"x" * 2209, b"x" * 2209)


def test_ct_equal_binds_the_comparator_hmac_names():
    # poly_ring takes compare_digest from _hashlib rather than importing hmac;
    # on a CPython whose hmac names another comparator this fails
    assert poly_ring.compare_digest is hmac.compare_digest


def test_ct_equal_rejects_length_mismatch():
    with pytest.raises(ValueError):
        ct_equal(b"ab", b"abc")


def test_byte_conversions_count_nothing():
    # bytes_copied is counted where a buffer is made (XOF, hash, mG, wire
    # objects), not on each conversion of a ring element
    rng = random.Random(12)
    n = 17669
    d = rand_dense(n, rng)
    record = Counters()
    with collecting(record):
        DensePoly.from_bytes(n, d.to_bytes())
        dense_from_sparse(rand_sparse(n, 75, rng))
    assert record == Counters()
