import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hqc128.codes import _inverse
from hqc128.gf256 import clmul_fma, gf_inverse, gf_mul, gf_mul_vec, gf_pow_alpha
from tests.gf_ref import EXP, LOG, gf_mul_table


def clmul_bitwise_oracle(a: int, b: int) -> int:
    """Independent per-bit carry-less multiply-add."""
    a_hi, a_lo = a >> 8, a & 0xFF
    prod = 0
    for i in range(8):
        for j in range(8):
            prod ^= (((a_hi >> i) & 1) & ((b >> j) & 1)) << (i + j)
    return prod ^ a_lo


def test_clmul_multiply_by_one():
    assert clmul_fma(0x0100, 0x35) == 0x0035


def test_clmul_zero_high_byte_passes_addend():
    assert clmul_fma(0x005A, 0xFF) == 0x005A


def test_clmul_x_plus_one_squared():
    # (x+1)^2 = x^2 + 1
    assert clmul_fma(0x0300, 0x03) == 0x0005


def test_clmul_matches_bitwise_oracle():
    rng = random.Random(0x11D)
    for _ in range(10_000):
        a = rng.randrange(1 << 16)
        b = rng.randrange(1 << 8)
        assert clmul_fma(a, b) == clmul_bitwise_oracle(a, b)


def test_clmul_result_degree_bound():
    rng = random.Random(1)
    for _ in range(1000):
        assert clmul_fma(rng.randrange(1 << 16), rng.randrange(1 << 8)) < (1 << 15)


def test_clmul_distributes_over_xor_in_b():
    rng = random.Random(2)
    for _ in range(10_000):
        a = rng.randrange(1 << 8) << 8  # a_lo = 0
        b1 = rng.randrange(1 << 8)
        b2 = rng.randrange(1 << 8)
        assert clmul_fma(a, b1 ^ b2) == clmul_fma(a, b1) ^ clmul_fma(a, b2)


def test_clmul_rejects_out_of_range():
    with pytest.raises(ValueError):
        clmul_fma(1 << 16, 0)
    with pytest.raises(ValueError):
        clmul_fma(0, 256)


def test_gf_mul_identities():
    for a in range(256):
        assert gf_mul(a, 0x01) == a
        assert gf_mul(0x00, a) == 0


def test_gf_mul_known_value():
    assert gf_mul(0x02, 0x80) == 0x1D


def test_gf_mul_matches_table_backend_exhaustive():
    for a in range(256):
        for b in range(256):
            assert gf_mul(a, b) == gf_mul_table(a, b)


def test_gf_mul_commutative_and_associative():
    rng = random.Random(3)
    for _ in range(10_000):
        a, b, c = (rng.randrange(256) for _ in range(3))
        assert gf_mul(a, b) == gf_mul(b, a)
        assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))


def test_gf_inverse_of_one():
    assert gf_inverse(0x01) == 0x01


def test_gf_inverse_exhaustive():
    for a in range(1, 256):
        assert gf_mul(a, gf_inverse(a)) == 0x01


def test_gf_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        gf_inverse(0x00)


def test_exp_log_tables():
    assert gf_pow_alpha(0) == 0x01
    assert gf_pow_alpha(8) == 0x1D
    assert gf_pow_alpha(255) == 0x01
    for i in range(255):
        assert LOG[EXP[i]] == i


def test_alpha_is_primitive():
    for i in range(1, 255):
        assert gf_pow_alpha(i) != 0x01


def test_vectorized_mul_matches_scalar_exhaustive():
    a = np.arange(256, dtype=np.uint8)
    got = gf_mul_vec(a[:, None], a[None, :])
    for x in range(256):
        for y in range(256):
            assert got[x, y] == gf_mul_table(x, y)


def test_vectorized_inverse():
    # the full-scan table inverse the RS decoder runs, over all 256 bytes at once
    inv = _inverse(bytes(range(256)))
    assert inv[0] == 0
    for a in range(1, 256):
        assert gf_mul(a, inv[a]) == 1


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_gf_mul_distributes_over_xor(a, b, c):
    assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)
