import random

import numpy as np
import pytest

from hqc128 import counters
from hqc128.codes import (
    P,
    _SYLVESTER,
    _decode_blocks,
    _fold,
    _peaks,
    code_decode,
    code_encode,
    rm_encode,
    rs_decode,
    rs_encode,
    rs_syndromes,
)
from hqc128.gf256 import gf_pow_alpha
from hqc128.poly_ring import weight
from tests.gf_ref import gf_mul_table


def syndrome_oracle(cw: bytes) -> list[int]:
    """Independent check: S_i = sum_j c_j alpha^(i*j), table arithmetic."""
    out = []
    for i in range(1, 2 * P.delta + 1):
        acc = 0
        for j, c in enumerate(cw):
            acc ^= gf_mul_table(c, gf_pow_alpha(i * j))
        out.append(acc)
    return out


def walsh_hadamard_butterfly(v: np.ndarray) -> np.ndarray:
    """Oracle: 7 butterfly stages (a, b) -> (a+b, a-b) in int32."""
    x = v.astype(np.int32).reshape(-1, 128).copy()
    h = 1
    while h < 128:
        x = x.reshape(-1, 128 // (2 * h), 2, h)
        a = x[:, :, 0, :].copy()
        b = x[:, :, 1, :]
        x[:, :, 0, :] = a + b
        x[:, :, 1, :] = a - b
        x = x.reshape(-1, 128)
        h *= 2
    return x.reshape(v.shape)


def rm_encode_oracle(symbol: int, multiplicity: int) -> bytes:
    """Independent per-bit affine evaluation of the chosen convention."""
    bits = []
    for j in range(128):
        value = symbol & 1
        for t in range(1, 8):
            value ^= ((symbol >> t) & 1) & ((j >> (t - 1)) & 1)
        bits.append(value)
    out = bytearray(16)
    for j, bit in enumerate(bits):
        out[j >> 3] |= bit << (j & 7)
    return bytes(out) * multiplicity


def flip_bits(block: bytes, positions) -> bytes:
    out = bytearray(block)
    for pos in positions:
        out[pos >> 3] ^= 1 << (pos & 7)
    return bytes(out)


def block_bits(blocks: bytes) -> np.ndarray:
    """Concatenated RM blocks as the (B, multiplicity, 128) bits that
    code_decode hands to _decode_blocks."""
    bits = np.unpackbits(np.frombuffer(blocks, dtype=np.uint8), bitorder="little")
    return bits.reshape(-1, P.rm_multiplicity, 128)


# ---------------------------------------------------------------------------
# Reed-Solomon


def test_rs_encode_zero_message():
    assert rs_encode(bytes(P.k), P) == bytes(P.n1)


def test_rs_encode_is_systematic():
    rng = random.Random(200)
    msg = rng.randbytes(P.k)
    cw = rs_encode(msg, P)
    assert len(cw) == P.n1
    assert cw[:P.k] == msg


def test_rs_encode_rejects_bad_length():
    with pytest.raises(ValueError):
        rs_encode(b"\x00" * (P.k + 1), P)
    with pytest.raises(ValueError):
        rs_decode(b"\x00" * (P.n1 - 1), P)


def test_rs_codeword_syndromes_vanish():
    rng = random.Random(201)
    for _ in range(1000):
        cw = rs_encode(rng.randbytes(P.k), P)
        assert syndrome_oracle(cw) == [0] * (2 * P.delta)


def test_rs_syndromes_match_oracle_on_non_codewords():
    rng = random.Random(215)
    for _ in range(200):
        word = rng.randbytes(P.n1)
        got = rs_syndromes(np.frombuffer(word, dtype=np.uint8), P)
        assert got.dtype == np.uint8
        assert list(got) == syndrome_oracle(word)


def test_rs_decode_counts_the_same_products_for_any_error_count():
    rng = random.Random(216)
    msg = rng.randbytes(P.k)
    counts = set()
    for n_err in (0, 1, 5, 15, 16):
        corrupted = bytearray(rs_encode(msg, P))
        for pos in rng.sample(range(P.n1), n_err):
            corrupted[pos] ^= rng.randrange(1, 256)
        with counters.collecting(counters.Counters()) as counted:
            rs_decode(bytes(corrupted), P)
        counts.add(counted.gf_muls)
    # n1 * 2 delta + 4 delta (3 delta + 1) + k (2 delta + 13 + (delta + 1) // 2)
    assert counts == {4_956}


def test_rs_corrects_errors_confined_to_parity():
    rng = random.Random(217)
    for _ in range(200):
        msg = rng.randbytes(P.k)
        corrupted = bytearray(rs_encode(msg, P))
        for pos in rng.sample(range(P.k, P.n1), rng.randrange(1, P.delta + 1)):
            corrupted[pos] ^= rng.randrange(1, 256)
        assert rs_decode(bytes(corrupted), P) == msg


def test_rs_linearity():
    rng = random.Random(202)
    for _ in range(1000):
        m1 = rng.randbytes(P.k)
        m2 = rng.randbytes(P.k)
        m3 = bytes(a ^ b for a, b in zip(m1, m2))
        c3 = bytes(a ^ b for a, b in zip(rs_encode(m1, P), rs_encode(m2, P)))
        assert rs_encode(m3, P) == c3


def test_rs_clean_roundtrip():
    rng = random.Random(203)
    for _ in range(1000):
        msg = rng.randbytes(P.k)
        assert rs_decode(rs_encode(msg, P), P) == msg


def test_rs_corrects_every_single_symbol_error():
    rng = random.Random(204)
    for _ in range(25):
        msg = rng.randbytes(P.k)
        cw = rs_encode(msg, P)
        for pos in range(P.n1):
            corrupted = bytearray(cw)
            corrupted[pos] ^= rng.randrange(1, 256)
            assert rs_decode(bytes(corrupted), P) == msg, pos


def test_rs_corrects_delta_errors():
    rng = random.Random(205)
    for _ in range(200):
        msg = rng.randbytes(P.k)
        corrupted = bytearray(rs_encode(msg, P))
        for pos in rng.sample(range(P.n1), P.delta):
            corrupted[pos] ^= rng.randrange(1, 256)
        assert rs_decode(bytes(corrupted), P) == msg


def test_rs_corrects_fewer_than_delta_errors():
    rng = random.Random(206)
    for n_err in range(1, P.delta):
        msg = rng.randbytes(P.k)
        corrupted = bytearray(rs_encode(msg, P))
        for pos in rng.sample(range(P.n1), n_err):
            corrupted[pos] ^= rng.randrange(1, 256)
        assert rs_decode(bytes(corrupted), P) == msg


# ---------------------------------------------------------------------------
# Reed-Muller


def test_rm_encode_zero_symbol():
    assert rm_encode(0x00, P) == bytes(P.n2 // 8)


def test_rm_encode_constant_bit_gives_all_ones():
    assert rm_encode(0x01, P) == b"\xff" * (P.n2 // 8)


def test_rm_encode_matches_affine_oracle_exhaustive():
    for sym in range(256):
        assert rm_encode(sym, P) == rm_encode_oracle(sym, P.rm_multiplicity)


def test_rm_per_copy_weight_spectrum():
    for sym in range(256):
        block = rm_encode(sym, P)
        copy = np.unpackbits(np.frombuffer(block[:16], dtype=np.uint8))
        assert int(copy.sum()) in (0, 64, 128)


def test_rm_fold_examples():
    zeros = bytes(P.n2 // 8)
    assert list(_fold(block_bits(zeros))[0]) == [3] * 128
    ones = b"\xff" * (P.n2 // 8)
    assert list(_fold(block_bits(ones))[0]) == [-3] * 128
    one_flip = flip_bits(zeros, [5])  # first copy, position 5
    folded = _fold(block_bits(one_flip))[0]
    assert folded[5] == 1
    assert all(folded[i] == 3 for i in range(128) if i != 5)


def test_hadamard_zero_and_delta():
    zero = np.zeros(128, dtype=np.float32)
    assert np.array_equal(zero @ _SYLVESTER, zero)
    delta = np.zeros(128, dtype=np.float32)
    delta[0] = 1
    assert np.array_equal(delta @ _SYLVESTER, np.ones(128))


def test_hadamard_involution_up_to_scale():
    rng = np.random.default_rng(207)
    for _ in range(1000):
        v = rng.integers(-3, 4, size=128).astype(np.float32)
        assert np.array_equal(v @ _SYLVESTER @ _SYLVESTER, 128 * v)


def test_hadamard_is_linear():
    rng = np.random.default_rng(208)
    for _ in range(500):
        v = rng.integers(-3, 4, size=128).astype(np.float32)
        w = rng.integers(-3, 4, size=128).astype(np.float32)
        assert np.array_equal((v + w) @ _SYLVESTER, v @ _SYLVESTER + w @ _SYLVESTER)


def test_hadamard_matches_butterfly_oracle():
    rng = np.random.default_rng(218)
    for _ in range(500):
        v = rng.integers(-3, 4, size=128).astype(np.int32)
        got = v.astype(np.float32) @ _SYLVESTER
        assert got.dtype == np.float32
        assert np.array_equal(got, walsh_hadamard_butterfly(v))
    batch = rng.integers(-3, 4, size=(46, 128)).astype(np.int32)
    assert np.array_equal(batch.astype(np.float32) @ _SYLVESTER, walsh_hadamard_butterfly(batch))


def test_peak_search_zero_codeword():
    t = np.zeros(128, dtype=np.float32)
    t[0] = 384
    assert _peaks(t) == 0x00


def test_peak_search_negative_peak_sets_constant_bit():
    t = np.zeros(128, dtype=np.float32)
    t[0] = -384
    assert _peaks(t) == 0x01


def test_peak_search_tie_break_lowest_index():
    t = np.zeros(128, dtype=np.float32)
    t[3] = 5
    t[10] = -5
    assert _peaks(t) == (3 << 1)
    t2 = np.zeros(128, dtype=np.float32)
    t2[10] = -5
    t2[40] = 5
    assert _peaks(t2) == (10 << 1) | 1


def test_peak_search_closure_exhaustive():
    for sym in range(256):
        t = _fold(block_bits(rm_encode(sym, P)))[0] @ _SYLVESTER
        assert _peaks(t) == sym


def test_rm_decode_clean_exhaustive():
    blocks = b"".join(rm_encode(sym, P) for sym in range(256))
    assert list(_decode_blocks(block_bits(blocks))) == list(range(256))


def test_rm_decode_corrects_95_flips():
    rng = random.Random(209)
    for _ in range(200):
        sym = rng.randrange(256)
        noisy = flip_bits(rm_encode(sym, P), rng.sample(range(P.n2), 95))
        assert list(_decode_blocks(block_bits(noisy))) == [sym]


def test_rm_decode_invariant_under_copy_permutation():
    rng = random.Random(210)
    for _ in range(100):
        sym = rng.randrange(256)
        block = bytearray(rm_encode(sym, P))
        # corrupt a few bits so the copies differ
        for pos in rng.sample(range(P.n2), 20):
            block[pos >> 3] ^= 1 << (pos & 7)
        copies = [bytes(block[16 * i:16 * (i + 1)]) for i in range(3)]
        order = rng.sample(range(3), 3)
        permuted = b"".join(copies[i] for i in order)
        decoded = _decode_blocks(block_bits(bytes(block) + permuted))
        assert decoded[0] == decoded[1]


# ---------------------------------------------------------------------------
# concatenated code


def test_code_encode_zero():
    assert weight(code_encode(bytes(P.k))) == 0


def test_code_encode_confined_to_low_bits():
    rng = random.Random(211)
    for _ in range(100):
        enc = code_encode(rng.randbytes(P.k))
        assert enc.value >> (P.n1 * P.n2) == 0
        assert weight(enc) <= P.n1 * P.n2


def test_code_encode_matches_per_bit_oracle():
    # mG block by block: the RS symbols, each RM-encoded bit by bit
    rng = random.Random(212)
    for _ in range(200):
        m = rng.randbytes(P.k)
        blocks = b"".join(rm_encode_oracle(sym, P.rm_multiplicity) for sym in rs_encode(m, P))
        low = code_encode(m).value & ((1 << (P.n1 * P.n2)) - 1)
        assert low == int.from_bytes(blocks, "little")


def test_code_roundtrip():
    rng = random.Random(212)
    for _ in range(1000):
        msg = rng.randbytes(P.k)
        assert code_decode(code_encode(msg)) == msg


def test_code_decode_ignores_high_bits():
    rng = random.Random(213)
    msg = rng.randbytes(P.k)
    enc = code_encode(msg)
    for i in range(P.n1 * P.n2, P.n):
        enc.value |= 1 << i
    assert code_decode(enc) == msg


def test_code_corrects_combined_noise():
    # <= 95 flips in each of <= delta blocks, none elsewhere
    rng = random.Random(214)
    for _ in range(500):
        msg = rng.randbytes(P.k)
        enc = code_encode(msg)
        for block in rng.sample(range(P.n1), rng.randrange(1, P.delta + 1)):
            n_flips = rng.randrange(1, 96)
            for off in rng.sample(range(P.n2), n_flips):
                enc.value ^= 1 << (block * P.n2 + off)
        assert code_decode(enc) == msg
