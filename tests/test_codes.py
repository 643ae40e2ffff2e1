import hashlib
import random

import numpy as np
import pytest

from hqc128 import codes, counters
from hqc128.codes import (
    _decode_blocks,
    _fold,
    _peaks,
    _rm_blocks,
    _sylvester,
    code_decode,
    code_encode,
    rm_encode,
    rs_decode,
    rs_encode,
    rs_syndromes,
)
from hqc128.params import P
from hqc128.poly_ring import DensePoly
from tests.codes_ref import code_encode_ref, rm_blocks_float
from tests.ring_ref import as_int, dense
from tests.gf_ref import EXP, LOG, gf_mul_table
from tests.rs_ref import rs_encode_ref


def syndrome_oracle(cw: bytes) -> list[int]:
    """Independent check: S_i = sum_j c_j alpha^(i*j), table arithmetic."""
    out = []
    for i in range(1, 2 * P.delta + 1):
        acc = 0
        for j, c in enumerate(cw):
            acc ^= gf_mul_table(c, EXP[i * j % 255])
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


# the +-1 Walsh-Hadamard matrix; codes keeps only -2 times it
_SYLVESTER = _sylvester()


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


# every message with one bit set: the encoders are linear, so these fix them
UNIT_MESSAGES = [bytes(m // 8) + bytes([1 << m % 8]) + bytes(P.k - 1 - m // 8)
                 for m in range(8 * P.k)]


def with_counters(f, *args):
    with counters.collecting(counters.Counters()) as c:
        out = f(*args)
    return out, c


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


def test_rs_encode_matches_textbook_division():
    # the k unit messages read each parity row on its own
    rng = random.Random(217)
    units = [bytes(m) + b"\x01" + bytes(P.k - 1 - m) for m in range(P.k)]
    for msg in units + [rng.randbytes(P.k) for _ in range(400)]:
        assert rs_encode(msg, P) == rs_encode_ref(msg)


def packed_lanes(lanes: list[int]) -> int:
    """Field element l into 64-bit lane l, its bit i at bit 4i, no guard."""
    return sum(((v >> i) & 1) << (64 * l + 4 * i) for l, v in enumerate(lanes) for i in range(8))


def test_rs_tables_match_lane_by_lane_oracles():
    # the packed import-time tables, rebuilt one lane at a time from the
    # log/antilog tables of gf_ref and the long-division encoder of rs_ref
    k, delta, t = P.k, P.delta, 2 * P.delta

    def alpha(e):
        return EXP[e % 255]

    # syndrome row j: lane i is alpha^((i+1) j) for i < 2 delta, zero above
    syn = [[alpha((i + 1) * j) for i in range(t)] + [0] * (codes._WORD.n - t)
           for j in range(P.n1)]
    assert codes._SYN_ROWS == [packed_lanes(row) for row in syn]
    # parity row m: the parity symbols of the unit message at position m
    units = [bytes(m) + b"\x01" + bytes(k - 1 - m) for m in range(k)]
    parity = [list(rs_encode_ref(msg)[k:]) + [0] * (codes._WORD.n - t) for msg in units]
    assert codes._PARITY_ROWS == [packed_lanes(row) for row in parity]
    # Chien/Forney row i, e = i - delta: the locator term Lambda_e X^e at
    # X_j^-1 = alpha^-j, its derivative (odd e), or for e < 0 the evaluator
    # term Omega_i X^i times X_j^(-2 delta), each over the k message positions
    chien = []
    for i in range(t + 1):
        e = i - delta
        locator = [alpha(-e * j) if e >= 0 else 0 for j in range(k)]
        slope = [alpha((1 - e) * j) if e >= 0 and e % 2 else 0 for j in range(k)]
        value = [alpha(-(i + t) * j) if e < 0 else 0 for j in range(k)]
        chien.append(locator + slope + value)
    assert codes._CHIEN_ROWS == [packed_lanes(row) for row in chien]
    # inverses: alpha^i -> alpha^(255 - i), 0 -> 0, held as float32
    inverse = [0] + [EXP[-LOG[a] % 255] for a in range(1, 256)]
    assert all(gf_mul_table(a, inverse[a]) == 1 for a in range(1, 256))
    assert codes._INV.dtype == np.float32 and codes._INV.tolist() == inverse


def test_rs_encode_rejects_bad_length():
    with pytest.raises(ValueError):
        rs_encode(b"\x00" * (P.k + 1), P)
    with pytest.raises(ValueError):
        rs_decode(b"\x00" * (P.n1 - 1), P)


def test_rs_codeword_syndromes_vanish():
    # with the message symbols fixed, vanishing syndromes fix the parity
    rng = random.Random(201)
    for msg in UNIT_MESSAGES + [rng.randbytes(P.k) for _ in range(1000)]:
        cw = rs_encode(msg, P)
        assert syndrome_oracle(cw) == [0] * (2 * P.delta)


def test_rs_syndromes_match_oracle_on_non_codewords():
    rng = random.Random(215)
    for _ in range(200):
        word = rng.randbytes(P.n1)
        got = rs_syndromes(np.frombuffer(word, dtype=np.uint8), P)
        assert got.dtype == np.uint8
        assert list(got) == syndrome_oracle(word)


def test_rs_syndromes_rejects_symbols_outside_a_byte():
    # a cast to uint8 would read 257 as 1 and -1 as 255
    for value in (257, -1):
        word = np.zeros(P.n1, dtype=np.int64)
        word[0] = value
        with pytest.raises(ValueError):
            rs_syndromes(word, P)
    word[0] = 255
    assert list(rs_syndromes(word, P)) == syndrome_oracle(bytes(word.astype(np.uint8)))


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


def test_rs_decode_beyond_capability_is_pinned():
    # random words sit beyond delta errors from any codeword, where the output
    # is unspecified; it must still not change when the decoder is rewritten
    rng = random.Random(0x5EED20)
    digest = hashlib.sha3_256()
    for _ in range(2000):
        digest.update(rs_decode(rng.randbytes(P.n1), P))
    assert digest.hexdigest() == (
        "a5a4b75f97deae6558025d4541d757a300d8ff47068089503020461796f38c0f")


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
    # _fold counts the set copies of each position
    zeros = bytes(P.n2 // 8)
    assert list(_fold(block_bits(zeros))[0]) == [0] * 128
    ones = b"\xff" * (P.n2 // 8)
    assert list(_fold(block_bits(ones))[0]) == [3] * 128
    one_flip = flip_bits(zeros, [5])  # first copy, position 5
    folded = _fold(block_bits(one_flip))[0]
    assert folded[5] == 1
    assert all(folded[i] == 0 for i in range(128) if i != 5)


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


def test_hadamard_factors_as_kronecker_product():
    # codes applies H128 as H16 (x) H8: the high 4 bits of an index meet H16,
    # the low 3 bits H8
    assert np.array_equal(np.kron(_sylvester(16), _sylvester(8)), _SYLVESTER)
    for size in (8, 16, 128):
        h = _sylvester(size)
        assert h.dtype == np.float32
        assert np.array_equal(h @ h, size * np.eye(size))


def bits_of_counts(counts: np.ndarray) -> np.ndarray:
    """(B, 128) set-copy counts -> (B, multiplicity, 128) bits, the first
    count copies of each position set."""
    copies = np.arange(P.rm_multiplicity)[:, None]
    return (copies < counts[:, None, :]).astype(np.uint8)


def test_factored_decode_matches_the_full_transform():
    # _decode_blocks takes -2 H16 @ C @ H8 of each 16 x 8 count block; all
    # entries are integers, so its symbols are the peaks of the 128-point
    # product of the soft values, ties included
    rng = np.random.default_rng(221)
    m = P.rm_multiplicity
    random_counts = rng.integers(0, m + 1, size=(2000, 128))
    equal = np.repeat(np.arange(m + 1), 128).reshape(m + 1, 128)
    # soft values +-H[u1] +-H[u2] +-H[u3] (entries +-1, +-3 for m = 3): three
    # columns tie at |t| = 128, with mixed signs
    three = np.array([rng.choice(128, size=3, replace=False) for _ in range(300)])
    signs = rng.choice([-1, 1], size=(300, 3))
    soft = np.einsum("bk,bkj->bj", signs, _SYLVESTER[three].astype(np.int64))
    three_peaks = (m - soft) // 2
    # soft values s (H[u] + H[u']) + e, u' = u with two index bits swapped and
    # e = +-1 unchanged by that swap: t[u] = t[u'] = 128 s + (e @ H)[u], which
    # tops the other columns, (e @ H)[w]
    j = np.arange(128)
    two_peaks = []
    for _ in range(600):
        a, b = rng.choice(7, size=2, replace=False)
        mirror = j ^ ((j >> a ^ j >> b) & 1) * (1 << a | 1 << b)
        u = rng.choice(j[mirror != j])
        e = rng.choice([-1, 1], size=128)[np.minimum(j, mirror)]
        soft = rng.choice([-1, 1]) * (_SYLVESTER[u] + _SYLVESTER[mirror[u]]) + e
        two_peaks.append((m - soft.astype(np.int64)) // 2)
    counts = np.concatenate([random_counts, equal, three_peaks, two_peaks])
    bits = bits_of_counts(counts)
    assert np.array_equal(_fold(bits), counts)
    t = (m - 2 * counts).astype(np.float32) @ _SYLVESTER
    magnitude = np.abs(t)
    tied = (magnitude == magnitude.max(axis=1, keepdims=True)).sum(axis=1) > 1
    assert tied[-900:].all()
    assert np.array_equal(_decode_blocks(bits), _peaks(t))
    for start in range(0, len(bits), P.n1):
        batch = slice(start, start + P.n1)
        assert np.array_equal(_decode_blocks(bits[batch]), _peaks(t[batch]))


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


def peak_oracle(row) -> int:
    """Per-row scan: first index of largest magnitude, sign into bit 0."""
    best = 0
    for j in range(128):
        if abs(row[j]) > abs(row[best]):
            best = j
    return (best << 1) | int(row[best] < 0)


def test_peak_search_batches_match_per_row_oracle():
    rng = np.random.default_rng(220)
    for _ in range(50):
        random_rows = rng.integers(-384, 385, size=(20, 128))
        tied = rng.integers(-5, 6, size=(20, 128))
        for row in tied:
            ties = rng.choice(128, size=rng.integers(2, 6), replace=False)
            row[ties] = rng.choice([-9, 9], size=len(ties))
        negative = -rng.integers(1, 385, size=(20, 128))
        # one peak index for every row, its sign alternating: a row read
        # from its neighbour gets the wrong constant bit
        same_index = rng.integers(-5, 6, size=(20, 128))
        same_index[:, rng.integers(128)] = np.where(np.arange(20) % 2, -9, 9)
        batch = np.concatenate([random_rows, tied, negative, same_index]).astype(np.float32)
        batch = batch[rng.permutation(len(batch))]
        got = _peaks(batch)
        assert got.shape == (80,)
        assert list(got) == [peak_oracle(row) for row in batch]
        assert np.array_equal(_peaks(batch.reshape(4, 20, 128)), got.reshape(4, 20))
    all_negative = -np.ones((7, 128), dtype=np.float32)
    assert list(_peaks(all_negative)) == [1] * 7


def test_peak_search_closure_exhaustive():
    for sym in range(256):
        counts = _fold(block_bits(rm_encode(sym, P)))[0].astype(np.float32)
        t = (P.rm_multiplicity - 2 * counts) @ _SYLVESTER
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


def test_encoders_match_the_float_rm_oracle():
    for sym in range(256):
        assert (with_counters(rm_encode, sym, P)
                == with_counters(rm_blocks_float, np.array([sym], dtype=np.uint8)))
    every = np.arange(256, dtype=np.uint8)
    assert _rm_blocks(every).tobytes() == rm_blocks_float(every)
    rng = random.Random(219)
    for m in UNIT_MESSAGES + [rng.randbytes(P.k) for _ in range(2000)]:
        enc, c = with_counters(code_encode, m)
        ref, c_ref = with_counters(code_encode_ref, m)
        assert (as_int(enc), c) == (as_int(ref), c_ref)


def test_code_encode_zero():
    assert as_int(code_encode(bytes(P.k))) == 0


def test_code_encode_confined_to_low_bits():
    # mG is a ring element in wire form: canonical bytes, zero from n1*n2/8 on
    rng = random.Random(211)
    for _ in range(100):
        enc = code_encode(rng.randbytes(P.k))
        assert isinstance(enc, DensePoly)
        assert DensePoly.from_bytes(P.n, enc.to_bytes()) == enc
        assert not any(enc.to_bytes()[P.n1 * P.n2 // 8:])
        assert as_int(enc) >> (P.n1 * P.n2) == 0
        assert as_int(enc).bit_count() <= P.n1 * P.n2


def test_code_encode_matches_per_bit_oracle():
    # mG block by block: the RS symbols, each RM-encoded bit by bit
    rng = random.Random(212)
    for _ in range(200):
        m = rng.randbytes(P.k)
        blocks = b"".join(rm_encode_oracle(sym, P.rm_multiplicity) for sym in rs_encode(m, P))
        low = as_int(code_encode(m)) & ((1 << (P.n1 * P.n2)) - 1)
        assert low == int.from_bytes(blocks, "little")


def test_code_roundtrip():
    rng = random.Random(212)
    for _ in range(1000):
        msg = rng.randbytes(P.k)
        assert code_decode(code_encode(msg)) == msg


def test_code_decode_ignores_high_bits():
    rng = random.Random(213)
    msg = rng.randbytes(P.k)
    enc = as_int(code_encode(msg))
    for i in range(P.n1 * P.n2, P.n):
        enc |= 1 << i
    assert code_decode(dense(P.n, enc)) == msg


def test_code_corrects_combined_noise():
    # <= 95 flips in each of <= delta blocks, none elsewhere
    rng = random.Random(214)
    for _ in range(500):
        msg = rng.randbytes(P.k)
        enc = as_int(code_encode(msg))
        for block in rng.sample(range(P.n1), rng.randrange(1, P.delta + 1)):
            n_flips = rng.randrange(1, 96)
            for off in rng.sample(range(P.n2), n_flips):
                enc ^= 1 << (block * P.n2 + off)
        assert code_decode(dense(P.n, enc)) == msg
