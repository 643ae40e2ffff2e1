import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from hqc128 import sampling
from hqc128.counters import Counters, collecting
from hqc128.params import hqc128
from hqc128.sampling import (
    DOMAIN_ENCRYPT_NOISE,
    DOMAIN_SECRET_SAMPLING,
    SamplingError,
    Xof,
    hash_g,
    hash_h,
    hash_k,
    sample_fixed_weight,
    sample_uniform_dense,
)
from tests.keccak_ref import KeccakState, PureXof, keccak_f1600
from tests.sampling_ref import sample_fixed_weight_per_draw

# Keccak team known-answer vectors: the f[1600] permutation applied to the
# all-zero state, once and twice (little-endian lane serialization).
ZERO_STATE_PERMUTED_ONCE = bytes.fromhex(
    "e7dde140798f25f18a47c033f9ccd584eea95aa61e2698d54d49806f304715bd"
    "57d05362054e288bd46f8e7f2da497ffc44746a4a0e5fe90762e19d60cda5b8c"
    "9c05191bf7a630ad64fc8fd0b75a933035d617233fa95aeb0321710d26e6a6a9"
    "5f55cfdb167ca58126c84703cd31b8439f56a5111a2ff20161aed9215a63e505"
    "f270c98cf2febe641166c47b95703661cb0ed04f555a7cb8c832cf1c8ae83e8c"
    "14263aae22790c94e409c5a224f94118c26504e72635f5163ba1307fe944f675"
    "49a2ec5c7bfff1ea"
)
ZERO_STATE_PERMUTED_TWICE = bytes.fromhex(
    "3ccb6ef94d955c2d6db55770d02c336a6c6bd770128d3d0994d06955b2d9208a"
    "56f1e7e5994f9c4f38fb65daa2b957f90daf7512ae3d7785f710d8c347f2f4fa"
    "59879af7e69e1b1f25b498ee0fccfee4a168ceb9b661ce684f978fbac466eade"
    "f5b1af6e833dc433d9db1927045406e065128309f0a9f87c434717bfa64954fd"
    "404b99d833addd9774e70b5dfcd5ea483cb0b755eec8b8e3e9429e646e22a091"
    "7bddbae729310e90e8cca3fac59e2a20b63d1c4e4602345b59104ca4624e9f60"
    "5cbf8f6ad26cd020"
)


def test_keccak_zero_state_known_answer():
    once = keccak_f1600(KeccakState())
    assert once.to_bytes() == ZERO_STATE_PERMUTED_ONCE
    assert once.lanes[0] == 0xF1258F7940E1DDE7
    twice = keccak_f1600(once)
    assert twice.to_bytes() == ZERO_STATE_PERMUTED_TWICE


def test_keccak_state_shape():
    with pytest.raises(ValueError):
        KeccakState([0] * 24)
    st_ = KeccakState.from_bytes(ZERO_STATE_PERMUTED_ONCE)
    assert st_.to_bytes() == ZERO_STATE_PERMUTED_ONCE


def test_keccak_injectivity_spot_check():
    rng = random.Random(100)
    seen = set()
    for _ in range(1000):
        state = KeccakState([rng.getrandbits(64) for _ in range(25)])
        out = keccak_f1600(state).to_bytes()
        assert out not in seen
        seen.add(out)


def test_pure_sponge_matches_hashlib():
    # the pure sponge squeezed across many block boundaries pins the whole
    # permutation against the standard
    for seed_len in (0, 1, 40, 135, 136, 137, 300):
        seed = bytes(range(256))[:seed_len] * 1
        ours = PureXof(seed, 0x2A).squeeze(500)
        ref = hashlib.shake_256(seed + b"\x2a").digest(500)
        assert ours == ref


def test_backends_agree():
    # Xof (hashlib) against the pure sponge, stream for stream
    rng = random.Random(101)
    for _ in range(20):
        seed = rng.randbytes(40)
        dom = rng.randrange(256)
        a = Xof(seed, dom)
        b = PureXof(seed, dom)
        for chunk in (1, 7, 136, 200):
            assert a.squeeze(chunk) == b.squeeze(chunk)


def test_backend_permutation_counts_agree():
    # the counts Xof derives from its input length and squeeze cursor against
    # the permutations the pure sponge runs; seeds of 0-600 bytes cross the
    # 136-byte rate up to four times, and every run has a zero-length squeeze
    from hqc128.counters import Counters, collecting

    rng = random.Random(102)
    edges = [0, 134, 135, 136, 271, 272]
    for seed_len in edges + [rng.randrange(0, 601) for _ in range(24)]:
        squeeze_sizes = [rng.randrange(0, 400) for _ in range(rng.randrange(1, 5))]
        squeeze_sizes.insert(rng.randrange(len(squeeze_sizes) + 1), 0)
        counts = []
        for sponge in (Xof, PureXof):
            c = Counters()
            with collecting(c):
                x = sponge(bytes(seed_len), 0x2A)
                for size in squeeze_sizes:
                    x.squeeze(size)
            counts.append(c.keccak_permutations)
        assert counts[0] == counts[1], (seed_len, squeeze_sizes)


def test_same_input_same_stream():
    a = Xof(b"s" * 40, 1).squeeze(64)
    b = Xof(b"s" * 40, 1).squeeze(64)
    assert a == b


def test_distinct_domains_diverge():
    rng = random.Random(103)
    for _ in range(100):
        seed = rng.randbytes(40)
        assert Xof(seed, 1).squeeze(64) != Xof(seed, 2).squeeze(64)


def test_incremental_squeeze_equals_oneshot():
    x = Xof(b"q" * 40, 9)
    y = Xof(b"q" * 40, 9)
    assert x.squeeze(32) + x.squeeze(32) == y.squeeze(64)


def test_squeeze_crossing_rate_boundary():
    x = Xof(b"r" * 40, 9)
    y = Xof(b"r" * 40, 9)
    assert x.squeeze(137) == y.squeeze(200)[:137]


def test_squeeze_zero_is_noop():
    x = Xof(b"t" * 40, 9)
    assert x.squeeze(0) == b""
    y = Xof(b"t" * 40, 9)
    assert x.squeeze(32) == y.squeeze(32)


def test_long_stream_stress():
    x = Xof(b"u" * 40, 9)
    pieces = []
    total = 0
    rng = random.Random(104)
    while total < 1_000_000:
        n = rng.randrange(1, 50_000)
        pieces.append(x.squeeze(n))
        assert len(pieces[-1]) == n
        total += n
    assert b"".join(pieces) == hashlib.shake_256(b"u" * 40 + b"\x09").digest(total)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_any_partition_yields_identical_stream(data):
    seed = data.draw(st.binary(min_size=0, max_size=300))
    domain = data.draw(st.integers(0, 255))
    x = Xof(seed, domain)
    sq_cuts = sorted(data.draw(st.lists(st.integers(0, 300), max_size=4)))
    out = b""
    prev = 0
    for cut in sq_cuts + [300]:
        out += x.squeeze(cut - prev)
        prev = cut
    assert out == hashlib.shake_256(seed + bytes([domain])).digest(300)


# ---------------------------------------------------------------------------
# fixed-weight sampling


def test_fixed_weight_postconditions():
    p = hqc128()
    rng = random.Random(105)
    for _ in range(200):
        xof = Xof(rng.randbytes(40), DOMAIN_SECRET_SAMPLING)
        s = sample_fixed_weight(xof, p.w_r, p.n)
        assert s.weight == p.w_r
        assert len(set(s.support)) == p.w_r
        assert all(0 <= c < p.n for c in s.support)
        assert list(s.support) == sorted(s.support)


def test_fixed_weight_deterministic():
    a = sample_fixed_weight(Xof(b"w" * 40, DOMAIN_ENCRYPT_NOISE), 75, 17669)
    b = sample_fixed_weight(Xof(b"w" * 40, DOMAIN_ENCRYPT_NOISE), 75, 17669)
    assert a == b


def test_fixed_weight_rejection_threshold_is_unbiased():
    n = 17669
    threshold = ((1 << 24) // n) * n
    assert threshold % n == 0
    assert threshold + n > (1 << 24)


def test_fixed_weight_matches_per_draw_oracle():
    # the chunk decoder against the per-draw loop on twin streams: the same
    # support and draw count, the same counts, and the same bytes squeezed
    # next, so the cursor stops where the per-draw loop stops
    rng = random.Random(110)
    cases = [(rng.randbytes(40), (w, w, w), 17669) for _ in range(300) for w in (66, 75)]
    cases += [(rng.randbytes(40), (75, 1, 66), (1 << 23) + 1) for _ in range(20)]
    cases += [(rng.randbytes(40), (w, w), n)
              for n, w in ((1, 1), (2, 2), (3, 3), (10, 9), (10, 10), (64, 60))
              for _ in range(10)]
    cases += [(rng.randbytes(40), (0, 0, 5), 17669) for _ in range(5)]
    for seed, weights, n in cases:
        fast, ref = Xof(seed, DOMAIN_ENCRYPT_NOISE), Xof(seed, DOMAIN_ENCRYPT_NOISE)
        for w in weights:
            c_fast, c_ref = Counters(), Counters()
            with collecting(c_fast):
                support = sample_fixed_weight(fast, w, n).support
            with collecting(c_ref):
                ref_support, draws = sample_fixed_weight_per_draw(ref, w, n)
            assert (support, c_fast.samples_drawn) == (ref_support, draws), (seed, w, n)
            assert c_fast.keccak_permutations == c_ref.keccak_permutations
            assert c_fast.bytes_copied == c_ref.bytes_copied
        assert fast.squeeze(16) == ref.squeeze(16), (seed, weights, n)


def test_fixed_weight_weight_cap():
    with pytest.raises(ValueError):
        sample_fixed_weight(Xof(b"x" * 40, 1), 10, 5)


def test_fixed_weight_draw_cap(monkeypatch):
    # 10 distinct coordinates below 10 need at least 10 draws
    monkeypatch.setattr(sampling, "MAX_SAMPLE_DRAWS", 5)
    with pytest.raises(SamplingError):
        sample_fixed_weight(Xof(b"x" * 40, 3), 10, 10)


def test_sample_uniform_dense_is_canonical():
    p = hqc128()
    d = sample_uniform_dense(Xof(b"y" * 40, 2), p.n)
    assert d.is_canonical()
    stream = hashlib.shake_256(b"y" * 40 + b"\x02").digest(p.n_bytes)
    assert d.value == int.from_bytes(stream, "little") & ((1 << p.n) - 1)
    d2 = sample_uniform_dense(Xof(b"y" * 40, 2), p.n)
    assert d == d2


# ---------------------------------------------------------------------------
# hash functions


def test_hashes_are_domain_separated():
    p = hqc128()
    rng = random.Random(107)
    for _ in range(1000):
        m = rng.randbytes(p.k)
        g = hash_g(m, p.seed_bytes)
        h = hash_h(m)
        k = hash_k(m, b"", p.ss_bytes)
        assert g != h[:len(g)]
        assert g != k[:len(g)]
        assert h != k


def test_hash_lengths_and_determinism():
    p = hqc128()
    m = b"\x01" * p.k
    assert len(hash_g(m, p.seed_bytes)) == 40
    assert len(hash_h(m)) == 64
    assert len(hash_k(m, b"c", p.ss_bytes)) == 64
    assert hash_g(m, p.seed_bytes) == hash_g(m, p.seed_bytes)


def test_hash_avalanche_spot_check():
    p = hqc128()
    rng = random.Random(108)
    for _ in range(1000):
        m = bytearray(rng.randbytes(p.k))
        g0, h0, k0 = hash_g(bytes(m), 40), hash_h(bytes(m)), hash_k(bytes(m), b"c", 64)
        bit = rng.randrange(p.k * 8)
        m[bit >> 3] ^= 1 << (bit & 7)
        assert hash_g(bytes(m), 40) != g0
        assert hash_h(bytes(m)) != h0
        assert hash_k(bytes(m), b"c", 64) != k0
