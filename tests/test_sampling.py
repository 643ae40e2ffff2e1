import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hqc128 import kem, sampling
from hqc128.counters import Counters, collecting
from hqc128.params import P
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
from tests.ring_ref import as_int
from tests import sampling_ref
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
    # also for a sized Xof (its first squeeze digests `bound` bytes), whose
    # stream and counts equal an unsized one's when the squeezes cross the bound
    seed = data.draw(st.binary(min_size=0, max_size=300))
    domain = data.draw(st.integers(0, 255))
    bound = data.draw(st.integers(0, 299))
    sq_cuts = sorted(data.draw(st.lists(st.integers(0, 300), max_size=4)))
    runs = []
    for x in (Xof(seed, domain), Xof(seed, domain, bound)):
        out = b""
        prev = 0
        with collecting(Counters()) as c:
            for cut in sq_cuts + [300]:
                out += x.squeeze(cut - prev)
                prev = cut
        runs.append((out, c))
    assert runs[0][0] == hashlib.shake_256(seed + bytes([domain])).digest(300)
    assert runs[1] == runs[0]


class CountingShake:
    """Stands in for an Xof's hashlib object and counts its digest calls."""

    def __init__(self, h):
        self.h = h
        self.digests = 0

    def digest(self, n: int) -> bytes:
        self.digests += 1
        return self.h.digest(n)


def test_draw_sites_digest_once_within_their_bound(monkeypatch):
    # the secret-key and the encryption-noise XOFs are sized for two chunks
    # per draw, so a draw sequence that ends within that digests once; every
    # seed here does (the bound covers all of thousands of measured seeds)
    made = []

    class CountingXof(Xof):
        __slots__ = ("domain", "bound")

        def __init__(self, seed, domain, bound=sampling.SHAKE256_RATE):
            super().__init__(seed, domain, bound)
            self._h = CountingShake(self._h)
            self.domain, self.bound = domain, bound
            made.append(self)

    monkeypatch.setattr(kem, "Xof", CountingXof)
    rng = random.Random(111)
    sites = {DOMAIN_SECRET_SAMPLING: 2 * 2 * 3 * P.w,
             DOMAIN_ENCRYPT_NOISE: 2 * 3 * (P.w_e + 2 * P.w_r)}
    for _ in range(20):
        made.clear()
        pk, sk = kem.keygen(rng.randbytes(40))
        ct, ss = kem.encaps(pk, rng.randbytes(40))
        assert kem.decaps(sk, ct) == ss
        drawn = [x for x in made if x.domain in sites]
        assert [x.domain for x in drawn] == [DOMAIN_SECRET_SAMPLING] + 2 * [DOMAIN_ENCRYPT_NOISE]
        for x in drawn:
            assert x.bound == sites[x.domain]
            assert x._pos <= x.bound
            assert x._h.digests == 1
    # past its bound a sized Xof grows its buffer by today's rule: one more digest
    x = CountingXof(b"z" * 40, DOMAIN_ENCRYPT_NOISE, 300)
    x.squeeze(300)
    x.squeeze(1)
    assert x._h.digests == 2


# ---------------------------------------------------------------------------
# fixed-weight sampling


def test_fixed_weight_postconditions():
    rng = random.Random(105)
    for _ in range(200):
        xof = Xof(rng.randbytes(40), DOMAIN_SECRET_SAMPLING)
        s = sample_fixed_weight(xof, P.w_r, P.n)
        assert len(s.support) == P.w_r
        assert len(set(s.support)) == P.w_r
        assert all(0 <= c < P.n for c in s.support)
        assert list(s.support) == sorted(s.support)
        assert isinstance(s.support, np.ndarray) and s.support.dtype == np.intp
        with pytest.raises(ValueError):
            s.support[0] = 0


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
    # the piece decoder against the per-draw loop on twin streams: the same
    # support and draw count, the same counts, and the same bytes squeezed
    # next, so the cursor stops where the per-draw loop stops. The cases
    # include draws that need one piece of w candidates and draws that need
    # more, after a duplicate (n = 97) or a rejection (n = 2^23 + 1)
    rng = random.Random(110)
    paths = set()
    cases = [(rng.randbytes(40), (w, w, w), 17669) for _ in range(300) for w in (66, 75)]
    cases += [(rng.randbytes(40), (75, 1, 66), (1 << 23) + 1) for _ in range(20)]
    cases += [(rng.randbytes(40), (w, w), n)
              for n, w in ((1, 1), (2, 2), (3, 3), (10, 9), (10, 10), (64, 60))
              for _ in range(10)]
    cases += [(rng.randbytes(40), (0, 0, 5), 17669) for _ in range(5)]
    cases += [(rng.randbytes(40), (10, 10), 97) for _ in range(20)]
    for seed, weights, n in cases:
        fast, ref = Xof(seed, DOMAIN_ENCRYPT_NOISE), Xof(seed, DOMAIN_ENCRYPT_NOISE)
        for w in weights:
            c_fast, c_ref = Counters(), Counters()
            with collecting(c_fast):
                support = tuple(sample_fixed_weight(fast, w, n).support.tolist())
            with collecting(c_ref):
                ref_support, draws = sample_fixed_weight_per_draw(ref, w, n)
            assert (support, c_fast.samples_drawn) == (ref_support, draws), (seed, w, n)
            assert c_fast.keccak_permutations == c_ref.keccak_permutations
            assert c_fast.bytes_copied == c_ref.bytes_copied
            if w:
                paths.add((n, draws == w))
        assert fast.squeeze(16) == ref.squeeze(16), (seed, weights, n)
    assert {(17669, True), (17669, False), (97, True), (97, False),
            ((1 << 23) + 1, False)} <= paths


def test_fixed_weight_weight_cap():
    with pytest.raises(ValueError):
        sample_fixed_weight(Xof(b"x" * 40, 1), 10, 5)


@pytest.mark.parametrize("weight, n", [(1, (1 << 24) + 3), (0, 0), (-2, 17669)],
                         ids=["n-above-24-bits", "n-zero", "negative-weight"])
def test_fixed_weight_rejects_bad_arguments(weight, n):
    # checked before squeezing: above 2^24 every 24-bit candidate is rejected
    # and the loop would run to the draw cap, and n = 0 would divide by zero
    xof = Xof(b"x" * 40, 1)
    with pytest.raises(ValueError):
        sample_fixed_weight(xof, weight, n)
    assert xof.squeeze(16) == Xof(b"x" * 40, 1).squeeze(16)


class RejectingXof:
    """Squeezes only 0xFF bytes: every candidate is rejected for an n that is
    not a power of two. Fails the test once the squeezes pass `limit`."""

    def __init__(self, limit: int):
        self.limit, self.squeezes = limit, 0

    def squeeze(self, size: int) -> bytes:
        self.squeezes += 1
        assert self.squeezes <= self.limit, "the draw cap did not stop the loop"
        return b"\xff" * size


def test_fixed_weight_draw_cap(monkeypatch):
    # 10 distinct coordinates below 10 need at least 10 draws
    monkeypatch.setattr(sampling, "MAX_SAMPLE_DRAWS", 5)
    with pytest.raises(SamplingError):
        sample_fixed_weight(Xof(b"x" * 40, 3), 10, 10)
    # a support that completes at the cap's last draw passes: at a cap of 5
    # a weight-5 first piece that completes the weight passes, and at 4 the
    # cap stops it
    assert len(sample_fixed_weight(Xof(b"x" * 40, 3), 5, 17669).support) == 5
    monkeypatch.setattr(sampling, "MAX_SAMPLE_DRAWS", 4)
    with pytest.raises(SamplingError):
        sample_fixed_weight(Xof(b"x" * 40, 3), 5, 17669)
    # a stream of rejects never reaches the weight, so the cap must stop the
    # loop as the draws pass it: at a cap of 100, twenty weight-5 pieces are
    # squeezed and the 21st raises before its squeeze
    monkeypatch.setattr(sampling, "MAX_SAMPLE_DRAWS", 100)
    xof = RejectingXof(1000)
    with pytest.raises(SamplingError):
        sample_fixed_weight(xof, 5, 17669)
    assert xof.squeezes == 20


CAP_SEEDS = range(6)


@pytest.mark.parametrize("seed", CAP_SEEDS)
def test_fixed_weight_draw_cap_is_per_draw(monkeypatch, seed):
    # the cap holds per draw, as in the oracle: with the cap one below the
    # draws a support needs, both raise, and at exactly that many both return
    # it, also when the cap is not a multiple of the chunk size. The seeds
    # include a support finished in its first piece of w candidates and
    # supports that need more pieces, sized to the coordinates still missing
    weight, n = 5, 7
    key = bytes([seed]) * 40
    support, needed = sample_fixed_weight_per_draw(Xof(key, 3), weight, n)
    assert {sample_fixed_weight_per_draw(Xof(bytes([s]) * 40, 3), weight, n)[1] == weight
            for s in CAP_SEEDS} == {True, False}
    for cap in (needed - 1, needed):
        monkeypatch.setattr(sampling, "MAX_SAMPLE_DRAWS", cap)
        monkeypatch.setattr(sampling_ref, "MAX_SAMPLE_DRAWS", cap)
        if cap < needed:
            with pytest.raises(SamplingError):
                sample_fixed_weight_per_draw(Xof(key, 3), weight, n)
            with pytest.raises(SamplingError):
                sample_fixed_weight(Xof(key, 3), weight, n)
        else:
            assert tuple(sample_fixed_weight(Xof(key, 3), weight, n).support.tolist()) == support


def test_sample_uniform_dense_is_canonical():
    d = sample_uniform_dense(Xof(b"y" * 40, 2))
    assert as_int(d) >> P.n == 0
    stream = hashlib.shake_256(b"y" * 40 + b"\x02").digest(P.n_bytes)
    assert as_int(d) == int.from_bytes(stream, "little") & ((1 << P.n) - 1)
    d2 = sample_uniform_dense(Xof(b"y" * 40, 2))
    assert d == d2


# ---------------------------------------------------------------------------
# hash functions


def test_hashes_are_domain_separated():
    rng = random.Random(107)
    for _ in range(1000):
        m = rng.randbytes(P.k)
        g = hash_g(m)
        h = hash_h(m)
        k = hash_k(m, b"")
        assert g != h[:len(g)]
        assert g != k[:len(g)]
        assert h != k


def test_hash_lengths_and_determinism():
    m = b"\x01" * P.k
    assert len(hash_g(m)) == 40
    assert len(hash_h(m)) == 64
    assert len(hash_k(m, b"c")) == 64
    assert hash_g(m) == hash_g(m)


def test_hash_avalanche_spot_check():
    rng = random.Random(108)
    for _ in range(1000):
        m = bytearray(rng.randbytes(P.k))
        g0, h0, k0 = hash_g(bytes(m)), hash_h(bytes(m)), hash_k(bytes(m), b"c")
        bit = rng.randrange(P.k * 8)
        m[bit >> 3] ^= 1 << (bit & 7)
        assert hash_g(bytes(m)) != g0
        assert hash_h(bytes(m)) != h0
        assert hash_k(bytes(m), b"c") != k0
