"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(visible with `pytest tests/test_acceptance.py -s`).

The heavyweight statistical criteria use fixed seeds, so every run is
deterministic.
"""

import random
import time
from itertools import product

import numpy as np
import pytest

from hqc128 import codes
from hqc128 import costmodel as cm
from hqc128 import kem
from hqc128.codes import _decode_blocks, rm_encode, rs_decode, rs_encode
from hqc128.params import P
from hqc128.poly_ring import SparsePoly, mul_sparse_dense
from hqc128.sampling import DOMAIN_KAT_CHAIN, Xof, sample_fixed_weight
from tests.gf_ref import gf_mul_table
from tests.keccak_ref import KeccakState, keccak_f1600
from tests.ring_ref import as_int, dense
from tests.test_codes import block_bits
from tests.test_poly_ring import schoolbook_mul
from tests.test_sampling import ZERO_STATE_PERMUTED_ONCE, ZERO_STATE_PERMUTED_TWICE

pytestmark = pytest.mark.acceptance


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def seed_chain(label: bytes):
    xof = Xof(label.ljust(P.seed_bytes, b"\x00"), DOMAIN_KAT_CHAIN)
    while True:
        yield xof.squeeze(P.seed_bytes)


def test_c01_kem_correctness_at_scale():
    trials = 10_000
    seeds = seed_chain(b"acceptance-1")
    start = time.perf_counter()
    matches = 0
    for _ in range(trials):
        pk, sk = kem.keygen(next(seeds))
        ct, ss = kem.encaps(pk, next(seeds))
        matches += kem.decaps(sk, ct) == ss
    elapsed = time.perf_counter() - start
    report(
        "1 kem-correctness",
        matches == trials and elapsed <= 300.0,
        f"{matches}/{trials} shared secrets equal in {elapsed:.1f}s",
    )


def test_c02_ring_multiplication_oracle():
    cases = 1000
    rng = random.Random(0xACCE2)
    start = time.perf_counter()
    checked = 0
    for n, w in ((97, 10), (257, 15), (17669, 75)):
        for _ in range(cases):
            support = tuple(sorted(rng.sample(range(n), w)))
            value = 0
            for word_index in range((n + 63) // 64):
                value |= rng.getrandbits(64) << (64 * word_index)
            d = dense(n, value & ((1 << n) - 1))
            s = SparsePoly(n, support)
            assert as_int(mul_sparse_dense(s, d)) == schoolbook_mul(s, d)
            checked += 1
    elapsed = time.perf_counter() - start
    report(
        "2 ring-oracle-equivalence",
        checked == 3 * cases and elapsed <= 120.0,
        f"{checked} cases at n in (97, 257, 17669) in {elapsed:.1f}s",
    )


def test_c03_gf256_exhaustive_equivalence():
    # the field multiplies the RS layer runs, on packed k-lane vectors: the
    # lane-wise product and the row-times-scalar sum with one row
    lanes = codes._MSG
    values = [bytes(range(i, i + lanes.n)) for i in range(0, 256, lanes.n)]
    packed = [lanes.pack(v) for v in values]
    spread = [s for v in packed for s in lanes.scalars(v)]
    start = time.perf_counter()
    ok = True
    for a in range(256):
        row = lanes.pack(bytes([a]) * lanes.n)
        for b, vb in zip(values, packed):
            expect = bytes(gf_mul_table(a, y) for y in b)
            ok = ok and lanes.unpack(codes.gf_mul(row, vb)) == expect
            vec = codes.gf_mul_vec([vb & lanes.low], [spread[a]])
            ok = ok and lanes.unpack(lanes.reduce(vec)) == expect
    elapsed = time.perf_counter() - start
    report(
        "3 gf256-exhaustive",
        ok and elapsed <= 1.0,
        f"65536 pairs through gf_mul and gf_mul_vec in {elapsed:.2f}s",
    )


def test_c04_code_capability():
    rng = random.Random(0xACCE4)
    ok = True
    # RS: every planted pattern of exactly delta symbol errors
    for _ in range(1000):
        msg = rng.randbytes(P.k)
        corrupted = bytearray(rs_encode(msg, P))
        for pos in rng.sample(range(P.n1), P.delta):
            corrupted[pos] ^= rng.randrange(1, 256)
        ok = ok and rs_decode(bytes(corrupted), P) == msg
    # RS: every single-symbol error, exhaustively over positions
    for _ in range(100):
        msg = rng.randbytes(P.k)
        cw = rs_encode(msg, P)
        for pos in range(P.n1):
            corrupted = bytearray(cw)
            corrupted[pos] ^= rng.randrange(1, 256)
            ok = ok and rs_decode(bytes(corrupted), P) == msg
    # RM: all 256 clean symbols
    clean = b"".join(rm_encode(sym, P) for sym in range(256))
    ok = ok and list(_decode_blocks(block_bits(clean))) == list(range(256))
    # RM: <= 95 bit flips per 384-bit block
    for _ in range(1000):
        sym = rng.randrange(256)
        block = bytearray(rm_encode(sym, P))
        for pos in rng.sample(range(P.n2), 95):
            block[pos >> 3] ^= 1 << (pos & 7)
        ok = ok and list(_decode_blocks(block_bits(bytes(block)))) == [sym]
    report("4 code-capability", ok,
           "RS delta=15 x1000 + single-symbol exhaustive; RM 95 flips x1000")


def test_c05_keccak_conformance():
    once = keccak_f1600(KeccakState())
    twice = keccak_f1600(once)
    report(
        "5 keccak-known-answer",
        once.to_bytes() == ZERO_STATE_PERMUTED_ONCE
        and twice.to_bytes() == ZERO_STATE_PERMUTED_TWICE,
        "zero state permuted once and twice",
    )


def test_c06_fo_rejection_sweep():
    rng = random.Random(0xACCE6)
    seeds = seed_chain(b"acceptance-6")
    nb = P.n_bytes
    # every non-padding bit of the wire format is fair game
    pad_bits = {nb * 8 - i for i in range(1, 4)} | {2 * nb * 8 - i for i in range(1, 4)}
    valid_bits = [i for i in range(kem.CT_BYTES * 8) if i not in pad_bits]
    rejected = 0
    total = 0
    for _ in range(100):
        pk, sk = kem.keygen(next(seeds))
        ct_blob = kem.serialize_ct(kem.encaps(pk, next(seeds))[0])
        for bit in rng.sample(valid_bits, 300):
            tampered = bytearray(ct_blob)
            tampered[bit >> 3] ^= 1 << (bit & 7)
            total += 1
            try:
                kem.decaps(sk, kem.deserialize_ct(bytes(tampered)))
            except kem.DecapsulationFailure:
                rejected += 1
    report("6 fo-rejection-sweep", rejected == total == 30_000,
           f"{rejected}/{total} single-bit modifications rejected")


def test_c07_sampler_statistics():
    samples = 20_000
    w = 75
    xof = Xof(b"acceptance-7".ljust(P.seed_bytes, b"\x00"), DOMAIN_KAT_CHAIN)
    freq = np.zeros(P.n, dtype=np.int64)
    well_formed = 0
    for _ in range(samples):
        s = sample_fixed_weight(xof, w, P.n)
        coords = np.fromiter(s.support, dtype=np.int64, count=w)
        well_formed += (
            len(coords) == w
            and len(set(s.support)) == w
            and coords.max() < P.n
        )
        freq[coords] += 1
    prob = w / P.n
    mean = samples * prob
    sigma = (samples * prob * (1 - prob)) ** 0.5
    z = np.abs(freq - mean) / sigma
    report(
        "7 sampler-statistics",
        well_formed == samples and float(z.max()) <= 5.0,
        f"max |z| = {float(z.max()):.2f} over {P.n} coordinates;"
        f" {well_formed}/{samples} well-formed",
    )


def test_c08_serialization():
    seeds = seed_chain(b"acceptance-8")
    sizes_ok = (kem.PK_BYTES, kem.SK_BYTES, kem.CT_BYTES) == (2249, 2289, 4482)
    ok = sizes_ok
    for _ in range(1000):
        pk, sk = kem.keygen(next(seeds))
        ct, _ = kem.encaps(pk, next(seeds))
        pk_blob = kem.serialize_pk(pk)
        sk_blob = kem.serialize_sk(sk)
        ct_blob = kem.serialize_ct(ct)
        ok = ok and len(pk_blob) == 2249 and len(sk_blob) == 2289 and len(ct_blob) == 4482
        ok = ok and kem.serialize_pk(kem.deserialize_pk(pk_blob)) == pk_blob
        ok = ok and kem.serialize_sk(kem.deserialize_sk(sk_blob)) == sk_blob
        ok = ok and kem.serialize_ct(kem.deserialize_ct(ct_blob)) == ct_blob
    two_kb_deviation = abs(2249 - 2048) / 2048
    ok = ok and two_kb_deviation <= 0.15
    report("8 serialization", ok,
           f"1000 roundtrips each; pk within {two_kb_deviation:.1%} of 2 KB")


def test_c09_cost_model_anchoring():
    profiles = {ph: cm.profile(ph, bytes(P.seed_bytes)) for ph in cm.PHASES}
    ok = True
    for phase in cm.PHASES:
        base = cm.estimate_cycles(cm.AcceleratorConfig.none(), profiles[phase])
        ok = ok and base.total == cm.SW_TOTAL[phase]
        accel = cm.estimate_cycles(cm.AcceleratorConfig.all(), profiles[phase])
        ok = ok and cm.improvement(accel.total, base.total) >= 90.0
        ok = ok and 100.0 * (1 - accel.total / cm.DMA_SW_OPT_ROW[phase]) >= 90.0
    flags = list(cm.AcceleratorConfig._fields)
    for phase in cm.PHASES:
        totals = {}
        for bits in product((False, True), repeat=len(flags)):
            cfg = cm.AcceleratorConfig(**dict(zip(flags, bits)))
            totals[bits] = cm.estimate_cycles(cfg, profiles[phase]).total
        for bits, total in totals.items():
            for i in range(len(flags)):
                if not bits[i]:
                    raised = list(bits)
                    raised[i] = True
                    ok = ok and totals[tuple(raised)] <= total
    report("9 cost-model-anchoring", ok,
           "baselines exact; all-modules improvement >= 90% under both"
           f" interpretations; monotone over {2 ** len(flags)} configurations"
           " x 3 phases")


def test_c10_profiling_ranking():
    ok = True
    details = []
    for phase in cm.PHASES:
        prof = cm.profile(phase, bytes(P.seed_bytes))
        top3 = prof.category_ranking()[:3]
        details.append(f"{phase}: {'>'.join(top3)}")
        ok = ok and set(top3) == {"shake", "arithmetic_r", "memory"}
    report("10 profiling-ranking", ok, "; ".join(details))
