"""Inputs and one-operation bodies for the three KEM workloads.

Every input is a pure function of (workload, seed, index), drawn from
SHAKE256 so that the same seed gives the same bytes on any machine. The
program under test only ever sees wire bytes: serialized keys and
ciphertexts.
"""

from __future__ import annotations

import hashlib
import time

from hqc128 import codes, kem
from hqc128.params import hqc128

P = hqc128()

# server_reject tampers in five equal shares, cycling through this tuple:
# 0 flips one bit of d, the others XOR a nonzero RM codeword into that many
# distinct RM blocks of v (RS symbol errors).
REJECT_ERRORS = (0, 1, 5, 15, 16)

# Distinct pre-generated inputs per workload; the timed loop cycles through
# them. server_decaps needs enough ciphertexts that the ~2% reaching the
# full RS decoder stay well above the 1% its p99 looks at, and
# server_reject enough that its top 1% is not a few repeated ciphertexts.
POOL_SIZE = {"handshake": 4096, "server_decaps": 2048, "server_reject": 1024}


def derive(workload: str, seed: int, *label) -> bytes:
    tag = "|".join(["perfbench", workload, str(seed), *map(str, label)])
    return hashlib.shake_256(tag.encode()).digest(2 * P.seed_bytes)


def _symbol_errors(rnd: bytes, errors: int) -> list[tuple[int, int]]:
    """`errors` distinct RS symbol positions, each with a nonzero value."""
    order = sorted(range(P.n1),
                   key=lambda j: hashlib.sha3_256(rnd + bytes([j])).digest())
    return [(j, 1 + hashlib.sha3_256(rnd + b"delta" + bytes([j])).digest()[0] % 255)
            for j in order[:errors]]


def _tamper(ct: bytes, errors: int, rnd: bytes) -> bytes:
    """Inject `errors` RS symbol errors into v, or flip one bit of d."""
    out = bytearray(ct)
    if errors == 0:
        d_start = 2 * P.n_bytes
        pos = int.from_bytes(rnd[:4], "little") % (len(ct) - d_start)
        out[d_start + pos] ^= 1 << (rnd[4] & 7)
        return bytes(out)
    block_bytes = P.n2 // 8
    for j, delta in _symbol_errors(rnd, errors):
        block = codes.rm_encode(delta, P)
        start = P.n_bytes + j * block_bytes
        for t, b in enumerate(block):
            out[start + t] ^= b
    return bytes(out)


class Inputs:
    """Everything one workload run needs, generated before any timing."""

    def __init__(self, workload: str, seed: int, count: int | None = None):
        self.workload = workload
        self.seed = seed
        self.key_seed = derive(workload, seed, "key")[:P.seed_bytes]
        pk, sk = kem.keygen(self.key_seed)
        self.sk_bytes = kem.serialize_sk(sk)
        self.pk_bytes = kem.serialize_pk(pk)
        # decode_kept[e] = [tampered decodes equal to the original, checked]
        self.decode_kept = {e: [0, 0] for e in REJECT_ERRORS}
        n = count or POOL_SIZE[workload]
        if workload == "handshake":
            self.items = [derive(workload, seed, i) for i in range(n)]
            return
        self.items = []
        for i in range(n):
            ct, ss = kem.encaps(pk, derive(workload, seed, i)[:P.seed_bytes])
            ct_bytes = kem.serialize_ct(ct)
            if workload == "server_decaps":
                self.items.append((ct_bytes, ss))
                continue
            errors = REJECT_ERRORS[i % len(REJECT_ERRORS)]
            bad = _tamper(ct_bytes, errors, derive(workload, seed, i, "tamper"))
            if 1 <= errors <= P.delta:
                t = kem.deserialize_ct(bad)
                kept = kem.pke_decrypt(sk, t.u, t.v) == kem.pke_decrypt(sk, ct.u, ct.v)
                self.decode_kept[errors][0] += kept
                self.decode_kept[errors][1] += 1
            self.items.append((bad, errors))

    def replay_client(self, n: int) -> None:
        """Run the client side again: the key and the first n encapsulations.

        Used under tracing, because it is the only place the server workloads
        call deserialize_pk, serialize_ct and sample_uniform_dense.
        """
        pk, sk = kem.keygen(self.key_seed)
        if kem.serialize_sk(sk) != self.sk_bytes:
            raise RuntimeError("keygen is not deterministic")
        kem.deserialize_sk(self.sk_bytes)
        for i in range(n):
            ct, _ = kem.encaps(pk, derive(self.workload, self.seed, i)[:P.seed_bytes])
            kem.serialize_ct(ct)

    def label(self, i: int) -> int:
        """Injected RS symbol errors of op i (0 for honest ciphertexts)."""
        if self.workload != "server_reject":
            return 0
        return self.items[i % len(self.items)][1]


def stamp() -> tuple[float, float]:
    return time.perf_counter(), time.process_time()


def took(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Seconds from stamp a to stamp b: the smaller of the wall time and the
    process CPU time. On one thread that is the wall time less any time the
    process lost the CPU, to the host or another process. If the program ran
    threads in parallel, CPU time would exceed wall time and wall time counts."""
    return min(b[0] - a[0], b[1] - a[1])


class Runner:
    """Holds the server's long-term key and runs one operation at a time.

    `run(i)` returns (ok, phases): phases maps "op" and each KEM phase the op
    ran to seconds, as `took` counts them; the digest update and the verdict
    check are not timed.
    Every wire object an op produced is folded into `digest`, in op order.
    """

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.digest = hashlib.sha3_256()
        self.errors: list[str] = []
        if inputs.workload != "handshake":
            self.sk = kem.deserialize_sk(inputs.sk_bytes)
            self.digest.update(inputs.pk_bytes)
        self.run = getattr(self, "_" + inputs.workload)

    def _handshake(self, i: int):
        item = self.inputs.items[i % len(self.inputs.items)]
        seed, coins = item[:P.seed_bytes], item[P.seed_bytes:]
        t0 = stamp()
        pk, sk = kem.keygen(seed)
        t1 = stamp()
        pk_bytes = kem.serialize_pk(pk)
        pk2 = kem.deserialize_pk(pk_bytes)
        t2 = stamp()
        ct, ss = kem.encaps(pk2, coins)
        t3 = stamp()
        ct_bytes = kem.serialize_ct(ct)
        ct2 = kem.deserialize_ct(ct_bytes)
        t4 = stamp()
        ss2 = kem.decaps(sk, ct2)
        t5 = stamp()
        for obj in (pk_bytes, ct_bytes, ss2):
            self.digest.update(obj)
        return ss2 == ss, {"op": took(t0, t5), "keygen": took(t0, t1),
                           "encaps": took(t2, t3), "decaps": took(t4, t5)}

    def _server_decaps(self, i: int):
        ct_bytes, expect = self.inputs.items[i % len(self.inputs.items)]
        t0 = stamp()
        ct = kem.deserialize_ct(ct_bytes)
        t1 = stamp()
        ss = kem.decaps(self.sk, ct)
        t2 = stamp()
        self.digest.update(ct_bytes)
        self.digest.update(ss)
        return ss == expect, {"op": took(t0, t2), "decaps": took(t1, t2)}

    def _server_reject(self, i: int):
        ct_bytes, _ = self.inputs.items[i % len(self.inputs.items)]
        t0 = stamp()
        ct = kem.deserialize_ct(ct_bytes)
        t1 = stamp()
        try:
            kem.decaps(self.sk, ct)
            ok = False
        except kem.DecapsulationFailure:
            ok = True
        t2 = stamp()
        self.digest.update(ct_bytes)
        return ok, {"op": took(t0, t2), "decaps": took(t1, t2)}

    def checked(self, i: int):
        """run(i), turning any unexpected exception into a wrong verdict."""
        try:
            return self.run(i)
        except Exception as exc:  # a wrong verdict, counted and reported
            if len(self.errors) < 5:
                self.errors.append(f"op {i}: {type(exc).__name__}: {exc}")
            return False, {}


def rs_probe(seed: int, reps: int, before_call) -> int:
    """Decode RS codewords carrying each count in REJECT_ERRORS of injected
    symbol errors; returns how many decodes within capability were wrong.

    `before_call(errors, rep)` runs before each `codes.rs_decode` call, so a
    tracer can label the span.
    """
    wrong = 0
    for errors in REJECT_ERRORS:
        for r in range(reps):
            rnd = derive("rs_probe", seed, errors, r)
            msg = rnd[:P.k]
            word = bytearray(codes.rs_encode(msg, P))
            for j, delta in _symbol_errors(rnd, errors):
                word[j] ^= delta
            before_call(errors, r)
            out = codes.rs_decode(bytes(word), P)
            wrong += errors <= P.delta and out != msg
    return wrong
