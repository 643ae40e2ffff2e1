"""Spans around calls into the program's layers, recorded from outside.

Each traced function is replaced, for the duration of the traced run, by a
wrapper installed where its caller looks it up: `kem.mul_sparse_dense`,
`codes.rs_decode`, `codes.gf_mul`, or a method on its class such as
`Xof.squeeze`. Spans (name, start, end, parent, op id) stay in memory and
are written out once, at the end of the run.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter

from hqc128 import codes, kem
from hqc128.poly_ring import DensePoly
from hqc128.sampling import Xof

# (object the caller looks the name up on, attribute, span name). The span
# name is the defining module's, so `kem.mul_sparse_dense` records as
# `poly_ring.mul_sparse_dense`.
TRACED = [
    (kem, "keygen", "kem.keygen"),
    (kem, "encaps", "kem.encaps"),
    (kem, "decaps", "kem.decaps"),
    (kem, "pke_encrypt", "kem.pke_encrypt"),
    (kem, "pke_decrypt", "kem.pke_decrypt"),
    (kem, "serialize_pk", "kem.serialize_pk"),
    (kem, "deserialize_pk", "kem.deserialize_pk"),
    (kem, "serialize_ct", "kem.serialize_ct"),
    (kem, "deserialize_ct", "kem.deserialize_ct"),
    (kem, "deserialize_sk", "kem.deserialize_sk"),
    (kem, "mul_sparse_dense", "poly_ring.mul_sparse_dense"),
    (kem, "dense_from_sparse", "poly_ring.dense_from_sparse"),
    (kem, "ct_equal", "poly_ring.ct_equal"),
    (DensePoly, "to_bytes", "poly_ring.DensePoly.to_bytes"),
    (kem, "sample_fixed_weight", "sampling.sample_fixed_weight"),
    (kem, "sample_uniform_dense", "sampling.sample_uniform_dense"),
    (Xof, "squeeze", "sampling.Xof.squeeze"),
    (kem, "hash_g", "sampling.hash_g"),
    (kem, "hash_h", "sampling.hash_h"),
    (kem, "hash_k", "sampling.hash_k"),
    (kem, "code_encode", "codes.code_encode"),
    (kem, "code_decode", "codes.code_decode"),
    (codes, "rs_decode", "codes.rs_decode"),
    (codes, "gf_mul", "gf256.gf_mul"),
    (codes, "gf_mul_vec", "gf256.gf_mul_vec"),
    (codes, "gf_inverse", "gf256.gf_inverse"),
]

# The argument kept from each call, for analysis after the run: the received
# RS word, and the weight asked of the sampler.
KEEP_ARG = {"codes.rs_decode": 0, "sampling.sample_fixed_weight": 1}

NAME, START, END, PARENT, OP, ARG = range(6)


class Tracer:
    """Install with `with Tracer() as tr:`; set `tr.op` before each op."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        for owner, attr, name in TRACED:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, KEEP_ARG.get(name)))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str, keep: int | None):
        spans, stack, tracer = self.spans, self._stack, self

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op,
                    None if keep is None else args[keep]]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()

        return traced

    def kept_args(self, name: str, keep) -> list:
        return [s[ARG] for s in self.spans if s[NAME] == name and keep(s[OP])]

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def write_csv(self, path) -> None:
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as f:
            f.write("name,start_ns,end_ns,parent,op\n")
            for s in self.spans:
                f.write(f"{s[NAME]},{round((s[START] - t0) * 1e9)},"
                        f"{round((s[END] - t0) * 1e9)},{s[PARENT]},{s[OP]}\n")


class SpanStats:
    """Per-name (op id, duration, self time) rows over a Tracer's spans, in
    seconds at reference speed (each span scaled by its op's factor), with
    sums and medians filtered by op id."""

    def __init__(self, tracer: Tracer, factors: dict):
        self.rows = defaultdict(list)
        for s, own in zip(tracer.spans, tracer.self_times()):
            f = factors[s[OP]]
            self.rows[s[NAME]].append((s[OP], (s[END] - s[START]) * f, own * f))

    def calls(self, name: str, keep) -> int:
        return sum(1 for op, _, _ in self.rows[name] if keep(op))

    def self_s(self, name: str, keep) -> float:
        return sum(own for op, _, own in self.rows[name] if keep(op))

    def p50_ms(self, name: str, keep) -> float:
        return statistics.median(d for op, d, _ in self.rows[name] if keep(op)) * 1e3
