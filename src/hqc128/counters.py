"""Primitive-invocation counters.

`Counters` is the one list of the six counters. A counter context is activated
per run (see :mod:`hqc128.costmodel`); when no context is active the hook
`add` is a cheap no-op, and instrumentation never changes any computed value.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from dataclasses import dataclass


@dataclass(slots=True)
class Counters:
    keccak_permutations: int = 0
    gf_muls: int = 0
    ring_word_ops: int = 0      # accumulator words read+written in ring mults
    bytes_copied: int = 0       # once per logical buffer where it is made: XOF and
                                # hash input/output, the codeword mG, wire objects
    samples_drawn: int = 0      # 24-bit candidates drawn, rejected ones included
    rm_blocks_decoded: int = 0


_active: ContextVar[Counters | None] = ContextVar("hqc128_counters", default=None)


@contextlib.contextmanager
def collecting(counters: Counters):
    """Route primitive counts into `counters` for the duration of the block."""
    token = _active.set(counters)
    try:
        yield counters
    finally:
        _active.reset(token)


def add(name: str, n: int) -> None:
    """Add `n` to the counter field `name` of the active record, if any."""
    c = _active.get()
    if c is not None:
        setattr(c, name, getattr(c, name) + n)
