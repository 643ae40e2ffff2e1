"""Primitive-invocation counters.

`Counters.__slots__` is the one list of the six counters, each 0 unless
given. A counter context is activated per run (see :mod:`hqc128.costmodel`);
when no context is active the hook `add` is a cheap no-op, and
instrumentation never changes any computed value.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar


class Counters:
    __slots__ = ("keccak_permutations", "gf_muls",
                 "ring_word_ops",       # accumulator words read+written in ring mults
                 "bytes_copied",        # once per logical buffer where it is made: XOF and
                                        # hash input/output, the codeword mG, wire objects
                 "samples_drawn",       # 24-bit candidates drawn, rejected ones included
                 "rm_blocks_decoded")

    def __init__(self, **counts: int):
        for name in Counters.__slots__:
            setattr(self, name, counts.pop(name, 0))
        if counts:
            raise TypeError(f"unknown counters: {', '.join(counts)}")

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and all(
            getattr(self, name) == getattr(other, name) for name in Counters.__slots__)


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
