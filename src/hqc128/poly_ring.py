"""Arithmetic in R = F2[X]/(X^n - 1), one Python int per element.

Bit i of the int is the coefficient of X^i, so byte serialization is a
little-endian int.to_bytes. The sparse*dense product XORs the dense operand
shifted left by each coordinate of the sparse support into a double-length
accumulator, then folds the accumulator once by X^n - 1. A shift by c builds
an int of n + c bits, so the time per coordinate grows with c (see the
side-channel notes in the README).

`ring_word_ops` keeps the units of the packed 64-bit word layout that the
R-unit model assumes: ceil(n/64) words per ring element. Conversions to and
from bytes count nothing; the KEM counts each wire object once.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass

from . import counters


class DensePoly:
    """Ring element as an int; canonical when no bit at or above n is set."""

    __slots__ = ("n", "value")

    def __init__(self, n: int, value: int = 0):
        self.n = n
        self.value = value

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DensePoly)
            and self.n == other.n
            and self.value == other.value
        )

    __hash__ = None

    def is_canonical(self) -> bool:
        return self.value >> self.n == 0

    def to_bytes(self) -> bytes:
        """ceil(n/8) bytes, bit i -> bit (i mod 8) of byte (i div 8)."""
        nbytes = (self.n + 7) >> 3
        return self.value.to_bytes(nbytes, "little")

    @classmethod
    def from_bytes(cls, n: int, data: bytes) -> "DensePoly":
        """Inverse of to_bytes; rejects wrong length and nonzero pad bits."""
        nbytes = (n + 7) >> 3
        if len(data) != nbytes:
            raise ValueError(f"expected {nbytes} bytes, got {len(data)}")
        poly = cls(n, int.from_bytes(data, "little"))
        if not poly.is_canonical():
            raise ValueError("nonzero padding bits beyond degree n-1")
        return poly


@dataclass(frozen=True)
class SparsePoly:
    """Ring element of small weight, stored as its sorted support."""

    n: int
    support: tuple[int, ...]

    def __post_init__(self):
        prev = -1
        for c in self.support:
            if c <= prev:
                raise ValueError("support must be strictly increasing")
            prev = c
        if prev >= self.n:
            raise ValueError("support coordinate out of range")


def dense_from_sparse(s: SparsePoly) -> DensePoly:
    """Set the support bits in a ceil(n/8)-byte buffer, then read it as one
    little-endian int."""
    buf = bytearray((s.n + 7) >> 3)
    for c in s.support:
        buf[c >> 3] |= 1 << (c & 7)
    return DensePoly(s.n, int.from_bytes(buf, "little"))


def add(a: DensePoly, b: DensePoly) -> DensePoly:
    """XOR; characteristic 2, so this is also subtraction."""
    if a.n != b.n:
        raise ValueError("ring degree mismatch")
    return DensePoly(a.n, a.value ^ b.value)


def mul_sparse_dense(s: SparsePoly, d: DensePoly) -> DensePoly:
    """(sum over c in support of X^c * d) mod (X^n - 1).

    The accumulator has degree < 2n - 1, so one fold of bits [n, 2n - 1)
    onto [0, n - 1) reduces it (X^n = 1).
    """
    if s.n != d.n:
        raise ValueError("ring degree mismatch")
    n = d.n
    dv = d.value
    acc = 0
    for c in s.support:
        acc ^= dv << c
    counters.add("ring_word_ops", 2 * (((n + 63) >> 6) + 1) * len(s.support))
    return DensePoly(n, (acc & ((1 << n) - 1)) ^ (acc >> n))


def ct_equal(a: bytes, b: bytes) -> bool:
    """Equality by hmac.compare_digest, which does not stop at the first
    differing byte; operands must have the same length."""
    if len(a) != len(b):
        raise ValueError("length mismatch")
    return hmac.compare_digest(a, b)
