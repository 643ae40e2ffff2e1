"""Arithmetic in R = F2[X]/(X^n - 1), one Python int per element.

Bit i of the int is the coefficient of X^i, so byte serialization is a
little-endian int.to_bytes. The sparse*dense product is one numpy gather:
X^c * d mod (X^n - 1) is the low n bits of (d | d << n) >> (n - c), a
ceil(n/64)-word window of one of 8 bit-shifted byte copies of the doubled
operand. The copies are built once per dense operand and kept on it, and
the gathered rows are XOR-reduced. Every coordinate reads the same number of
words whatever its value, though the offsets it reads at follow c (see the
side-channel notes in the README).

`ring_word_ops` keeps the units of the packed 64-bit word layout that the
R-unit model assumes: ceil(n/64) words per ring element. Conversions to and
from bytes count nothing; the KEM counts each wire object once.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass

import numpy as np

from . import counters


class FormatError(ValueError):
    """Malformed serialized object (bad length or nonzero padding bits)."""


class DensePoly:
    """Ring element as an int; canonical when no bit at or above n is set.

    The value is never changed after construction, so the product's windows
    onto it (`_rotations`) are cached in `_rot` on first use.
    """

    __slots__ = ("n", "value", "_rot")

    def __init__(self, n: int, value: int = 0):
        self.n = n
        self.value = value
        self._rot = None

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
            raise FormatError(f"expected {nbytes} bytes, got {len(data)}")
        poly = cls(n, int.from_bytes(data, "little"))
        if not poly.is_canonical():
            raise FormatError("nonzero padding bits beyond degree n-1")
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


_SHIFTS = np.arange(8, dtype=np.uint16)[:, None]


def _rotations(d: DensePoly) -> np.ndarray:
    """View [j, b] = the ceil(n/64) little-endian words at byte b of row j,
    the bytes of (d | d << n) >> j. A row has ceil(2n/8) + 16 bytes, so the
    window at any byte b <= n/8 + 8 fits. Built once per operand, from one
    to_bytes: row j, byte i is the 16-bit pair (byte i + 1, byte i) >> j.
    d must be canonical."""
    if d._rot is None:
        n = d.n
        cb = ((2 * n + 7) >> 3) + 16
        words = (n + 63) >> 6
        doubled = np.frombuffer((d.value | d.value << n).to_bytes(cb + 1, "little"),
                                dtype=np.uint8)
        pairs = doubled[:-1] | doubled[1:].astype(np.uint16) << 8
        rows = (pairs >> _SHIFTS).astype(np.uint8)
        d._rot = np.ndarray((8, cb - 8 * words + 1, words), dtype="<u8", buffer=rows,
                            strides=(cb, 1, 8))
    return d._rot


def mul_sparse_dense(s: SparsePoly, d: DensePoly) -> DensePoly:
    """(sum over c in support of X^c * d) mod (X^n - 1).

    With sh = n - c in [1, n], X^c * d is the low n bits of
    (d | d << n) >> sh, the window at row sh & 7 and byte sh >> 3 of
    `_rotations(d)`; one gather reads all w windows, one XOR-reduce adds them.
    """
    if s.n != d.n:
        raise ValueError("ring degree mismatch")
    n = d.n
    sh = n - np.array(s.support, dtype=np.intp)
    acc = np.bitwise_xor.reduce(_rotations(d)[sh & 7, sh >> 3], axis=0)
    counters.add("ring_word_ops", 2 * (((n + 63) >> 6) + 1) * len(s.support))
    return DensePoly(n, int.from_bytes(acc.tobytes(), "little") & ((1 << n) - 1))


def ct_equal(a: bytes, b: bytes) -> bool:
    """Equality by hmac.compare_digest, which does not stop at the first
    differing byte; operands must have the same length."""
    if len(a) != len(b):
        raise ValueError("length mismatch")
    return hmac.compare_digest(a, b)
