"""Arithmetic in R = F2[X]/(X^n - 1) on fixed-length buffers.

A dense element is held as its canonical wire bytes, bit i of the element
at bit (i mod 8) of byte (i div 8). A ring result is built as ceil(n/64)
little-endian '<u8' words: the sparse*dense product returns its accumulator
in that form, a sparse addend is a fixed-length 0/1 scatter packed into
the same form, and the caller XORs its addends in (a dense one through
`xor_into`) before one conversion to bytes (`DensePoly.from_words`). The
word and byte layouts are decided here and in no caller. The product is
one numpy gather: X^c * d mod (X^n - 1) is the low n bits of
(d | d << n) >> (n - c), a ceil(n/64)-word window of one of 8 bit-shifted
byte copies of the doubled operand. The copies are built once
per dense operand and kept on it, and the gathered rows are XOR-reduced.
Every coordinate reads the same number of words whatever its value, though
the offsets it reads at follow c (see the side-channel notes in the README).

`ring_word_ops` keeps the units of the packed 64-bit word layout that the
R-unit model assumes: ceil(n/64) words per ring element. Conversions to and
from bytes count nothing; the KEM counts each wire object once.
"""

from __future__ import annotations

from _hashlib import compare_digest

import numpy as np

from . import counters


class FormatError(ValueError):
    """Malformed serialized object (bad length or nonzero padding bits)."""


class DensePoly:
    """Ring element as its canonical ceil(n/8) wire bytes: bit i of the
    element is bit (i mod 8) of byte (i div 8), and the pad bits at or above
    n are zero.

    The bytes are never changed after construction, so the product's windows
    onto them (`_rotations`) are cached in `_rot` on first use.
    """

    __slots__ = ("n", "data", "_rot")

    def __init__(self, n: int, data: bytes):
        self.n = n
        self.data = data
        self._rot = None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DensePoly)
            and self.n == other.n
            and self.data == other.data
        )

    def to_bytes(self) -> bytes:
        """The held ceil(n/8) wire bytes."""
        return self.data

    @classmethod
    def from_bytes(cls, n: int, data: bytes) -> "DensePoly":
        """Checks the length and the pad bits of the last byte."""
        nbytes = (n + 7) >> 3
        if len(data) != nbytes:
            raise FormatError(f"expected {nbytes} bytes, got {len(data)}")
        if n & 7 and data[-1] >> (n & 7):
            raise FormatError("nonzero padding bits beyond degree n-1")
        return cls(n, bytes(data))

    @classmethod
    def from_words(cls, n: int, acc: np.ndarray) -> "DensePoly":
        """The element whose ceil(n/64) '<u8' words, bits at or above n
        clear, are `acc`: one conversion to bytes, cut to ceil(n/8)."""
        return cls(n, acc.tobytes()[:(n + 7) >> 3])


class SparsePoly:
    """Ring element of small weight, held as its support: one sorted,
    read-only intp array of distinct coordinates below n, which the product
    and the scatter index with directly.

    The constructor takes any int sequence and checks it with one vectorized
    comparison of neighbours and its two ends against [0, n); floats,
    strings, bools (also among ints) and ints past 64 bits are rejected, not
    cast. The sampler, whose output is sorted, distinct and below n by
    construction, builds its result through `_trusted` unchecked.

    The support is never changed after construction, so the product's
    gather indices into a dense operand's windows (`sh & 7`, `sh >> 3` for
    sh = n - c) are cached in `_idx` on first use, as a DensePoly keeps its
    windows.
    """

    __slots__ = ("n", "support", "_idx")

    def __init__(self, n: int, support):
        array = np.array(support)
        if array.ndim != 1 or array.size and not (
                array.dtype.kind in "iu" and 0 <= array[0] and array[-1] < n
                and (array[1:] > array[:-1]).all()):
            raise ValueError("support must be strictly increasing integer coordinates below n")
        if any(isinstance(c, (bool, np.bool_)) for c in support):
            raise ValueError("support must not hold bools")
        array = array.astype(np.intp, copy=False)
        array.flags.writeable = False
        self.n = n
        self.support = array
        self._idx = None

    @classmethod
    def _trusted(cls, n: int, support: np.ndarray) -> "SparsePoly":
        """Wrap a sorted intp array of distinct coordinates below n as is."""
        support.flags.writeable = False
        s = cls.__new__(cls)
        s.n = n
        s.support = support
        s._idx = None
        return s

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparsePoly)
            and self.n == other.n
            and np.array_equal(self.support, other.support)
        )


def dense_from_sparse(s: SparsePoly) -> np.ndarray:
    """The ceil(n/64) '<u8' words of s: the support set to 1 in a zeroed 0/1
    buffer of 64 * ceil(n/64) bytes, packed once."""
    bits = np.zeros(((s.n + 63) >> 6) << 6, dtype=np.uint8)
    bits[s.support] = 1
    return np.packbits(bits, bitorder="little").view("<u8")


_SHIFTS = np.arange(8, dtype=np.uint16)[:, None]


def _rotations(d: DensePoly) -> np.ndarray:
    """View [j, b] = the ceil(n/64) little-endian words at byte b of row j,
    the bytes of (d | d << n) >> j. A row has ceil(2n/8) + 16 bytes, so the
    window at any byte b <= n/8 + 8 fits. Built once per operand from its
    bytes: d << n is d shifted by n mod 8 bits within bytes, placed at byte
    n div 8, and row j, byte i is the 16-bit pair (byte i + 1, byte i) >> j,
    read in place through a '<u2' view that steps one byte."""
    if d._rot is None:
        n = d.n
        nbytes = (n + 7) >> 3
        cb = ((2 * n + 7) >> 3) + 16
        words = (n + 63) >> 6
        low = np.frombuffer(d.data, dtype=np.uint8)
        q, r = n >> 3, n & 7
        doubled = np.zeros(cb + 1, dtype=np.uint8)
        doubled[:nbytes] = low
        # bytes past nbytes - 1 are still zero, so the carries are written,
        # not ORed; at n mod 8 = 0 a shift by 8 writes zeros
        np.right_shift(low, 8 - r, out=doubled[q + 1:q + nbytes + 1])
        doubled[q:q + nbytes] |= low << r
        pairs = np.ndarray((cb,), "<u2", buffer=doubled, strides=(1,))
        rows = np.right_shift(pairs, _SHIFTS, out=np.empty((8, cb), dtype=np.uint8),
                              casting="unsafe")
        d._rot = np.ndarray((8, cb - 8 * words + 1, words), dtype="<u8", buffer=rows,
                            strides=(cb, 1, 8))
    return d._rot


def mul_sparse_dense(s: SparsePoly, d: DensePoly) -> np.ndarray:
    """(sum over c in support of X^c * d) mod (X^n - 1), as ceil(n/64)
    '<u8' words with the bits at or above n cleared.

    With sh = n - c in [1, n], X^c * d is the low n bits of
    (d | d << n) >> sh, the window at row sh & 7 and byte sh >> 3 of
    `_rotations(d)` (those indices are kept on s); one gather reads all w
    windows, one XOR-reduce adds them. The result is a fresh array, so
    callers add their addends into it.
    """
    if s.n != d.n:
        raise ValueError("ring degree mismatch")
    n = d.n
    words = (n + 63) >> 6
    if s._idx is None:
        sh = n - s.support
        s._idx = (sh & 7, sh >> 3)
    acc = np.bitwise_xor.reduce(_rotations(d)[s._idx], axis=0)
    acc[-1] &= (1 << (n - 64 * (words - 1))) - 1
    counters.add("ring_word_ops", 2 * (words + 1) * len(s.support))
    return acc


def xor_into(acc: np.ndarray, d: DensePoly) -> np.ndarray:
    """Add d to the ceil(n/64) '<u8' words `acc` in place: its wire bytes,
    zero-padded to whole words, are XORed in as '<u8' words. Returns acc."""
    acc ^= np.frombuffer(d.data.ljust(acc.nbytes, b"\0"), "<u8")
    return acc


def ct_equal(a: bytes, b: bytes) -> bool:
    """Equality by OpenSSL's CRYPTO_memcmp, which does not stop at the first
    differing byte; operands must have the same length. `compare_digest` is
    bound from `_hashlib`, which hashlib has already loaded: it is the object
    `hmac.compare_digest` names, without importing hmac."""
    if len(a) != len(b):
        raise ValueError("length mismatch")
    return compare_digest(a, b)
