"""SHAKE256-based randomness: a one-shot XOF, rejection-based fixed-weight
sampling, and the hash functions G, H, K.

The sponge is hashlib's SHAKE256 and SHA3-512 (FIPS 202). The Keccak-f[1600]
permutations it runs are counted from the input length and the squeeze
cursor, since the cost model charges one hardware permutation each. The
pure-Python sponge in tests/keccak_ref.py checks this module: the published
permutation vectors, the stream for any seed and domain, and the permutation
counts.

Every use-site of the XOF gets its own trailing domain byte, listed in the
constants table below.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from . import counters
from .params import P
from .poly_ring import DensePoly, SparsePoly

SHAKE256_RATE = 136
SHA3_512_RATE = 72

# Domain-separation bytes, one per use-site.
DOMAIN_KEYGEN_EXPAND = 0x01    # seed -> (seed_h, seed_sk)
DOMAIN_UNIFORM_H = 0x02        # seed_h -> h
DOMAIN_SECRET_SAMPLING = 0x03  # seed_sk -> x, y
DOMAIN_ENCRYPT_NOISE = 0x04    # theta -> e, r1, r2
DOMAIN_MESSAGE = 0x05          # encaps coins -> m
DOMAIN_KAT_CHAIN = 0x06        # KAT master seed -> per-record seeds
DOMAIN_COINS = 0x07            # record seed -> encaps coins (KAT, profiling)
DOMAIN_HASH_G = 0x10           # SHA3-512 suffixes
DOMAIN_HASH_H = 0x11
DOMAIN_HASH_K = 0x12

MAX_SAMPLE_DRAWS = 10**6


class SamplingError(RuntimeError):
    """Rejection loop exceeded the draw cap (astronomically unlikely)."""


# ---------------------------------------------------------------------------
# SHAKE256 XOF


class Xof:
    """SHAKE256 stream over (seed || domain byte), squeezed in pieces.

    The input is hashed once, at construction. A sponge permutes once per full
    rate block of input and once per rate block squeezed, begun blocks
    included (the first of these is the finalizing permutation); the counts
    follow the input length and the squeeze cursor, never the buffer.

    hashlib has no squeeze cursor, so every digest(n) recomputes the stream
    from byte 0. The first squeeze digests at least `bound` bytes (one rate
    block unless the use-site sizes it): a use-site that knows how far its
    reads usually go digests once. A squeeze past the buffered stream
    re-digests at least twice its length, which keeps the total work linear
    in the stream length.
    """

    __slots__ = ("_h", "_bound", "_stream", "_pos")

    def __init__(self, seed: bytes, domain: int, bound: int = SHAKE256_RATE):
        data = seed + bytes([domain])
        counters.add("bytes_copied", len(data))
        counters.add("keccak_permutations", len(data) // SHAKE256_RATE)
        self._h = hashlib.shake_256(data)
        self._bound = bound
        self._stream = b""
        self._pos = 0

    def squeeze(self, n: int) -> bytes:
        if n < 0:
            raise ValueError("negative squeeze length")
        start, end = self._pos, self._pos + n
        if end > len(self._stream):
            self._stream = self._h.digest(max(end, 2 * len(self._stream), self._bound))
        self._pos = end
        counters.add("bytes_copied", n)
        before = -(-start // SHAKE256_RATE)
        counters.add("keccak_permutations", -(-end // SHAKE256_RATE) - before)
        return self._stream[start:end]


# ---------------------------------------------------------------------------
# Samplers


def draw_bytes(*weights: int) -> int:
    """Bytes of two chunks per `sample_fixed_weight` call of each weight: what
    such calls on one `Xof` seldom read past, and so that `Xof`'s `bound`."""
    return sum(2 * 3 * max(weight, 1) for weight in weights)


def sample_fixed_weight(xof: Xof, weight: int, n: int) -> SparsePoly:
    """Distinct coordinates below n by unbiased rejection sampling.

    Candidates are 24-bit little-endian values. Values at or above the largest
    multiple of n below 2^24 are rejected (removing the modulo bias), then
    duplicates are rejected until `weight` distinct coordinates are found.
    Each pass squeezes a piece of exactly as many candidates as coordinates
    are still missing, so a piece can complete the weight only at its last
    draw and is taken whole, in one set build; the draw cap, checked once per
    piece, therefore holds per draw. A piece is widened to 32-bit words and
    decoded at once by `struct.unpack`, whose format cache compiles each piece
    size's decoder once: w candidates first, then remainders of mostly 1 to 3.
    The stream is read in chunks of 3 * max(weight, 1) bytes: the rest of the
    last chunk is squeezed and discarded, so the XOF stops where a draw-by-draw
    reader of whole chunks would. The data-dependent quantity of this
    technique is the number of pieces, and with it the draw count; the XOF's
    digest work does not follow it while the draws stay within the bound the
    use-site's `Xof` digests at its first squeeze (`draw_bytes`). The support
    is returned as a sorted intp array. Raises ValueError before any squeeze
    unless 1 <= n <= 2^24 and 0 <= weight <= n.
    """
    if not (1 <= n <= 1 << 24 and 0 <= weight <= n):
        raise ValueError("need 1 <= n <= 2^24 and 0 <= weight <= n")
    threshold = ((1 << 24) // n) * n
    picked: set[int] = set()
    draws = 0
    while len(picked) < weight:
        count = weight - len(picked)
        draws += count
        if draws > MAX_SAMPLE_DRAWS:
            raise SamplingError("rejection sampling exceeded the draw cap")
        raw = xof.squeeze(3 * count)
        wide = bytearray(4 * count)
        wide[0::4] = raw[0::3]
        wide[1::4] = raw[1::3]
        wide[2::4] = raw[2::3]
        for value in struct.unpack(f"<{count}I", wide):
            if value < threshold:
                picked.add(value % n)
    rest = -draws % max(weight, 1)
    if rest:
        xof.squeeze(3 * rest)
    counters.add("samples_drawn", draws)
    support = np.fromiter(picked, np.intp, weight)
    support.sort()
    return SparsePoly._trusted(n, support)


def sample_uniform_dense(xof: Xof) -> DensePoly:
    """Uniform element of R for n = P.n: squeeze ceil(n/8) bytes, clear the
    pad bits of the last byte."""
    raw = bytearray(xof.squeeze(P.n_bytes))
    raw[-1] &= 0xFF >> (-P.n & 7)
    return DensePoly(P.n, bytes(raw))


# ---------------------------------------------------------------------------
# Hash functions G, H, K (SHA3-512 with domain suffixes)


def _sha3_512(data: bytes) -> bytes:
    counters.add("bytes_copied", len(data))
    counters.add("keccak_permutations", len(data) // SHA3_512_RATE + 1)
    return hashlib.sha3_512(data).digest()


def hash_g(m: bytes) -> bytes:
    """Theta derivation: SHA3-512(m || G suffix) truncated to P.seed_bytes."""
    return _sha3_512(m + bytes([DOMAIN_HASH_G]))[:P.seed_bytes]


def hash_h(m: bytes) -> bytes:
    """Ciphertext commitment d: full SHA3-512(m || H suffix)."""
    return _sha3_512(m + bytes([DOMAIN_HASH_H]))


def hash_k(m: bytes, c: bytes) -> bytes:
    """Shared secret: SHA3-512(m || c || K suffix) truncated to P.ss_bytes."""
    return _sha3_512(m + c + bytes([DOMAIN_HASH_K]))[:P.ss_bytes]
