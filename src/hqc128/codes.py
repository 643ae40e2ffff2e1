"""The concatenated code: Reed-Solomon [n1, k, delta] over GF(2^8) outside,
duplicated first-order Reed-Muller RM(1,7) inside.

Conventions, fixed here and pinned by the exhaustive roundtrip tests:

* RS codewords list the k message symbols first, parity last. Symbol j is
  the coefficient of X^j, so the syndromes are S_i = sum_j c_j * alpha^(i*j)
  for i = 1..2*delta, and parity is m(X) * X^-k mod g(X) placed at the top
  coefficients (making the whole word a multiple of g).
* An RM symbol encodes its affine (constant) term in bit 0 and the seven
  coordinate coefficients in bits 1..7; codeword position j is evaluated at
  the point whose coordinates are the binary digits of j, LSB first. The
  peak search inverts exactly this map.

Decoding an RM block is maximum likelihood: fold the duplicated copies into
per-position counts, Walsh-Hadamard transform (one matrix product with the
Sylvester +-1 matrix for all blocks), take the largest magnitude.

The RS layer works on packed GF(2^8) vectors (below) and decodes on one
fixed schedule whatever the received word: syndromes, the inversion-free
reformulated Berlekamp-Massey (riBM) of Sarwate and Shanbhag for exactly
2*delta iterations with mask-selected updates, then Chien search and Forney
magnitudes at the k message positions only, with a branch-free mask that
keeps the corrections at roots. Beyond delta symbol errors its output is
unspecified and the KEM's re-encryption check is the failure detector.
"""

from __future__ import annotations

import struct

import numpy as np

from . import counters
# The traced benchmark (perfbench/spans.py) wraps gf_mul, gf_mul_vec and
# gf_inverse where this module looks them up; the code layer itself no
# longer calls them, so they are imported for that lookup only.
from .gf256 import gf_inverse, gf_mul, gf_mul_vec, gf_pow_alpha  # noqa: F401
from .params import ParamSet, hqc128
from .poly_ring import DensePoly

# HQC-128, the one parameter set, built once; kem imports it from here.
P = hqc128()


# ---------------------------------------------------------------------------
# Packed GF(2^8) vectors
#
# A vector of field elements is one Python int: element l sits in 64-bit
# lane l, with coefficient bit i at bit 4i. Multiplying a vector by a scalar
# in the same form is one integer multiply: each 4-bit slot sums at most 8
# products, so no carry leaves a slot, and bit 0 of slot i is the coefficient
# of x^i of the carry-less product. XOR keeps those bits exact, so products
# are XOR-accumulated unreduced and reduced mod 0x11D once.
#
# The decoder runs on secret data, so every operand has a data-independent
# length: a scalar s multiplies as s + _NZ, never zero (CPython skips a
# multiply by zero) and always 30 bits long; the extra term v << 29 adds 2 to
# slots (bit 1, which no mask reads; a slot then holds at most 10). Each
# vector carries a guard bit two lanes above its top lane, so zero lanes at
# the top do not shorten it.

_NZ = 1 << 29
_SP = 0x11101   # x^4 + x^3 + x^2 + 1 (0x11D without x^8), spread


def _fill(n: int, lane: int) -> int:
    """The 64-bit pattern `lane` repeated in lanes 0..n-1."""
    return int.from_bytes(lane.to_bytes(8, "little") * n, "little")


class _Lanes:
    """Masks and lane-wise operations for vectors of n lanes."""

    def __init__(self, n: int):
        self.n = n
        self.guard = g = 1 << (64 * (n + 2))
        self.low = _fill(n, 0x11111111)            # slots 0..7
        self.one = _fill(n, 1)
        self._lanes = struct.Struct(f"<{n}Q")
        self._spread = [_fill(n, m) | g for m in (0x000F000F, 0x03030303, 0x11111111)]
        self._compact = [_fill(n, m) | g for m in (0x03030303, 0x000F000F, 0xFF)]
        self._square = [_fill(n, m) | g for m in (0x0000111100001111,
                                                   0x0011001100110011,
                                                   0x0101010101010101)]

    def pack(self, values: bytes) -> int:
        """Byte ell into lane ell, then bit i of each byte to bit 4i."""
        buf = bytearray(8 * self.n)
        buf[::8] = values
        x = int.from_bytes(buf, "little") | self.guard
        for shift, mask in zip((12, 6, 3), self._spread):
            x = (x | (x << shift)) & mask
        return x

    def unpack(self, x: int) -> bytes:
        """Inverse of pack for a reduced vector."""
        for shift, mask in zip((3, 6, 12), self._compact):
            x = (x | (x >> shift)) & mask
        return x.to_bytes(8 * (self.n + 3), "little")[:8 * self.n:8]

    def scalars(self, x: int) -> tuple[int, ...]:
        """The lanes of a reduced vector as Python ints, still spread."""
        return self._lanes.unpack_from(x.to_bytes(8 * (self.n + 3), "little"))

    def reduce(self, x: int) -> int:
        """Slots 0..14 of each lane reduced mod 0x11D: two folds of slots
        8..14 times x^8 = x^4 + x^3 + x^2 + 1. Guards and anything else above
        the lanes are dropped and the guard is set."""
        low, g = self.low, self.guard
        x = (x & low) ^ (((x >> 32) & low) | g) * _SP
        return ((x ^ (((x >> 32) & low) | g) * _SP) & low) | g

    def square(self, a: int) -> int:
        """Lane-wise a^2: squaring is linear, bit i moves to bit 2i."""
        for shift, mask in zip((16, 8, 4), self._square):
            a = (a | (a << shift)) & mask
        return self.reduce(a)

    def mul(self, a: int, b: int) -> int:
        """Lane-wise a*b: a * x^t kept in the lanes where bit t of b is set."""
        one, g = self.one, self.guard
        acc = 0
        for shift in range(0, 32, 4):           # 4t
            keep = (((b >> shift) & one) | g) * 0x0FFFFFFFFFFFFFFF
            acc ^= (a << shift) & keep
        return self.reduce(acc)

    def inverse(self, a: int) -> int:
        """Lane-wise a^254 (0 maps to 0): 7 squarings and 4 products."""
        x = self.mul(self.square(a), a)                              # a^3
        x = self.mul(self.square(x), a)                              # a^7
        x = self.mul(self.square(self.square(self.square(x))), x)   # a^63
        x = self.mul(self.square(x), a)                              # a^127
        return self.square(x)


# ---------------------------------------------------------------------------
# Precomputed public tables, built once at import from the powers of alpha


class _RSTables:
    def __init__(self, n1: int, k: int, delta: int):
        t = 2 * delta
        self.syn = _Lanes(t)
        self.bm = _Lanes(3 * delta + 1)
        self.chien = _Lanes(3 * k)
        self.msg = _Lanes(k)
        self.word = _Lanes(n1)

        # syndrome rows: lane i of row j is alpha^((i+1) j)
        self.syn_rows = [
            self.syn.pack(bytes(gf_pow_alpha((i + 1) * j) for i in range(t))) & self.syn.low
            for j in range(n1)
        ]

        # g(X) = prod_{i=1..2 delta} (X - alpha^i), lane j = coefficient of X^j;
        # syndrome row 1 holds the roots alpha^1 .. alpha^(2 delta)
        gen = _Lanes(t + 1)
        g = 1
        for root in self.syn.scalars(self.syn_rows[1]):
            g = gen.reduce((g << 64) ^ g * (root + _NZ)) & gen.low
        g_low = g & self.syn.low                 # g_0 .. g_{t-1}, monic top dropped

        # parity_rows[m] = X^(m-k) = X^(255-k+m) mod g; parity = sum msg_m rows_m
        rows = []
        r = 1
        for e in range(1, 255):
            top = r >> (64 * (t - 1))
            r = self.syn.reduce((r << 64) ^ g_low * (top + _NZ)) & self.syn.low
            if e >= 255 - k:
                rows.append(r)
        self.parity_rows = rows

        # Chien/Forney rows, one per riBM output lane i in [0, 2 delta]: lanes
        # [0, k) evaluate the locator Lambda_(i-delta) at X_j^-1 = alpha^-j,
        # lanes [k, 2k) its derivative (odd terms), lanes [2k, 3k) the
        # modified evaluator Omega_i with the factor X_j^(-2 delta) folded in.
        chien = []
        for i in range(t + 1):
            v = bytearray(3 * k)
            for j in range(k):
                e = i - delta
                if e >= 0:
                    v[j] = gf_pow_alpha(-j * e)
                    if e % 2:
                        v[k + j] = gf_pow_alpha(-j * (e - 1))
                else:
                    v[2 * k + j] = gf_pow_alpha(-j * (i + t))
            chien.append(self.chien.pack(bytes(v)) & self.chien.low)
        self.chien_rows = chien

        # gf_muls of one rs_decode call: syndromes, riBM, the three
        # evaluations, then 11 products for each inverse and one for Y_j
        self.decode_muls = (n1 * t + 2 * t * (3 * delta + 1)
                            + k * ((delta + 1) + (delta + 1) // 2 + delta + 12))


_RS = _RSTables(P.n1, P.k, P.delta)


def _rm_bits() -> np.ndarray:
    """(8, 128) float32 generator bits: the constant, then the 7 coordinates."""
    j = np.arange(128)
    rows = np.empty((8, 128), dtype=np.float32)
    rows[0] = 1
    for t in range(1, 8):
        rows[t] = (j >> (t - 1)) & 1
    return rows


_RM_BITS = _rm_bits()


def _sylvester() -> np.ndarray:
    """128x128 float32 Walsh-Hadamard matrix: (-1)^popcount(u & j)."""
    j = np.arange(128)
    parity = j[:, None] & j[None, :]
    for shift in (4, 2, 1):
        parity ^= parity >> shift
    return (1 - 2 * (parity & 1)).astype(np.float32)


_SYLVESTER = _sylvester()


# ---------------------------------------------------------------------------
# Reed-Solomon layer
#
# rs_encode, rs_decode, rm_encode and rs_syndromes keep a record argument
# because perfbench/ calls them as f(x, P); every size is read from P.


def _hqc128_only(p: object) -> None:
    if p != P:
        raise ValueError("the code supports the HQC-128 parameter set only")


def rs_encode(msg: bytes, p: ParamSet) -> bytes:
    """Systematic codeword: message symbols, then 2*delta parity symbols
    (k * 2 delta field products)."""
    _hqc128_only(p)
    if len(msg) != P.k:
        raise ValueError(f"message must be {P.k} bytes")
    acc = 0
    for row, m in zip(_RS.parity_rows, _RS.msg.scalars(_RS.msg.pack(msg))):
        acc ^= row * (m + _NZ)
    counters.add("gf_muls", P.k * 2 * P.delta)
    return msg + _RS.syn.unpack(_RS.syn.reduce(acc))


def _syndromes(received: bytes) -> int:
    """S_1 .. S_(2 delta) in lanes 0..2 delta - 1 of an riBM-sized vector."""
    acc = 0
    for row, c in zip(_RS.syn_rows, _RS.word.scalars(_RS.word.pack(received))):
        acc ^= row * (c + _NZ)
    return _RS.bm.reduce(acc)


def rs_syndromes(cw: np.ndarray, p: ParamSet) -> np.ndarray:
    """S_i = sum_j cw[j] alpha^((i+1) j) for i in [0, 2 delta), as uint8."""
    _hqc128_only(p)
    syn = _syndromes(cw.astype(np.uint8).tobytes()) & _RS.syn.low
    counters.add("gf_muls", P.n1 * 2 * P.delta)
    return np.frombuffer(_RS.syn.unpack(syn | _RS.syn.guard), dtype=np.uint8)


def _ribm(syn: int) -> int:
    """Reformulated inversion-free Berlekamp-Massey, 2 delta iterations.

    delta_i starts as S_(i+1) for i < 2 delta with delta_(3 delta) = 1 and
    theta = delta. Each iteration sets delta_i <- gamma * delta_(i+1) +
    delta_0 * theta_i, and, when delta_0 != 0 and k >= 0, theta <- the
    shifted delta, gamma <- delta_0 and k <- -k - 1 (else k <- k + 1), all
    by masks. On return lanes delta..2 delta hold the locator Lambda and
    lanes 0..delta-1 the modified evaluator Omega.
    """
    bm = _RS.bm
    g = bm.guard
    d = syn | (1 << (64 * 3 * P.delta))
    theta = d
    gamma = 1
    k = 0
    for _ in range(2 * P.delta):
        d0 = d & 0xFFFFFFFF
        shifted = (d >> 64) | g
        d = bm.reduce(shifted * (gamma + _NZ) ^ theta * (d0 + _NZ))
        swap = -((((d0 - 1) >> 63) + 1) & ((k >> 63) + 1))
        theta = (shifted & swap) | (theta & ~swap)
        gamma = (d0 & swap) | (gamma & ~swap)
        k = (~k & swap) | ((k + 1) & ~swap)
    return d


def rs_decode(received: bytes, p: ParamSet) -> bytes:
    """Correct up to delta symbol errors; more than delta is unspecified.

    Every call runs the same schedule and counts the same field products:
    n1 * 2 delta (syndromes) + 4 delta (3 delta + 1) (riBM) +
    k * (2 delta + 13 + floor((delta + 1) / 2)) (Chien, Forney and the
    lane-wise inverse), 4,956 for HQC-128.
    """
    _hqc128_only(p)
    if len(received) != P.n1:
        raise ValueError(f"codeword must be {P.n1} bytes")
    d = _ribm(_syndromes(received))

    # Y_j = X_j^(-2 delta) Omega(X_j^-1) / Lambda'(X_j^-1) wherever
    # Lambda(X_j^-1) = 0, for the message positions j < k
    msg = _RS.msg
    acc = 0
    for row, s in zip(_RS.chien_rows, _RS.bm.scalars(d)):
        acc ^= row * (s + _NZ)
    acc = _RS.chien.reduce(acc)
    width = 64 * P.k
    locator = (acc & msg.low) | msg.guard
    slope = ((acc >> width) & msg.low) | msg.guard
    value = msg.mul(((acc >> 2 * width) & msg.low) | msg.guard, msg.inverse(slope))
    nonzero = locator | (locator >> 16)
    nonzero |= nonzero >> 8
    nonzero |= nonzero >> 4
    roots = ((nonzero & msg.one) ^ msg.one) | msg.guard
    errors = value & roots * 0x11111111
    counters.add("gf_muls", _RS.decode_muls)
    return msg.unpack((msg.pack(received[:P.k]) ^ errors) | msg.guard)


# ---------------------------------------------------------------------------
# Reed-Muller layer


def _rm_blocks(symbols: np.ndarray) -> bytes:
    """(B,) uint8 symbols -> B duplicated RM(1,7) blocks, bit j of a block at
    bit j % 8 of byte j // 8.

    One 0/1 product of the symbol bits with the generator bits, exact in
    float32 (every sum is at most 8) and reduced mod 2; no symbol indexes
    anything.
    """
    bits = np.unpackbits(symbols[:, None], axis=1, bitorder="little")
    words = (bits.astype(np.float32) @ _RM_BITS).astype(np.uint8) & 1
    return np.packbits(np.tile(words, P.rm_multiplicity), bitorder="little").tobytes()


def rm_encode(symbol: int, p: ParamSet) -> bytes:
    """Duplicated RM(1,7) block: multiplicity copies of the 128-bit word."""
    _hqc128_only(p)
    if not 0 <= symbol <= 0xFF:
        raise ValueError("symbol must be one byte")
    return _rm_blocks(np.array([symbol], dtype=np.uint8))


def _fold(bits: np.ndarray) -> np.ndarray:
    """(..., multiplicity, 128) bits -> (..., 128) float32 soft values:
    multiplicity - 2 * (set copies)."""
    return bits.shape[-2] - 2 * bits.sum(axis=-2, dtype=np.float32)


def _peaks(t: np.ndarray) -> np.ndarray:
    """Largest-magnitude index along the last axis, ties to the lowest: the
    index gives the seven coordinate coefficients, a negative peak sets the
    constant bit."""
    idx = np.argmax(np.abs(t), axis=-1)
    negative = np.take_along_axis(t, idx[..., None], axis=-1)[..., 0] < 0
    return (idx << 1) | negative


def _decode_blocks(bits: np.ndarray) -> np.ndarray:
    """(B, multiplicity, 128) bits -> (B,) ML-decoded symbols. The transform
    is exact in float32: every entry is at most 128 * multiplicity."""
    counters.add("rm_blocks_decoded", len(bits))
    return _peaks(_fold(bits) @ _SYLVESTER)


# ---------------------------------------------------------------------------
# Concatenated code


def code_encode(m: bytes) -> DensePoly:
    """mG: RS-encode, RM-encode each symbol, pack blocks into the low
    n1*n2 bits of a ring element."""
    blocks = _rm_blocks(np.frombuffer(rs_encode(m, P), dtype=np.uint8))
    counters.add("bytes_copied", len(blocks))
    return DensePoly(P.n, int.from_bytes(blocks, "little"))


def code_decode(noisy: DensePoly) -> bytes:
    """Slice bits [0, n1*n2) into blocks, ML-decode each, RS-decode.

    Bits at positions >= n1*n2 are ignored. Uncorrectable noise yields a
    wrong message silently.
    """
    nbytes = P.n1 * P.n2 // 8
    raw = (noisy.value & ((1 << 8 * nbytes) - 1)).to_bytes(nbytes, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    symbols = _decode_blocks(bits.reshape(P.n1, P.rm_multiplicity, 128))
    # through the module global, where the traced benchmark wraps it
    return rs_decode(symbols.astype(np.uint8).tobytes(), P)
