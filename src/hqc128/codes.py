"""The concatenated code: Reed-Solomon [n1, k, delta] over GF(2^8) outside,
duplicated first-order Reed-Muller RM(1,7) inside, and the GF(2^8)
arithmetic it runs.

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
per-position counts, Walsh-Hadamard transform (two small matrix products,
H128 = H16 (x) H8, for all blocks), take the largest magnitude.

The RS layer works on packed GF(2^8) vectors (below) and decodes on one
fixed schedule whatever the received word: syndromes, the inversion-free
reformulated Berlekamp-Massey (riBM) of Sarwate and Shanbhag for exactly
2*delta iterations with mask-selected updates, then Chien search and Forney
magnitudes at the k message positions only, with a branch-free mask that
keeps the corrections at roots; its inverses are a full-scan table select.
Beyond delta symbol errors its output is unspecified and the KEM's
re-encryption check is the failure detector.

Sizes are HQC-128's, from ``params.P``. The concatenated code exchanges ring
elements as ``DensePoly`` bytes; their word layout is left to ``poly_ring``.
"""

from __future__ import annotations

import struct

import numpy as np

from . import counters
from .params import P, ParamSet, check
from .poly_ring import DensePoly


# ---------------------------------------------------------------------------
# Packed GF(2^8) vectors
#
# A vector of field elements is one Python int: element l sits in 64-bit
# lane l, with coefficient bit i at bit 4i. Multiplying a vector by a scalar
# in the same form is one integer multiply: each 4-bit slot sums at most 8
# products, so no carry leaves a slot, and bit 0 of slot i is the coefficient
# of x^i of the carry-less product. XOR keeps those bits exact, so products
# are XOR-accumulated unreduced and reduced mod 0x11D once, by one Barrett
# fold: with the slots 8..15 of a lane as H and mu = x^16 div 0x11D, the
# quotient is q = H * mu div x^8, and the remainder is the low 8 slots of
# the lane XOR q * (x^4 + x^3 + x^2 + 1). Each slot of H * mu and of that
# product sums at most 4 products, so no carry leaves a slot there either.
#
# The decoder runs on secret data, so every operand has a data-independent
# length: a scalar s multiplies as s + _NZ, never zero (CPython skips a
# multiply by zero) and always 30 bits long; the extra term v << 29 adds 2 to
# slots (bit 1, which no mask reads; a slot then holds at most 10). Each
# vector carries a guard bit two lanes above its top lane, so zero lanes at
# the top do not shorten it.

_NZ = 1 << 29
_SP = 0x11101       # x^4 + x^3 + x^2 + 1 (0x11D without x^8), spread
_MU = 0x100011100   # x^8 + x^4 + x^3 + x^2 = x^16 div 0x11D, spread


def _fill(n: int, lane: int) -> int:
    """The 64-bit pattern `lane` repeated in lanes 0..n-1."""
    return int.from_bytes(lane.to_bytes(8, "little") * n, "little")


class _Lanes:
    """Masks and lane-wise operations for vectors of n lanes, n given by
    the '<nQ' struct that reads their lanes (built at module level)."""

    def __init__(self, lanes: struct.Struct):
        self.n = n = lanes.size >> 3
        self.guard = g = 1 << (64 * (n + 2))
        self.low = _fill(n, 0x11111111)            # slots 0..7
        self.one = _fill(n, 1)
        self._lanes = lanes
        self._spread = [_fill(n, m) | g for m in (0x000F000F, 0x03030303, 0x11111111)]
        self._compact = [_fill(n, m) | g for m in (0x03030303, 0x000F000F, 0xFF)]

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
        """Slots 0..15 of each lane reduced mod 0x11D by one Barrett fold:
        q = H * mu div x^8 for H the slots 8..15, then the slots 0..7 of
        x + q * (x^4 + x^3 + x^2 + 1). Both multiplicands carry the guard;
        guards and anything else above the lanes are dropped and the guard
        is set."""
        low, g = self.low, self.guard
        q = (((((x >> 32) & low) | g) * _MU >> 32) & low) | g
        return ((x ^ q * _SP) & low) | g


# ---------------------------------------------------------------------------
# Precomputed public tables, built once at import from the powers of alpha

# _EXP[i] = alpha^i for alpha = x, i in [0, 255): doubling mod 0x11D
_EXP = [1]
for _ in range(254):
    _EXP.append((_EXP[-1] << 1) ^ (0x11D if _EXP[-1] & 0x80 else 0))


def gf_pow_alpha(e: int) -> int:
    """alpha^e for a public exponent (table-building helper)."""
    return _EXP[e % 255]


# The RS layer's three widths. The received word, the syndromes, the parity
# remainder, g(X) and the riBM state share one: n1 = 3 delta + 1 = 46 lanes.
_WORD = _Lanes(struct.Struct(f"<{max(P.n1, 3 * P.delta + 1)}Q"))
_CHIEN = _Lanes(struct.Struct(f"<{3 * P.k}Q"))
_MSG = _Lanes(struct.Struct(f"<{P.k}Q"))


def _rs_tables() -> tuple[list[int], list[int], list[int]]:
    """The syndrome, parity and Chien/Forney rows, packed without guards."""
    k, delta, t = P.k, P.delta, 2 * P.delta
    run = bytes(_EXP) * 32      # run[x] = alpha^x for x < 32 * 255 = 8,160

    def powers(e: int, count: int) -> bytes:    # alpha^(e i) for i in [0, count)
        s = e % 255             # one strided slice: s * count < 8,160 for count <= 32
        return run[:s * count:s] if s else b"\1" * count

    # syndrome rows: lane i of row j is alpha^((i+1) j), lanes 2 delta.. zero
    syn_rows = [_WORD.pack(powers(j, t + 1)[1:].ljust(_WORD.n, b"\0")) & _WORD.low
                for j in range(P.n1)]

    # g(X) = prod_{i=1..2 delta} (X - alpha^i), lane j = coefficient of X^j;
    # syndrome row 1 holds the roots alpha^1 .. alpha^(2 delta)
    g = 1
    for root in _WORD.scalars(syn_rows[1])[:t]:
        g = _WORD.reduce((g << 64) ^ g * (root + _NZ)) & _WORD.low

    # parity = sum msg_m rows_m, row m = X^(m-k) mod g as g divides X^255 - 1.
    # X^-1 = g_0^-1 (g - g_0) / X, g_0 = alpha^(delta (2 delta + 1)) the roots'
    # product; r -> X^-1 r is r one lane down plus r_0 X^-1, run k times.
    g0_inv = int(f"{gf_pow_alpha(-delta * (t + 1)):b}", 16)  # spread: binary read as hex
    x_inv = _WORD.reduce((g >> 64) * (g0_inv + _NZ)) & _WORD.low
    parity_rows = []
    r = 1
    for _ in range(k):
        r = _WORD.reduce((r >> 64) ^ x_inv * ((r & 0xFFFFFFFF) + _NZ)) & _WORD.low
        parity_rows.append(r)
    parity_rows.reverse()

    # Chien/Forney rows, one per riBM output lane i in [0, 2 delta]: lanes
    # [0, k) evaluate the locator Lambda_(i-delta) at X_j^-1 = alpha^-j,
    # lanes [k, 2k) its derivative (odd terms), lanes [2k, 3k) the
    # modified evaluator Omega_i with the factor X_j^(-2 delta) folded in.
    chien_rows = []
    for i in range(t + 1):
        e = i - delta
        lanes = (powers(-e, k) + (powers(1 - e, k) if e % 2 else bytes(k)) + bytes(k)
                 if e >= 0 else bytes(2 * k) + powers(-(i + t), k))
        chien_rows.append(_CHIEN.pack(lanes) & _CHIEN.low)
    return syn_rows, parity_rows, chien_rows


_SYN_ROWS, _PARITY_ROWS, _CHIEN_ROWS = _rs_tables()

# gf_muls of one rs_decode call as the cost model charges them: syndromes,
# riBM, the three evaluations, then 11 products for each inverse (the a^254
# chain; here a table select) and one for Y_j
_DECODE_MULS = (P.n1 * 2 * P.delta + 4 * P.delta * (3 * P.delta + 1)
                + P.k * ((P.delta + 1) + (P.delta + 1) // 2 + P.delta + 12))


# Field inverses alpha^i -> alpha^-i, 0 -> 0, and the bytes a lane is compared to
_INV = np.zeros(256, dtype=np.float32)
_INV[_EXP] = _EXP[:1] + _EXP[:0:-1]     # alpha^-i = alpha^(255 - i)
_BYTES = np.arange(256, dtype=np.uint8)


def _rm_rows() -> np.ndarray:
    """(8, 1, 6) '<u8' generator rows, the constant then the 7 coordinates,
    each as multiplicity copies of its 128-bit word."""
    bits = np.ones((8, 128), dtype=np.uint8)
    bits[1:] = (np.arange(128) >> np.arange(7)[:, None]) & 1
    words = np.packbits(np.tile(bits, P.rm_multiplicity), axis=1, bitorder="little")
    return words.view("<u8").reshape(8, 1, -1)


_RM_ROWS = _rm_rows()


def _sylvester(size: int = 128) -> np.ndarray:
    """size x size float32 Walsh-Hadamard matrix, size <= 256: (-1)^popcount(u & j)."""
    j = np.arange(size, dtype=np.uint8)
    parity = j[:, None] & j
    for shift in (4, 2, 1):
        parity ^= parity >> shift
    return np.float32(1) - 2 * (parity & 1)


# H128 = H16 (x) H8: popcount(u & j) splits over the index's high 4 and low 3
# bits. The soft values m - 2c of set-copy counts c, transformed: (m - 2c) @
# H128 is c @ (-2 H128) plus 128 m on column 0, as every other column sums to 0
_H16_NEG2 = -2 * _sylvester(16)
_H8 = _sylvester(8)


# ---------------------------------------------------------------------------
# Reed-Solomon layer
#
# rs_encode, rs_decode, rm_encode and rs_syndromes keep a record argument
# because perfbench/ calls them as f(x, P); params.check admits only P.


# rs_* call these three through the module globals, where perfbench/spans.py wraps them
def gf_mul_vec(rows: list[int], scalars: tuple[int, ...]) -> int:
    """XOR sum of public packed rows times secret spread scalars, unreduced:
    each scalar s multiplies as s + _NZ."""
    acc = 0
    for row, s in zip(rows, scalars):
        acc ^= row * (s + _NZ)
    return acc


def gf_mul(a: int, b: int) -> int:
    """Lane-wise a*b of two k-lane vectors: a * x^t kept in the lanes where
    bit t of b is set, then reduced."""
    one, g = _MSG.one, _MSG.guard
    acc = 0
    for shift in range(0, 32, 4):           # 4t
        keep = (((b >> shift) & one) | g) * 0x0FFFFFFFFFFFFFFF
        acc ^= (a << shift) & keep
    return _MSG.reduce(acc)


def gf_inverse(values: bytes) -> bytes:
    """Field inverse of each byte, 0 -> 0, by a full-scan table select: each
    byte's one-hot row against all 256 values times the inverse table, so
    every byte reads every entry."""
    a = np.frombuffer(values, dtype=np.uint8)
    return ((a[:, None] == _BYTES).astype(np.float32) @ _INV).astype(np.uint8).tobytes()


def rs_encode(msg: bytes, p: ParamSet) -> bytes:
    """Systematic codeword: message symbols, then 2*delta parity symbols
    (k * 2 delta field products)."""
    check(p)
    if len(msg) != P.k:
        raise ValueError(f"message must be {P.k} bytes")
    acc = gf_mul_vec(_PARITY_ROWS, _MSG.scalars(_MSG.pack(msg)))
    counters.add("gf_muls", P.k * 2 * P.delta)
    return msg + _WORD.unpack(_WORD.reduce(acc))[:2 * P.delta]


def _syndromes(word: int) -> int:
    """S_1 .. S_(2 delta) of a packed received word, in lanes 0..2 delta - 1."""
    return _WORD.reduce(gf_mul_vec(_SYN_ROWS, _WORD.scalars(word)))


def rs_syndromes(cw: np.ndarray, p: ParamSet) -> np.ndarray:
    """S_i = sum_j cw[j] alpha^((i+1) j) for i in [0, 2 delta), as uint8."""
    check(p)
    if not ((cw >= 0) & (cw <= 0xFF)).all():
        raise ValueError("symbols must be in 0..255")
    syn = _syndromes(_WORD.pack(cw.astype(np.uint8).tobytes()))
    counters.add("gf_muls", P.n1 * 2 * P.delta)
    return np.frombuffer(_WORD.unpack(syn)[:2 * P.delta], dtype=np.uint8)


def _ribm(syn: int) -> int:
    """Reformulated inversion-free Berlekamp-Massey, 2 delta iterations.

    delta_i starts as S_(i+1) for i < 2 delta with delta_(3 delta) = 1 and
    theta = delta. Each iteration sets delta_i <- gamma * delta_(i+1) +
    delta_0 * theta_i, and, when delta_0 != 0 and k >= 0, theta <- the
    shifted delta, gamma <- delta_0 and k <- -k - 1 (else k <- k + 1), all
    by masks. On return lanes delta..2 delta hold the locator Lambda and
    lanes 0..delta-1 the modified evaluator Omega.
    """
    g = _WORD.guard
    d = syn | (1 << (64 * 3 * P.delta))
    theta = d
    gamma = 1
    k = 0
    for _ in range(2 * P.delta):
        d0 = d & 0xFFFFFFFF
        shifted = (d >> 64) | g
        d = _WORD.reduce(shifted * (gamma + _NZ) ^ theta * (d0 + _NZ))
        swap = -((((d0 - 1) >> 63) + 1) & ((k >> 63) + 1))
        theta = (shifted & swap) | (theta & ~swap)
        gamma = (d0 & swap) | (gamma & ~swap)
        k = (~k & swap) | ((k + 1) & ~swap)
    return d


def rs_decode(received: bytes, p: ParamSet) -> bytes:
    """Correct up to delta symbol errors; more than delta is unspecified.

    Every call runs the same schedule and counts the field products the cost
    model charges: n1 * 2 delta (syndromes) + 4 delta (3 delta + 1) (riBM) +
    k * (2 delta + 13 + floor((delta + 1) / 2)) (Chien, Forney and the a^254
    inverse chain, here a table select), 4,956 for HQC-128.
    """
    check(p)
    if len(received) != P.n1:
        raise ValueError(f"codeword must be {P.n1} bytes")
    word = _WORD.pack(received)
    d = _ribm(_syndromes(word))

    # Y_j = X_j^(-2 delta) Omega(X_j^-1) / Lambda'(X_j^-1) wherever
    # Lambda(X_j^-1) = 0, for the message positions j < k
    low, g = _MSG.low, _MSG.guard
    acc = _CHIEN.reduce(gf_mul_vec(_CHIEN_ROWS, _WORD.scalars(d)))
    width = 64 * P.k
    locator = (acc & low) | g
    slope = ((acc >> width) & low) | g
    value = gf_mul(((acc >> 2 * width) & low) | g, _MSG.pack(gf_inverse(_MSG.unpack(slope))))
    nonzero = locator | (locator >> 16)
    nonzero |= nonzero >> 8
    nonzero |= nonzero >> 4
    roots = ((nonzero & _MSG.one) ^ _MSG.one) | g
    errors = value & roots * 0x11111111
    counters.add("gf_muls", _DECODE_MULS)
    # the word's message lanes, at a length that does not follow their values
    message = (word | g) & (low | g)
    return _MSG.unpack((message ^ errors) | g)


# ---------------------------------------------------------------------------
# Reed-Muller layer


def _rm_blocks(symbols: np.ndarray) -> np.ndarray:
    """(B,) uint8 symbols -> (B, n2 / 64) '<u8' words of B duplicated RM(1,7)
    blocks, bit j of a block at bit j % 64 of word j // 64.

    Each symbol's generator rows, copies included, are masked by its bits
    and XOR-reduced; no symbol indexes anything.
    """
    bits = np.unpackbits(symbols[None, :], axis=0, bitorder="little")[:, :, None]
    return np.bitwise_xor.reduce(_RM_ROWS * bits, axis=0).astype("<u8", copy=False)


def rm_encode(symbol: int, p: ParamSet) -> bytes:
    """Duplicated RM(1,7) block: multiplicity copies of the 128-bit word."""
    check(p)
    if not 0 <= symbol <= 0xFF:
        raise ValueError("symbol must be one byte")
    return _rm_blocks(np.array([symbol], dtype=np.uint8)).tobytes()


def _fold(bits: np.ndarray) -> np.ndarray:
    """(..., multiplicity, 128) bits -> (..., 128) set-copy counts, the
    copies added as whole arrays."""
    counts = bits[..., 0, :] + bits[..., 1, :]
    for i in range(2, bits.shape[-2]):
        counts += bits[..., i, :]
    return counts


def _peaks(t: np.ndarray) -> np.ndarray:
    """Largest-magnitude index along the last axis, ties to the lowest: the
    index gives the seven coordinate coefficients, a negative peak sets the
    constant bit. The peak is read at its flat index, row * 128 + index."""
    idx = np.argmax(np.abs(t), axis=-1)
    rows = 128 * np.arange(idx.size).reshape(idx.shape)
    return (idx << 1) | (t.reshape(-1)[idx + rows] < 0)


def _decode_blocks(bits: np.ndarray) -> np.ndarray:
    """(B, multiplicity, 128) bits -> (B,) ML-decoded symbols. The transform
    of the soft values multiplicity - 2 * (set copies) is taken from the
    counts, with the constant on column 0, each block's counts as a 16 x 8
    matrix C: -2 H16 @ C @ H8. It is exact in float32: every entry is at
    most 128 * multiplicity."""
    counters.add("rm_blocks_decoded", len(bits))
    t = (_H16_NEG2 @ _fold(bits).reshape(-1, 16, 8) @ _H8).reshape(-1, 128)
    t[:, 0] += 128 * bits.shape[-2]
    return _peaks(t)


# ---------------------------------------------------------------------------
# Concatenated code


def code_encode(m: bytes) -> DensePoly:
    """mG as a ring element: RS-encode, RM-encode each symbol, blocks in
    order in the low n1*n2/8 bytes, zero above."""
    blocks = _rm_blocks(np.frombuffer(rs_encode(m, P), dtype=np.uint8)).tobytes()
    counters.add("bytes_copied", len(blocks))
    return DensePoly(P.n, blocks.ljust(P.n_bytes, b"\0"))


def code_decode(noisy: DensePoly) -> bytes:
    """Read the first n1*n2/8 bytes of `noisy`, ML-decode each block,
    RS-decode.

    Bits at positions >= n1*n2 are ignored. Uncorrectable noise yields a
    wrong message silently.
    """
    raw = np.frombuffer(noisy.data, dtype=np.uint8, count=P.n1 * P.n2 // 8)
    bits = np.unpackbits(raw, bitorder="little")
    symbols = _decode_blocks(bits.reshape(P.n1, P.rm_multiplicity, 128))
    # through the module global, where the traced benchmark wraps it
    return rs_decode(symbols.astype(np.uint8).tobytes(), P)
