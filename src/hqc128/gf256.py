"""Arithmetic in GF(2^8) = F2[x]/(x^8 + x^4 + x^3 + x^2 + 1).

Multiplication is the branch-free carry-less multiply-add `clmul_fma`, the
fused primitive of a combinational field unit, followed by reduction
folding. The antilog table gives the powers of alpha for building public
tables. tests/gf_ref.py derives the log table from it and turns the two into
a lookup multiply, the oracle that checks `gf_mul` on all 65,536 operand
pairs.
"""

from __future__ import annotations

import numpy as np

from . import counters

FIELD_POLY = 0x11D   # x^8 + x^4 + x^3 + x^2 + 1
GENERATOR = 0x02
FIELD_ORDER = 255    # size of the multiplicative group


def clmul_fma(a: int, b: int) -> int:
    """Carry-less multiply-add: (a_hi * b) xor a_lo, no field reduction.

    `a` packs two operands: bits 15..8 are the multiplicand a_hi, bits 7..0
    the addend a_lo. `b` is 8 bits. The result has degree <= 14.
    """
    if not 0 <= a <= 0xFFFF:
        raise ValueError("a must be a 16-bit word")
    if not 0 <= b <= 0xFF:
        raise ValueError("b must be an 8-bit word")
    acc = a & 0xFF
    a_hi = a >> 8
    for t in range(8):
        acc ^= (a_hi << t) * ((b >> t) & 1)
    return acc


_FOLD = tuple(FIELD_POLY << (i - 8) for i in range(8, 15))


def gf_mul(a: int, b: int) -> int:
    """Field product a*b mod 0x11D: `clmul_fma` with a zero addend, then
    reduction folding. Branch-free."""
    counters.add("gf_muls", 1)
    p = clmul_fma(a << 8, b)
    for i in range(14, 7, -1):
        p ^= ((p >> i) & 1) * _FOLD[i - 8]
    return p


def gf_inverse(a: int) -> int:
    """Multiplicative inverse a^254, by a fixed square-and-multiply chain."""
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(2^8)")
    # a^254 = a^2 * a^4 * ... * a^128
    result = 1
    sq = a
    for _ in range(7):
        sq = gf_mul(sq, sq)
        result = gf_mul(result, sq)
    return result


# Antilog table for alpha = 0x02: _EXP[i] = alpha^i, i in [0, 255).
_EXP = [1]
for _ in range(FIELD_ORDER - 1):
    _EXP.append(gf_mul(_EXP[-1], GENERATOR))


def gf_pow_alpha(e: int) -> int:
    """alpha^e for a public exponent (table-building helper)."""
    return _EXP[e % FIELD_ORDER]


def gf_mul_vec(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise field product of two uint8 arrays (broadcasting allowed).

    Same clmul-fold computation as :func:`gf_mul`, lifted to arrays; no
    secret-indexed lookups, only arithmetic on the operand values.
    """
    a16 = a.astype(np.uint16)
    bits = b.astype(np.uint16)
    p = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.uint16)
    for t in range(8):
        p ^= (a16 << t) * ((bits >> t) & 1)
    for i in range(14, 7, -1):
        p ^= ((p >> i) & 1) * (FIELD_POLY << (i - 8))
    counters.add("gf_muls", int(p.size))
    return p.astype(np.uint8)
