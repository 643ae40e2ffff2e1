"""The int path of the ring: the oracle for `poly_ring` and for the KEM's
accumulators.

A ring element is one Python int here, bit i the coefficient of X^i.
`as_int` reads any ring result of `src/` (a `DensePoly` or '<u8' words) as
that int, and `dense` builds a `DensePoly` from one. `add` XORs two
elements, `dense_from_sparse` sets the support bits of one int, and the
shift-XOR product XORs the dense operand shifted left by each coordinate of
the support into a double-length accumulator, then folds it once by
X^n - 1. The tests compare the gather over cached
bit-shifted copies, the 0/1 scatter and the KEM's accumulators with these.
"""

from __future__ import annotations

import numpy as np

from hqc128.poly_ring import DensePoly, SparsePoly


def as_int(x: DensePoly | np.ndarray) -> int:
    """A ring element, held as wire bytes or as '<u8' words, as an int."""
    data = x.to_bytes() if isinstance(x, DensePoly) else x.astype("<u8").tobytes()
    return int.from_bytes(data, "little")


def dense(n: int, v: int = 0) -> DensePoly:
    """The element with value v < 2^n, as its wire bytes."""
    return DensePoly(n, v.to_bytes((n + 7) >> 3, "little"))


def add(a: DensePoly, b: DensePoly) -> DensePoly:
    """XOR; characteristic 2, so this is also subtraction."""
    if a.n != b.n:
        raise ValueError("ring degree mismatch")
    return dense(a.n, as_int(a) ^ as_int(b))


def dense_from_sparse(s: SparsePoly) -> DensePoly:
    """Set the support bits of one int."""
    return dense(s.n, sum(1 << c for c in s.support.tolist()))


def unreduced_product(s: SparsePoly, d: DensePoly) -> int:
    """XOR of d << c over the support: degree < 2n - 1, not yet reduced."""
    acc = 0
    dv = as_int(d)
    for c in s.support.tolist():
        acc ^= dv << c
    return acc


def mul_shift_xor(s: SparsePoly, d: DensePoly) -> int:
    """The product's value: one fold of bits [n, 2n - 1) onto [0, n - 1)."""
    n = d.n
    acc = unreduced_product(s, d)
    return (acc & ((1 << n) - 1)) ^ (acc >> n)
