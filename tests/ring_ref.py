"""Shift-XOR sparse-by-dense product: the oracle for `poly_ring.mul_sparse_dense`.

It XORs the dense operand shifted left by each coordinate of the support
into a double-length accumulator, then folds the accumulator once by
X^n - 1. The tests compare it with the gather over cached bit-shifted copies
that `src/` runs, on canonical operands.
"""

from __future__ import annotations

from hqc128.poly_ring import DensePoly, SparsePoly


def unreduced_product(s: SparsePoly, d: DensePoly) -> int:
    """XOR of d << c over the support: degree < 2n - 1, not yet reduced."""
    acc = 0
    for c in s.support:
        acc ^= d.value << c
    return acc


def mul_shift_xor(s: SparsePoly, d: DensePoly) -> int:
    """The product's value: one fold of bits [n, 2n - 1) onto [0, n - 1)."""
    n = d.n
    acc = unreduced_product(s, d)
    return (acc & ((1 << n) - 1)) ^ (acc >> n)
