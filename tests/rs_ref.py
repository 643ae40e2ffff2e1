"""A textbook systematic Reed-Solomon encoder: the oracle for
`codes.rs_encode`, sharing no code with it.

It follows the convention of the `codes` docstring: the k message symbols
are the coefficients of X^0 .. X^(k-1), the 2 delta parity symbols p(X) sit
above them, and the whole word is a multiple of
g(X) = (X - alpha^1) ... (X - alpha^(2 delta)). Since g divides X^255 - 1,
m(X) + X^k p(X) = 0 mod g gives p(X) = m(X) X^(255-k) mod g(X), computed
here by long division on the log/antilog tables of `tests.gf_ref`.
"""

from __future__ import annotations

from hqc128.params import P
from tests.gf_ref import EXP, FIELD_ORDER, LOG, gf_mul_table


def generator(t: int) -> list[int]:
    """g(X) = prod_{i=1..t} (X - alpha^i), coefficients from X^0 up."""
    g = [1]
    for i in range(1, t + 1):
        # g X + alpha^i g; subtraction is XOR
        g = [a ^ gf_mul_table(EXP[i], b) for a, b in zip([0, *g], [*g, 0])]
    return g


def rs_encode_ref(msg: bytes) -> bytes:
    """The message, then the remainder of m(X) X^(255-k) divided by g(X)."""
    t = 2 * P.delta
    g = generator(t)
    log_g = [LOG[c] for c in g[:t]]     # g is monic: its top term clears rem[i]
    rem = [0] * (FIELD_ORDER - len(msg)) + list(msg)
    for i in range(len(rem) - 1, t - 1, -1):
        top, rem[i] = rem[i], 0
        if top:
            for j, lg in enumerate(log_g):
                rem[i - t + j] ^= EXP[(LOG[top] + lg) % FIELD_ORDER]
    return bytes(msg) + bytes(rem[:t])
