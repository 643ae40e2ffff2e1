"""Log/antilog table multiply in GF(2^8): the oracle for `gf256.gf_mul`.

It indexes tables by its operands, so it has no place on secret data; the
tests compare it with the carry-less multiply over every operand pair.
"""

from hqc128.gf256 import FIELD_ORDER, gf_pow_alpha

EXP = [gf_pow_alpha(i) for i in range(FIELD_ORDER)]
LOG = {x: i for i, x in enumerate(EXP)}


def gf_mul_table(a: int, b: int) -> int:
    """Product via log/antilog lookup."""
    if a == 0 or b == 0:
        return 0
    return EXP[(LOG[a] + LOG[b]) % FIELD_ORDER]
