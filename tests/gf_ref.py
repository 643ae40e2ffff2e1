"""Log/antilog table multiply in GF(2^8) = F2[x]/(x^8 + x^4 + x^3 + x^2 + 1):
the oracle for the field operations in `codes`.

The tables are built here, by doubling mod 0x11D, so nothing in them comes
from the package. The multiply indexes tables by its operands, so it has no
place on secret data; the tests compare it with the packed-lane arithmetic
over every operand pair.
"""

FIELD_POLY = 0x11D
FIELD_ORDER = 255

EXP = [1]
for _ in range(FIELD_ORDER - 1):
    _x = EXP[-1] << 1
    EXP.append(_x ^ FIELD_POLY if _x & 0x100 else _x)
LOG = {x: i for i, x in enumerate(EXP)}


def gf_mul_table(a: int, b: int) -> int:
    """Product via log/antilog lookup."""
    if a == 0 or b == 0:
        return 0
    return EXP[(LOG[a] + LOG[b]) % FIELD_ORDER]
