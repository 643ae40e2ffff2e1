"""HQC-128 parameter set.

The record is built once, here, as ``P``, and every other module reads its
sizes from it (``from .params import P``): a corrected constant touches one
place. :func:`check` is the one test that a record handed in is ``P``, an
identity check.
"""


class ParamSet:
    """All HQC constants in one read-only record; only the HQC-128 values are
    constructed, once, as ``P``."""

    __slots__ = ("n",                   # ring degree: R = F2[X]/(X^n - 1)
                 "n1",                  # Reed-Solomon code length in GF(2^8) symbols
                 "k",                   # Reed-Solomon dimension = message length in bytes
                 "rm_multiplicity",     # duplicated RM(1,7) copies per symbol
                 "w",                   # Hamming weight of the secret polynomials x, y
                 "w_r",                 # Hamming weight of r1, r2
                 "w_e",                 # Hamming weight of e
                 "seed_bytes",
                 "ss_bytes")            # shared-secret length in bytes

    def __init__(self, **values: int):
        if values.keys() != set(ParamSet.__slots__):
            raise TypeError(f"ParamSet takes exactly the keywords {', '.join(ParamSet.__slots__)}")
        for name in ParamSet.__slots__:
            object.__setattr__(self, name, values[name])

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"ParamSet is read-only: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    @property
    def delta(self) -> int:
        """RS symbol-error correction capability: n1 - k = 2 * delta."""
        return (self.n1 - self.k) // 2

    @property
    def n2(self) -> int:
        """RM block length in bits: 128 per RM(1,7) copy."""
        return 128 * self.rm_multiplicity

    @property
    def words_n(self) -> int:
        """64-bit words of one ring element: ceil(n / 64)."""
        return (self.n + 63) // 64

    @property
    def n_bytes(self) -> int:
        """Serialized size of one ring element."""
        return (self.n + 7) // 8


P = ParamSet(n=17669, n1=46, k=16, rm_multiplicity=3, w=66, w_r=75, w_e=75,
             seed_bytes=40, ss_bytes=64)


def hqc128() -> ParamSet:
    """The NIST level 1 parameter set, ``P``."""
    return P


def check(p: object) -> None:
    """Raise ValueError unless p is HQC-128's record ``P``, the one supported
    parameter set."""
    if p is not P:
        raise ValueError("only the HQC-128 parameter set is supported")
