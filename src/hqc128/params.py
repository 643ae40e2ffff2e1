"""HQC-128 parameter set.

Every other module reads its constants from the record returned by
:func:`hqc128`, which ``codes`` binds once as ``codes.P`` and ``kem``
imports from there; a corrected constant therefore touches exactly one
place.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_SECRET_WEIGHT = 75


@dataclass(frozen=True)
class ParamSet:
    """All HQC constants in one validated record; only the HQC-128 values
    are constructed."""

    n: int                  # ring degree: R = F2[X]/(X^n - 1)
    n1: int                 # Reed-Solomon code length in GF(2^8) symbols
    k: int                  # Reed-Solomon dimension = message length in bytes
    rm_multiplicity: int    # duplicated RM(1,7) copies per symbol
    w: int                  # Hamming weight of the secret polynomials x, y
    w_r: int                # Hamming weight of r1, r2
    w_e: int                # Hamming weight of e
    seed_bytes: int
    ss_bytes: int           # shared-secret length in bytes

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


def hqc128() -> ParamSet:
    """The NIST level 1 parameter set."""
    return ParamSet(
        n=17669,
        n1=46,
        k=16,
        rm_multiplicity=3,
        w=66,
        w_r=75,
        w_e=75,
        seed_bytes=40,
        ss_bytes=64,
    )


def validate(p: ParamSet) -> list[str]:
    """Return every violated invariant; an empty list means the set is sound.

    Violations are data, not exceptions, so tests can construct broken
    records and inspect exactly what failed.
    """
    problems = []
    if p.n % 2 == 0:
        problems.append("n must be odd")
    if p.n1 * p.n2 > p.n:
        problems.append("n1 * n2 must fit inside the ring (n1*n2 <= n)")
    if p.w > MAX_SECRET_WEIGHT:
        problems.append(f"w <= {MAX_SECRET_WEIGHT}")
    if p.w_r > MAX_SECRET_WEIGHT:
        problems.append(f"w_r <= {MAX_SECRET_WEIGHT}")
    if p.w_e > MAX_SECRET_WEIGHT:
        problems.append(f"w_e <= {MAX_SECRET_WEIGHT}")
    if (p.n1 - p.k) % 2:
        problems.append("n1 - k must be even (RS redundancy 2*delta)")
    if p.n1 > 255:
        problems.append("n1 must not exceed the GF(2^8) code-length bound 255")
    if p.k > p.n1:
        problems.append("k <= n1")
    return problems
