"""Reference Keccak-f[1600] and a pure-Python SHAKE256 sponge.

A test oracle for `hqc128.sampling.Xof`, which runs on hashlib: the
permutation is checked against the published zero-state vectors, the sponge
against hashlib stream for stream, and its permutation count (one
`counters.add("keccak_permutations", 1)` call per permutation) against the
count that `Xof` derives from its cursors.
"""

from __future__ import annotations

from hqc128 import counters
from hqc128.sampling import SHAKE256_RATE

_ROUND_CONSTANTS = [
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
]

# Rotation offsets, lane index = 5*y + x.
_ROTATIONS = [
    0, 1, 62, 28, 27,
    36, 44, 6, 55, 20,
    3, 10, 43, 25, 39,
    41, 45, 15, 21, 8,
    18, 2, 61, 56, 14,
]

_MASK64 = (1 << 64) - 1


class KeccakState:
    """25 lanes of 64 bits (the 5x5 sponge state)."""

    __slots__ = ("lanes",)

    def __init__(self, lanes: list[int] | None = None):
        if lanes is None:
            lanes = [0] * 25
        if len(lanes) != 25:
            raise ValueError("Keccak state has exactly 25 lanes")
        self.lanes = list(lanes)

    def to_bytes(self) -> bytes:
        return b"".join(lane.to_bytes(8, "little") for lane in self.lanes)

    @classmethod
    def from_bytes(cls, data: bytes) -> "KeccakState":
        if len(data) != 200:
            raise ValueError("Keccak state is 200 bytes")
        return cls([int.from_bytes(data[8 * i:8 * i + 8], "little") for i in range(25)])


def keccak_f1600(state: KeccakState) -> KeccakState:
    """All 24 rounds of theta, rho, pi, chi, iota; returns a new state."""
    a = list(state.lanes)
    for rc in _ROUND_CONSTANTS:
        # theta
        c = [a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20] for x in range(5)]
        for x in range(5):
            cx = c[(x + 1) % 5]
            d = c[(x - 1) % 5] ^ (((cx << 1) | (cx >> 63)) & _MASK64)
            for y in range(0, 25, 5):
                a[y + x] ^= d
        # rho and pi
        b = [0] * 25
        for x in range(5):
            for y in range(5):
                v = a[5 * y + x]
                r = _ROTATIONS[5 * y + x]
                b[5 * ((2 * x + 3 * y) % 5) + y] = (
                    ((v << r) | (v >> (64 - r))) & _MASK64 if r else v
                )
        # chi and iota
        for y in range(0, 25, 5):
            b0, b1, b2, b3, b4 = b[y:y + 5]
            a[y] = b0 ^ (~b1 & b2) & _MASK64
            a[y + 1] = b1 ^ (~b2 & b3) & _MASK64
            a[y + 2] = b2 ^ (~b3 & b4) & _MASK64
            a[y + 3] = b3 ^ (~b4 & b0) & _MASK64
            a[y + 4] = b4 ^ (~b0 & b1) & _MASK64
        a[0] ^= rc
    counters.add("keccak_permutations", 1)
    return KeccakState(a)


class PureXof:
    """SHAKE256 over (seed || domain byte) on keccak_f1600, suffix 0x1F.

    Same interface as `Xof`: built from the seed and domain byte, then only
    squeezed; the first squeeze pads and finalizes.
    """

    def __init__(self, seed: bytes, domain: int):
        self.state = KeccakState()
        self.buffer = bytearray(seed + bytes([domain]))
        self.finalized = False
        while len(self.buffer) >= SHAKE256_RATE:
            self._absorb_block(bytes(self.buffer[:SHAKE256_RATE]))
            del self.buffer[:SHAKE256_RATE]

    def _absorb_block(self, block: bytes) -> None:
        lanes = self.state.lanes
        for i in range(SHAKE256_RATE // 8):
            lanes[i] ^= int.from_bytes(block[8 * i:8 * i + 8], "little")
        self.state = keccak_f1600(self.state)

    def _finalize(self) -> None:
        block = bytearray(self.buffer) + bytearray(SHAKE256_RATE - len(self.buffer))
        block[len(self.buffer)] ^= 0x1F
        block[-1] ^= 0x80
        self._absorb_block(bytes(block))
        self._out = self.state.to_bytes()[:SHAKE256_RATE]
        self._pos = 0
        self.finalized = True

    def squeeze(self, n: int) -> bytes:
        if n == 0:
            return b""
        if not self.finalized:
            self._finalize()
        out = bytearray()
        while len(out) < n:
            if self._pos == SHAKE256_RATE:
                self.state = keccak_f1600(self.state)
                self._out = self.state.to_bytes()[:SHAKE256_RATE]
                self._pos = 0
            take = min(n - len(out), SHAKE256_RATE - self._pos)
            out += self._out[self._pos:self._pos + take]
            self._pos += take
        return bytes(out)
