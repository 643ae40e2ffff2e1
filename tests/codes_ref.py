"""The float32 RM(1,7) encoder `codes` ran before its row select: the oracle
for `codes._rm_blocks`, and through it for `rm_encode` and `code_encode`.

`rm_blocks_float` takes one 0/1 product of the symbol bits with the
generator bits, exact in float32 (every sum is at most 8), reduces it mod 2
and tiles the copies. `code_encode_ref` RS-encodes with `codes.rs_encode`
and counts what `codes.code_encode` counts, so the tests compare counters too.
"""

from __future__ import annotations

import numpy as np

from hqc128 import counters
from hqc128.codes import rs_encode
from hqc128.params import P


def _rm_generator_bits() -> np.ndarray:
    """(8, 128) float32 generator bits: the constant, then the 7 coordinates."""
    j = np.arange(128)
    rows = np.empty((8, 128), dtype=np.float32)
    rows[0] = 1
    for t in range(1, 8):
        rows[t] = (j >> (t - 1)) & 1
    return rows


_RM_BITS = _rm_generator_bits()


def rm_blocks_float(symbols: np.ndarray) -> bytes:
    """(B,) uint8 symbols -> B duplicated RM(1,7) blocks, by one product."""
    bits = np.unpackbits(symbols[:, None], axis=1, bitorder="little")
    words = (bits.astype(np.float32) @ _RM_BITS).astype(np.uint8) & 1
    return np.packbits(np.tile(words, P.rm_multiplicity), bitorder="little").tobytes()


def code_encode_ref(m: bytes) -> np.ndarray:
    """mG with the float32 RM encoder, counted as `codes.code_encode` counts."""
    blocks = rm_blocks_float(np.frombuffer(rs_encode(m, P), dtype=np.uint8))
    counters.add("bytes_copied", len(blocks))
    return np.frombuffer(blocks, dtype="<u8")
