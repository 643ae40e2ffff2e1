"""Per-draw fixed-weight sampler: the oracle for `sampling.sample_fixed_weight`.

It reads one 24-bit little-endian candidate at a time from chunks of
3 * max(weight, 1) squeezed bytes, which is the sampler's stream discipline
spelled out draw by draw. The tests compare the two on the support, the draw
count and the bytes the shared `Xof` squeezes next.
"""

from __future__ import annotations

from hqc128.sampling import MAX_SAMPLE_DRAWS, SamplingError, Xof


def sample_fixed_weight_per_draw(xof: Xof, weight: int, n: int) -> tuple[tuple[int, ...], int]:
    """(sorted support, number of draws)."""
    if weight > n:
        raise ValueError("weight exceeds modulus")
    threshold = ((1 << 24) // n) * n
    chunk = 3 * max(weight, 1)
    picked: set[int] = set()
    buf = b""
    pos = 0
    draws = 0
    while len(picked) < weight:
        if pos + 3 > len(buf):
            buf = xof.squeeze(chunk)
            pos = 0
        value = int.from_bytes(buf[pos:pos + 3], "little")
        pos += 3
        draws += 1
        if draws > MAX_SAMPLE_DRAWS:
            raise SamplingError("rejection sampling exceeded the draw cap")
        if value >= threshold:
            continue
        coordinate = value % n
        if coordinate in picked:
            continue
        picked.add(coordinate)
    return tuple(sorted(picked)), draws
