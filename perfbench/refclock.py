"""Machine-speed reference: a fixed kernel timed beside every operation.

Shared 2-CPU x86_64 hosts can switch, every second or so, between two
speeds about 1.8x apart, with CPU time tracking wall time (no stolen time).
A raw 15-second median then lands in either mode, and its run-to-run
spread reaches ~40%. So each op is preceded by one run of `kernel`: code
the program does not share, and that slows down the way the program does
(small-array numpy shifts and XORs, plus SHA3). Its time moves with the
machine alone. Every reported time is scaled by REF_S over the median
kernel time of the five ticks centred on its op, giving "milliseconds at
reference speed". Raw times are kept beside them. Set-up times are scaled
the same way by ticks run inside the set-up interpreter just before and
just after.
"""

from __future__ import annotations

import hashlib
import statistics
from array import array
from time import perf_counter

import numpy as np

# Median of `kernel` on an idle machine at its fast speed (x86_64, Python
# 3.11, numpy 2.4). Only a scale: it sets where normalized and raw agree.
REF_S = 0.0002

_WORDS = np.arange(277, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
_MSG = bytes(4482)


def kernel() -> None:
    acc = np.zeros(300, dtype=np.uint64)
    for k in range(24):
        acc[k % 20:k % 20 + 277] ^= _WORDS << np.uint64(k)
        acc[k % 20 + 1:k % 20 + 278] ^= _WORDS >> np.uint64(63 - k)
    for _ in range(4):
        hashlib.sha3_512(_MSG).digest()


class Clock:
    """Ticks of the reference kernel, one before each timed call."""

    def __init__(self):
        self.ids: list = []
        self.refs = array("d")

    def tick(self, op_id) -> None:
        t0 = perf_counter()
        kernel()
        self.refs.append(perf_counter() - t0)
        self.ids.append(op_id)

    def factors(self) -> list[float]:
        """Per tick: REF_S over the median of the five ticks centred on it."""
        return [REF_S / statistics.median(self.refs[max(0, i - 2):i + 3])
                for i in range(len(self.refs))]
