"""The concatenated code: Reed-Solomon [n1, k, delta] over GF(2^8) outside,
duplicated first-order Reed-Muller RM(1,7) inside.

Conventions, fixed here and pinned by the exhaustive roundtrip tests:

* RS codewords list the k message symbols first, parity last. Symbol j is
  the coefficient of X^j, so the syndromes are S_i = sum_j c_j * alpha^(i*j)
  for i = 1..2*delta, and parity is m(X) * X^-k mod g(X) placed at the top
  coefficients (making the whole word a multiple of g).
* An RM symbol encodes its affine (constant) term in bit 0 and the seven
  coordinate coefficients in bits 1..7; codeword position j is evaluated at
  the point whose coordinates are the binary digits of j, LSB first. The
  peak search inverts exactly this map.

Decoding an RM block is maximum likelihood: fold the duplicated copies into
per-position counts, Walsh-Hadamard transform, take the largest magnitude.
The RS decoder is bounded-distance (syndromes, Berlekamp-Massey with masked
updates, exhaustive root scan over all 255 nonzero field elements, Forney
magnitudes); beyond delta symbol errors its output is unspecified and the
KEM's re-encryption check is the failure detector.
"""

from __future__ import annotations

import numpy as np

from . import counters
from .gf256 import gf_inverse, gf_inverse_vec, gf_mul, gf_mul_vec, gf_pow_alpha
from .params import ParamSet, hqc128
from .poly_ring import DensePoly


# ---------------------------------------------------------------------------
# Precomputed public tables, one set per (n1, k, delta)


class _RSTables:
    def __init__(self, n1: int, k: int, delta: int):
        t = 2 * delta
        # g(X) = prod_{i=1..2 delta} (X - alpha^i), monic of degree 2 delta
        g = [1]
        for i in range(1, t + 1):
            root = gf_pow_alpha(i)
            nxt = [0] * (len(g) + 1)
            for j, c in enumerate(g):
                nxt[j] ^= gf_mul(c, root)   # c * root * X^j
                nxt[j + 1] ^= c             # c * X^(j+1)
            g = nxt
        assert g[-1] == 1
        self._g_low = g[:-1]                              # g_0 .. g_{t-1}
        self.gen_low = np.array(self._g_low, dtype=np.uint8)

        # X^-1 mod g = g0^-1 * (X^(t-1) + g_{t-1} X^(t-2) + ... + g_1)
        g0_inv = gf_inverse(g[0])
        xinv = [gf_mul(g0_inv, g[j + 1]) for j in range(t - 1)] + [g0_inv]
        xkinv = [1] + [0] * (t - 1)
        for _ in range(k):
            xkinv = self._mul_mod_g(xkinv, xinv)
        # parity_rows[m] = X^(m-k) mod g; parity(X) = sum_m msg[m] * rows[m]
        rows = []
        acc = xkinv
        for _ in range(k):
            rows.append(acc)
            acc = self._mul_by_x_mod_g(acc)
        self.parity_rows = np.array(rows, dtype=np.uint8)  # (k, 2 delta)

        # syndrome powers alpha^((i+1) * j), i in [0, 2 delta), j in [0, n1)
        self.synd_pow = np.array(
            [[gf_pow_alpha((i + 1) * j) for j in range(n1)] for i in range(t)],
            dtype=np.uint8,
        )
        # evaluation powers alpha^(i * u), i in [0, 2 delta), u in [0, 255);
        # rows [0, delta] evaluate the locator, all rows evaluate omega
        self.eval_pow = np.array(
            [[gf_pow_alpha(i * u) for u in range(255)] for i in range(t)],
            dtype=np.uint8,
        )
        # scatter indices for the product S(x) * sigma(x) truncated mod x^t
        i_idx, j_idx = np.meshgrid(np.arange(t), np.arange(delta + 1), indexing="ij")
        self.conv_idx = i_idx + j_idx
        self.conv_mask = self.conv_idx < t

    def _mul_mod_g(self, a: list[int], b: list[int]) -> list[int]:
        t = len(self._g_low)
        conv = [0] * (2 * t - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                conv[i + j] ^= gf_mul(ai, bj)
        for d in range(2 * t - 2, t - 1, -1):
            c = conv[d]
            if c:
                conv[d] = 0
                for j in range(t):
                    conv[d - t + j] ^= gf_mul(c, self._g_low[j])
        return conv[:t]

    def _mul_by_x_mod_g(self, a: list[int]) -> list[int]:
        t = len(a)
        out = [0] + a[:-1]
        top = a[-1]
        for j in range(t):
            out[j] ^= gf_mul(top, self._g_low[j])
        return out


_RS_CACHE: dict[tuple[int, int, int], _RSTables] = {}


def _rs_tables(p: ParamSet) -> _RSTables:
    key = (p.n1, p.k, p.delta)
    tab = _RS_CACHE.get(key)
    if tab is None:
        tab = _RSTables(*key)
        _RS_CACHE[key] = tab
    return tab


# Warm the HQC-128 tables at import so table construction never lands in a
# profiled region.
_rs_tables(hqc128())


def _rm_rows() -> np.ndarray:
    """(8, 2) uint64: 128-bit masks for the constant and the 7 coordinates."""
    j = np.arange(128)
    rows = np.empty((8, 128), dtype=np.uint8)
    rows[0] = 1
    for t in range(1, 8):
        rows[t] = (j >> (t - 1)) & 1
    packed = np.packbits(rows, axis=1, bitorder="little")
    return packed.view("<u8").astype(np.uint64)


_RM_ROWS = _rm_rows()


# ---------------------------------------------------------------------------
# Reed-Solomon layer


def rs_encode(msg: bytes, p: ParamSet) -> bytes:
    """Systematic codeword: message symbols, then 2*delta parity symbols."""
    if len(msg) != p.k:
        raise ValueError(f"message must be {p.k} bytes")
    tab = _rs_tables(p)
    m = np.frombuffer(msg, dtype=np.uint8)
    prods = gf_mul_vec(m[:, None], tab.parity_rows)
    parity = np.bitwise_xor.reduce(prods, axis=0)
    return msg + parity.tobytes()


def rs_syndromes(cw: np.ndarray, p: ParamSet) -> np.ndarray:
    """S_i = sum_j cw[j] alpha^((i+1) j) for i in [0, 2 delta)."""
    tab = _rs_tables(p)
    prods = gf_mul_vec(cw[None, :], tab.synd_pow)
    return np.bitwise_xor.reduce(prods, axis=1)


def _select(mask: int, a, b):
    """a if mask == -1 else b, for ints or equal-length int lists."""
    if isinstance(a, list):
        return [(x & mask) | (y & ~mask) for x, y in zip(a, b)]
    return (a & mask) | (b & ~mask)


def _berlekamp_massey(syn: list[int], delta: int) -> list[int]:
    """Error-locator polynomial from 2*delta syndromes.

    Fixed iteration count with masked updates: the control decisions are
    folded into integer masks rather than branches on syndrome data.
    """
    sigma = [1] + [0] * (delta + 1)
    x_sigma_prev = [0, 1] + [0] * delta
    deg_sigma = 0
    deg_sigma_prev = 0
    last_update = -1
    last_disc = 1
    for mu in range(2 * delta):
        d = syn[mu]
        for i in range(min(mu, delta)):
            d ^= gf_mul(sigma[i + 1], syn[mu - i - 1])
        sigma_snapshot = list(sigma)
        deg_snapshot = deg_sigma
        dd = gf_mul(d, gf_inverse(last_disc))
        for i in range(min(mu + 1, delta)):
            sigma[i + 1] ^= gf_mul(dd, x_sigma_prev[i + 1])
        candidate_deg = (mu - last_update) + deg_sigma_prev
        swap = -int(d != 0 and candidate_deg > deg_sigma)
        deg_sigma = _select(swap, candidate_deg, deg_sigma)
        last_update = _select(swap, mu, last_update)
        last_disc = _select(swap, d, last_disc)
        x_sigma_prev = [0] + _select(swap, sigma_snapshot, x_sigma_prev)[:-1]
        deg_sigma_prev = _select(swap, deg_snapshot, deg_sigma_prev)
    return sigma[:delta + 1]


def rs_decode(received: bytes, p: ParamSet) -> bytes:
    """Correct up to delta symbol errors; more than delta is unspecified."""
    if len(received) != p.n1:
        raise ValueError(f"codeword must be {p.n1} bytes")
    tab = _rs_tables(p)
    cw = np.frombuffer(received, dtype=np.uint8).copy()
    syn = rs_syndromes(cw, p)
    if not syn.any():
        return cw[:p.k].tobytes()
    syn_list = [int(s) for s in syn]

    locator = _berlekamp_massey(syn_list, p.delta)
    loc_arr = np.array(locator, dtype=np.uint8)

    # Exhaustive scan of all 255 nonzero points alpha^u; a root alpha^u
    # means an error at coefficient (255 - u) mod 255.
    values = np.bitwise_xor.reduce(
        gf_mul_vec(loc_arr[:, None], tab.eval_pow[:p.delta + 1]), axis=0
    )
    root_exps = np.nonzero(values == 0)[0]
    positions = (255 - root_exps) % 255
    keep = positions < p.n1
    root_exps = root_exps[keep]
    positions = positions[keep]
    if len(root_exps) == 0:
        return cw[:p.k].tobytes()

    # Forney: omega = S * sigma mod X^(2 delta); the magnitude at inverse
    # root X^-1 = alpha^u is omega(alpha^u) / sigma'(alpha^u), with the
    # derivative keeping only the odd locator coefficients.
    t = 2 * p.delta
    prods = gf_mul_vec(syn[:, None], loc_arr[None, :])
    omega = np.zeros(t, dtype=np.uint8)
    np.bitwise_xor.at(omega, tab.conv_idx[tab.conv_mask], prods[tab.conv_mask])

    num = np.bitwise_xor.reduce(
        gf_mul_vec(omega[:, None], tab.eval_pow[:, root_exps]), axis=0
    )
    odd = np.arange(1, p.delta + 1, 2)
    den = np.bitwise_xor.reduce(
        gf_mul_vec(loc_arr[odd, None], tab.eval_pow[odd - 1][:, root_exps]), axis=0
    )
    solvable = den != 0  # zero derivative only beyond the decoding radius
    safe_den = np.where(solvable, den, 1).astype(np.uint8)
    magnitudes = gf_mul_vec(num, gf_inverse_vec(safe_den))
    cw[positions[solvable]] ^= magnitudes[solvable]
    return cw[:p.k].tobytes()


# ---------------------------------------------------------------------------
# Reed-Muller layer


def _rm_encode_batch(symbols: np.ndarray) -> np.ndarray:
    """(B,) uint8 symbols -> (B, 2) uint64 single-copy codewords.

    Branch-free: each of the 8 mask rows is selected by multiplying with the
    corresponding symbol bit, never by indexing with symbol data.
    """
    out = np.zeros((len(symbols), 2), dtype=np.uint64)
    for t in range(8):
        bit = ((symbols >> t) & 1).astype(np.uint64)
        out ^= _RM_ROWS[t][None, :] * bit[:, None]
    return out


def rm_encode(symbol: int, p: ParamSet) -> bytes:
    """Duplicated RM(1,7) block: multiplicity copies of the 128-bit word."""
    if not 0 <= symbol <= 0xFF:
        raise ValueError("symbol must be one byte")
    single = _rm_encode_batch(np.array([symbol], dtype=np.uint8))[0]
    return single.astype("<u8").tobytes() * p.rm_multiplicity


def _block_bits(block: bytes, p: ParamSet) -> np.ndarray:
    if len(block) * 8 != p.n2:
        raise ValueError(f"block must be {p.n2} bits")
    bits = np.unpackbits(np.frombuffer(block, dtype=np.uint8), bitorder="little")
    return bits.reshape(p.rm_multiplicity, 128)


def rm_fold(block: bytes, p: ParamSet) -> np.ndarray:
    """Per-position soft value: multiplicity - 2 * (set copies)."""
    bits = _block_bits(block, p)
    return (p.rm_multiplicity - 2 * bits.sum(axis=0)).astype(np.int32)


def hadamard(v: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform: 7 butterfly stages (a, b) -> (a+b, a-b)."""
    if v.shape[-1] != 128:
        raise ValueError("soft vectors have 128 entries")
    x = v.astype(np.int32).reshape(-1, 128).copy()
    h = 1
    while h < 128:
        x = x.reshape(-1, 128 // (2 * h), 2, h)
        a = x[:, :, 0, :].copy()
        b = x[:, :, 1, :]
        x[:, :, 0, :] = a + b
        x[:, :, 1, :] = a - b
        x = x.reshape(-1, 128)
        h *= 2
    return x.reshape(v.shape)


def peak_search(t: np.ndarray) -> int:
    """Largest-magnitude index; ties go to the lowest index.

    The peak index gives the seven coordinate coefficients, a negative peak
    sets the constant bit.
    """
    magnitudes = np.abs(t)
    idx = int(np.argmax(magnitudes))
    return (idx << 1) | int(t[idx] < 0)


def rm_decode(block: bytes, p: ParamSet) -> int:
    """ML decoding of one duplicated block."""
    counters.add_rm_blocks(1)
    return peak_search(hadamard(rm_fold(block, p)))


# ---------------------------------------------------------------------------
# Concatenated code


def code_encode(m: bytes, p: ParamSet) -> DensePoly:
    """mG: RS-encode, RM-encode each symbol, pack blocks into the low
    n1*n2 bits of a ring element."""
    symbols = np.frombuffer(rs_encode(m, p), dtype=np.uint8)
    single = _rm_encode_batch(symbols)                      # (n1, 2)
    blocks = np.broadcast_to(
        single[:, None, :], (p.n1, p.rm_multiplicity, 2)
    ).reshape(-1)
    value = int.from_bytes(blocks.astype("<u8").tobytes(), "little")
    counters.add_bytes_copied(len(blocks) * 8)
    return DensePoly(p.n, value)


def code_decode(noisy: DensePoly, p: ParamSet) -> bytes:
    """Slice bits [0, n1*n2) into blocks, ML-decode each, RS-decode.

    Bits at positions >= n1*n2 are ignored. Uncorrectable noise yields a
    wrong message silently.
    """
    nbytes = p.n1 * p.n2 // 8
    raw = (noisy.value & ((1 << 8 * nbytes) - 1)).to_bytes(nbytes, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    bits = bits.reshape(p.n1, p.rm_multiplicity, 128)
    soft = (p.rm_multiplicity - 2 * bits.sum(axis=1)).astype(np.int32)
    transformed = hadamard(soft)
    idx = np.argmax(np.abs(transformed), axis=1)
    peaks = transformed[np.arange(p.n1), idx]
    symbols = ((idx.astype(np.uint8) << 1) | (peaks < 0)).astype(np.uint8)
    counters.add_rm_blocks(p.n1)
    return rs_decode(symbols.tobytes(), p)
