"""The HQC public-key encryption core and the IND-CCA2 KEM built on it.

KeyGen expands one seed into (seed_h, seed_sk); h is a uniform ring element,
(x, y) fixed-weight secrets, and s = x + h*y hides them. Encryption samples
(e, r1, r2) from theta, sends u = r1 + h*r2 and v = mG + s*r2 + e.
Decapsulation decrypts, re-derives theta' = G(m'), re-encrypts, and only
releases K(m', c) when the recomputed (u', v', d') matches the received
ciphertext; all three comparisons go through hmac.compare_digest and always
execute.

Wire formats (normative, byte-exact):
    pk = seed_h (40) || s (2209)                 -> 2249 bytes
    sk = seed_sk (40) || pk (2249)               -> 2289 bytes
    ct = u (2209) || v (2209) || d (64)          -> 4482 bytes
Ring elements serialize bit i into bit (i mod 8) of byte (i div 8); the
padding bits must be zero and are checked on deserialization. Each
serialize_* / deserialize_* adds its wire length to `bytes_copied` once; the
secret key adds its seed to what the embedded public key counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import counters
from .codes import code_decode, code_encode
from .params import ParamSet, hqc128
from .poly_ring import DensePoly, SparsePoly, add, ct_equal, dense_from_sparse, mul_sparse_dense
from .sampling import (
    DOMAIN_ENCRYPT_NOISE,
    DOMAIN_KEYGEN_EXPAND,
    DOMAIN_MESSAGE,
    DOMAIN_SECRET_SAMPLING,
    DOMAIN_UNIFORM_H,
    Xof,
    hash_g,
    hash_h,
    hash_k,
    sample_fixed_weight,
    sample_message,
    sample_uniform_dense,
)


class FormatError(ValueError):
    """Malformed serialized object (bad length or nonzero padding bits)."""


class DecapsulationFailure(Exception):
    """The re-encryption check rejected the ciphertext."""


@dataclass
class PublicKey:
    seed_h: bytes
    s: DensePoly
    h: DensePoly        # regenerated from seed_h; kept to avoid re-expansion


@dataclass
class SecretKey:
    seed_sk: bytes
    x: SparsePoly
    y: SparsePoly
    pk: PublicKey       # needed for the re-encryption in decaps


@dataclass
class Ciphertext:
    u: DensePoly
    v: DensePoly
    d: bytes


def _check_seed(seed: bytes, p: ParamSet) -> None:
    if len(seed) != p.seed_bytes:
        raise ValueError(f"seed must be {p.seed_bytes} bytes")


def _expand_h(seed_h: bytes, p: ParamSet) -> DensePoly:
    return sample_uniform_dense(Xof(seed_h, DOMAIN_UNIFORM_H), p.n)


def _expand_secrets(seed_sk: bytes, p: ParamSet) -> tuple[SparsePoly, SparsePoly]:
    xof = Xof(seed_sk, DOMAIN_SECRET_SAMPLING)
    x = sample_fixed_weight(xof, p.w, p.n)
    y = sample_fixed_weight(xof, p.w, p.n)
    return x, y


def keygen(seed: bytes, p: ParamSet | None = None) -> tuple[PublicKey, SecretKey]:
    """Deterministic key generation from one seed."""
    p = p or hqc128()
    _check_seed(seed, p)
    expander = Xof(seed, DOMAIN_KEYGEN_EXPAND)
    seed_h = expander.squeeze(p.seed_bytes)
    seed_sk = expander.squeeze(p.seed_bytes)
    h = _expand_h(seed_h, p)
    x, y = _expand_secrets(seed_sk, p)
    s = add(dense_from_sparse(x), mul_sparse_dense(y, h))
    pk = PublicKey(seed_h, s, h)
    return pk, SecretKey(seed_sk, x, y, pk)


def pke_encrypt(pk: PublicKey, m: bytes, theta: bytes,
                p: ParamSet | None = None) -> tuple[DensePoly, DensePoly]:
    """IND-CPA encryption, deterministic in (pk, m, theta)."""
    p = p or hqc128()
    if len(m) != p.k:
        raise ValueError(f"message must be {p.k} bytes")
    _check_seed(theta, p)
    xof = Xof(theta, DOMAIN_ENCRYPT_NOISE)
    e = sample_fixed_weight(xof, p.w_e, p.n)
    r1 = sample_fixed_weight(xof, p.w_r, p.n)
    r2 = sample_fixed_weight(xof, p.w_r, p.n)
    u = add(dense_from_sparse(r1), mul_sparse_dense(r2, pk.h))
    v = add(add(code_encode(m, p), mul_sparse_dense(r2, pk.s)), dense_from_sparse(e))
    return u, v


def pke_decrypt(sk: SecretKey, u: DensePoly, v: DensePoly,
                p: ParamSet | None = None) -> bytes:
    """C.Decode(v - u*y); wrong beyond the code capability, never raises."""
    p = p or hqc128()
    return code_decode(add(v, mul_sparse_dense(sk.y, u)), p)


def encaps(pk: PublicKey, coins: bytes,
           p: ParamSet | None = None) -> tuple[Ciphertext, bytes]:
    """Encapsulate: returns (ciphertext, shared secret)."""
    p = p or hqc128()
    _check_seed(coins, p)
    m = sample_message(Xof(coins, DOMAIN_MESSAGE), p.k)
    theta = hash_g(m, p.seed_bytes)
    u, v = pke_encrypt(pk, m, theta, p)
    d = hash_h(m)
    ss = hash_k(m, u.to_bytes() + v.to_bytes(), p.ss_bytes)
    return Ciphertext(u, v, d), ss


def decaps(sk: SecretKey, ct: Ciphertext, p: ParamSet | None = None) -> bytes:
    """Decapsulate; raises DecapsulationFailure on any mismatch.

    The three comparisons (u, v, d) all run to completion over the full
    serialized length before the verdict is combined.
    """
    p = p or hqc128()
    m2 = pke_decrypt(sk, ct.u, ct.v, p)
    theta2 = hash_g(m2, p.seed_bytes)
    u2, v2 = pke_encrypt(sk.pk, m2, theta2, p)
    d2 = hash_h(m2)
    c_bytes = ct.u.to_bytes() + ct.v.to_bytes()
    ok_u = ct_equal(c_bytes[:p.n_bytes], u2.to_bytes())
    ok_v = ct_equal(c_bytes[p.n_bytes:], v2.to_bytes())
    ok_d = ct_equal(ct.d, d2)
    if not (ok_u & ok_v & ok_d):
        raise DecapsulationFailure("re-encryption check failed")
    return hash_k(m2, c_bytes, p.ss_bytes)


# ---------------------------------------------------------------------------
# Serialization


def pk_size(p: ParamSet) -> int:
    return p.seed_bytes + p.n_bytes


def sk_size(p: ParamSet) -> int:
    return p.seed_bytes + pk_size(p)


def ct_size(p: ParamSet) -> int:
    return 2 * p.n_bytes + 64


def serialize_pk(pk: PublicKey) -> bytes:
    out = pk.seed_h + pk.s.to_bytes()
    counters.add("bytes_copied", len(out))
    return out


def deserialize_pk(data: bytes, p: ParamSet | None = None) -> PublicKey:
    p = p or hqc128()
    if len(data) != pk_size(p):
        raise FormatError(f"public key must be {pk_size(p)} bytes")
    counters.add("bytes_copied", len(data))
    seed_h = data[:p.seed_bytes]
    try:
        s = DensePoly.from_bytes(p.n, data[p.seed_bytes:])
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    return PublicKey(seed_h, s, _expand_h(seed_h, p))


def serialize_sk(sk: SecretKey) -> bytes:
    counters.add("bytes_copied", len(sk.seed_sk))
    return sk.seed_sk + serialize_pk(sk.pk)


def deserialize_sk(data: bytes, p: ParamSet | None = None) -> SecretKey:
    p = p or hqc128()
    if len(data) != sk_size(p):
        raise FormatError(f"secret key must be {sk_size(p)} bytes")
    seed_sk = data[:p.seed_bytes]
    pk = deserialize_pk(data[p.seed_bytes:], p)
    counters.add("bytes_copied", len(seed_sk))
    x, y = _expand_secrets(seed_sk, p)
    return SecretKey(seed_sk, x, y, pk)


def serialize_ct(ct: Ciphertext) -> bytes:
    out = ct.u.to_bytes() + ct.v.to_bytes() + ct.d
    counters.add("bytes_copied", len(out))
    return out


def deserialize_ct(data: bytes, p: ParamSet | None = None) -> Ciphertext:
    p = p or hqc128()
    if len(data) != ct_size(p):
        raise FormatError(f"ciphertext must be {ct_size(p)} bytes")
    counters.add("bytes_copied", len(data))
    nb = p.n_bytes
    try:
        u = DensePoly.from_bytes(p.n, data[:nb])
        v = DensePoly.from_bytes(p.n, data[nb:2 * nb])
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    return Ciphertext(u, v, data[2 * nb:])
