"""The HQC public-key encryption core and the IND-CCA2 KEM built on it,
for the one parameter set HQC-128, bound once as ``P``.

KeyGen expands one seed into (seed_h, seed_sk); h is a uniform ring element,
(x, y) fixed-weight secrets, and s = x + h*y hides them. Encryption samples
(e, r1, r2) from theta, sends u = r1 + h*r2 and v = mG + s*r2 + e.
Decapsulation decrypts, re-derives theta' = G(m'), re-encrypts, and only
releases K(m', c) when the recomputed (u', v', d') matches the received
ciphertext; all three comparisons go through hmac.compare_digest and always
execute.

Wire formats (normative, byte-exact):
    pk = seed_h (40) || s (2209)                 -> PK_BYTES = 2249
    sk = seed_sk (40) || pk (2249)               -> SK_BYTES = 2289
    ct = u (2209) || v (2209) || d (64)          -> CT_BYTES = 4482
Ring elements serialize bit i into bit (i mod 8) of byte (i div 8); the
padding bits must be zero and are checked on deserialization. Each
serialize_* / deserialize_* adds its wire length to `bytes_copied` once; the
secret key adds its seed to what the embedded public key counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import counters
from .codes import P, code_decode, code_encode
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
    sample_uniform_dense,
)

PK_BYTES = P.seed_bytes + P.n_bytes
SK_BYTES = P.seed_bytes + PK_BYTES
CT_BYTES = 2 * P.n_bytes + 64


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


def _check_seed(seed: bytes) -> None:
    if len(seed) != P.seed_bytes:
        raise ValueError(f"seed must be {P.seed_bytes} bytes")


def _expand_h(seed_h: bytes) -> DensePoly:
    return sample_uniform_dense(Xof(seed_h, DOMAIN_UNIFORM_H), P.n)


def _expand_secrets(seed_sk: bytes) -> tuple[SparsePoly, SparsePoly]:
    xof = Xof(seed_sk, DOMAIN_SECRET_SAMPLING)
    x = sample_fixed_weight(xof, P.w, P.n)
    y = sample_fixed_weight(xof, P.w, P.n)
    return x, y


def keygen(seed: bytes) -> tuple[PublicKey, SecretKey]:
    """Deterministic key generation from one seed."""
    _check_seed(seed)
    expander = Xof(seed, DOMAIN_KEYGEN_EXPAND)
    seed_h = expander.squeeze(P.seed_bytes)
    seed_sk = expander.squeeze(P.seed_bytes)
    h = _expand_h(seed_h)
    x, y = _expand_secrets(seed_sk)
    s = add(dense_from_sparse(x), mul_sparse_dense(y, h))
    pk = PublicKey(seed_h, s, h)
    return pk, SecretKey(seed_sk, x, y, pk)


def pke_encrypt(pk: PublicKey, m: bytes, theta: bytes) -> tuple[DensePoly, DensePoly]:
    """IND-CPA encryption, deterministic in (pk, m, theta)."""
    if len(m) != P.k:
        raise ValueError(f"message must be {P.k} bytes")
    _check_seed(theta)
    xof = Xof(theta, DOMAIN_ENCRYPT_NOISE)
    e = sample_fixed_weight(xof, P.w_e, P.n)
    r1 = sample_fixed_weight(xof, P.w_r, P.n)
    r2 = sample_fixed_weight(xof, P.w_r, P.n)
    u = add(dense_from_sparse(r1), mul_sparse_dense(r2, pk.h))
    v = add(add(code_encode(m), mul_sparse_dense(r2, pk.s)), dense_from_sparse(e))
    return u, v


def pke_decrypt(sk: SecretKey, u: DensePoly, v: DensePoly) -> bytes:
    """C.Decode(v - u*y); wrong beyond the code capability, never raises."""
    return code_decode(add(v, mul_sparse_dense(sk.y, u)))


def encaps(pk: PublicKey, coins: bytes) -> tuple[Ciphertext, bytes]:
    """Encapsulate: returns (ciphertext, shared secret)."""
    _check_seed(coins)
    m = Xof(coins, DOMAIN_MESSAGE).squeeze(P.k)
    theta = hash_g(m, P.seed_bytes)
    u, v = pke_encrypt(pk, m, theta)
    d = hash_h(m)
    ss = hash_k(m, u.to_bytes() + v.to_bytes(), P.ss_bytes)
    return Ciphertext(u, v, d), ss


def decaps(sk: SecretKey, ct: Ciphertext) -> bytes:
    """Decapsulate; raises DecapsulationFailure on any mismatch.

    The three comparisons (u, v, d) all run to completion over the full
    serialized length before the verdict is combined.
    """
    m2 = pke_decrypt(sk, ct.u, ct.v)
    theta2 = hash_g(m2, P.seed_bytes)
    u2, v2 = pke_encrypt(sk.pk, m2, theta2)
    d2 = hash_h(m2)
    c_bytes = ct.u.to_bytes() + ct.v.to_bytes()
    ok_u = ct_equal(c_bytes[:P.n_bytes], u2.to_bytes())
    ok_v = ct_equal(c_bytes[P.n_bytes:], v2.to_bytes())
    ok_d = ct_equal(ct.d, d2)
    if not (ok_u & ok_v & ok_d):
        raise DecapsulationFailure("re-encryption check failed")
    return hash_k(m2, c_bytes, P.ss_bytes)


# ---------------------------------------------------------------------------
# Serialization


def serialize_pk(pk: PublicKey) -> bytes:
    out = pk.seed_h + pk.s.to_bytes()
    counters.add("bytes_copied", len(out))
    return out


def deserialize_pk(data: bytes) -> PublicKey:
    if len(data) != PK_BYTES:
        raise FormatError(f"public key must be {PK_BYTES} bytes")
    counters.add("bytes_copied", len(data))
    seed_h = data[:P.seed_bytes]
    try:
        s = DensePoly.from_bytes(P.n, data[P.seed_bytes:])
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    return PublicKey(seed_h, s, _expand_h(seed_h))


def serialize_sk(sk: SecretKey) -> bytes:
    counters.add("bytes_copied", len(sk.seed_sk))
    return sk.seed_sk + serialize_pk(sk.pk)


def deserialize_sk(data: bytes) -> SecretKey:
    if len(data) != SK_BYTES:
        raise FormatError(f"secret key must be {SK_BYTES} bytes")
    seed_sk = data[:P.seed_bytes]
    pk = deserialize_pk(data[P.seed_bytes:])
    counters.add("bytes_copied", len(seed_sk))
    x, y = _expand_secrets(seed_sk)
    return SecretKey(seed_sk, x, y, pk)


def serialize_ct(ct: Ciphertext) -> bytes:
    out = ct.u.to_bytes() + ct.v.to_bytes() + ct.d
    counters.add("bytes_copied", len(out))
    return out


def deserialize_ct(data: bytes) -> Ciphertext:
    if len(data) != CT_BYTES:
        raise FormatError(f"ciphertext must be {CT_BYTES} bytes")
    counters.add("bytes_copied", len(data))
    nb = P.n_bytes
    try:
        u = DensePoly.from_bytes(P.n, data[:nb])
        v = DensePoly.from_bytes(P.n, data[nb:2 * nb])
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    return Ciphertext(u, v, data[2 * nb:])
