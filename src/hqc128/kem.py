"""The HQC public-key encryption core and the IND-CCA2 KEM built on it,
for the one parameter set HQC-128, ``params.P``.

KeyGen expands one seed into (seed_h, seed_sk); h is a uniform ring element,
(x, y) fixed-weight secrets, and s = x + h*y hides them. Encryption samples
(e, r1, r2) from theta, sends u = r1 + h*r2 and v = mG + s*r2 + e.
Decapsulation decrypts, re-derives theta' = G(m'), re-encrypts, and only
releases K(m', c) when the recomputed u' || v' || d' matches the received
ciphertext; one `poly_ring.ct_equal` call (OpenSSL's constant-time
CRYPTO_memcmp, through `_hashlib.compare_digest`) compares all of it.

Wire formats (normative, byte-exact):
    pk = seed_h (40) || s (2209)                 -> PK_BYTES = 2249
    sk = seed_sk (40) || pk (2249)               -> SK_BYTES = 2289
    ct = u (2209) || v (2209) || d (64)          -> CT_BYTES = 4482
Ring elements serialize bit i into bit (i mod 8) of byte (i div 8); the
padding bits must be zero and are checked on deserialization. A ring element
is held as those bytes. Each ring result is one poly_ring accumulator, the
product with the other addends XORed in (a dense one by `xor_into`), converted
to bytes once: no ring element becomes a Python int, and no accumulator is
sliced or viewed here. Each serialize_* / deserialize_* adds its wire length
to `bytes_copied` once; the secret key adds its seed to what the embedded
public key counts.
"""

from __future__ import annotations

from . import counters
from .codes import code_decode, code_encode
from .params import P
from .poly_ring import (DensePoly, FormatError, SparsePoly, ct_equal, dense_from_sparse,
                        mul_sparse_dense, xor_into)
from .sampling import (
    DOMAIN_ENCRYPT_NOISE,
    DOMAIN_KEYGEN_EXPAND,
    DOMAIN_MESSAGE,
    DOMAIN_SECRET_SAMPLING,
    DOMAIN_UNIFORM_H,
    Xof,
    draw_bytes,
    hash_g,
    hash_h,
    hash_k,
    sample_fixed_weight,
    sample_uniform_dense,
)

PK_BYTES = P.seed_bytes + P.n_bytes
SK_BYTES = P.seed_bytes + PK_BYTES
CT_BYTES = 2 * P.n_bytes + 64


# What the two fixed-weight draw sites digest at their first squeeze
_SECRET_XOF_BYTES = draw_bytes(P.w, P.w)            # x, y: 792
_NOISE_XOF_BYTES = draw_bytes(P.w_e, P.w_r, P.w_r)  # e, r1, r2: 1,350


class DecapsulationFailure(Exception):
    """The re-encryption check rejected the ciphertext."""


# Plain mutable records: they compare by identity, so compare their wire bytes.
class PublicKey:
    __slots__ = ("seed_h", "s", "h")  # h: regenerated from seed_h; kept to avoid re-expansion

    def __init__(self, seed_h: bytes, s: DensePoly, h: DensePoly):
        self.seed_h, self.s, self.h = seed_h, s, h


class SecretKey:
    __slots__ = ("seed_sk", "y", "pk")  # pk: needed for the re-encryption in decaps

    def __init__(self, seed_sk: bytes, y: SparsePoly, pk: PublicKey):
        self.seed_sk, self.y, self.pk = seed_sk, y, pk


class Ciphertext:
    __slots__ = ("u", "v", "d")

    def __init__(self, u: DensePoly, v: DensePoly, d: bytes):
        self.u, self.v, self.d = u, v, d


def _check_seed(seed: bytes) -> None:
    if len(seed) != P.seed_bytes:
        raise ValueError(f"seed must be {P.seed_bytes} bytes")


def _expand_h(seed_h: bytes) -> DensePoly:
    return sample_uniform_dense(Xof(seed_h, DOMAIN_UNIFORM_H))


def _expand_secrets(seed_sk: bytes) -> tuple[SparsePoly, SparsePoly]:
    xof = Xof(seed_sk, DOMAIN_SECRET_SAMPLING, _SECRET_XOF_BYTES)
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
    s = mul_sparse_dense(y, h)
    s ^= dense_from_sparse(x)
    pk = PublicKey(seed_h, DensePoly.from_words(P.n, s), h)
    return pk, SecretKey(seed_sk, y, pk)


def pke_encrypt(pk: PublicKey, m: bytes, theta: bytes) -> tuple[DensePoly, DensePoly]:
    """IND-CPA encryption, deterministic in (pk, m, theta)."""
    if len(m) != P.k:
        raise ValueError(f"message must be {P.k} bytes")
    _check_seed(theta)
    xof = Xof(theta, DOMAIN_ENCRYPT_NOISE, _NOISE_XOF_BYTES)
    e = sample_fixed_weight(xof, P.w_e, P.n)
    r1 = sample_fixed_weight(xof, P.w_r, P.n)
    r2 = sample_fixed_weight(xof, P.w_r, P.n)
    u = mul_sparse_dense(r2, pk.h)
    u ^= dense_from_sparse(r1)
    v = xor_into(mul_sparse_dense(r2, pk.s), code_encode(m))
    v ^= dense_from_sparse(e)
    return DensePoly.from_words(P.n, u), DensePoly.from_words(P.n, v)


def pke_decrypt(sk: SecretKey, u: DensePoly, v: DensePoly) -> bytes:
    """C.Decode(v - u*y); wrong beyond the code capability, never raises."""
    return code_decode(DensePoly.from_words(P.n, xor_into(mul_sparse_dense(sk.y, u), v)))


def encaps(pk: PublicKey, coins: bytes) -> tuple[Ciphertext, bytes]:
    """Encapsulate: returns (ciphertext, shared secret)."""
    _check_seed(coins)
    m = Xof(coins, DOMAIN_MESSAGE).squeeze(P.k)
    theta = hash_g(m)
    u, v = pke_encrypt(pk, m, theta)
    d = hash_h(m)
    ss = hash_k(m, u.to_bytes() + v.to_bytes())
    return Ciphertext(u, v, d), ss


def decaps(sk: SecretKey, ct: Ciphertext) -> bytes:
    """Decapsulate; raises DecapsulationFailure on any mismatch.

    One comparison runs over the whole serialized ciphertext, u || v || d,
    before the verdict; it compares the held wire bytes.
    """
    m2 = pke_decrypt(sk, ct.u, ct.v)
    theta2 = hash_g(m2)
    u2, v2 = pke_encrypt(sk.pk, m2, theta2)
    d2 = hash_h(m2)
    c = ct.u.to_bytes() + ct.v.to_bytes()
    if not ct_equal(c + ct.d, u2.to_bytes() + v2.to_bytes() + d2):
        raise DecapsulationFailure("re-encryption check failed")
    return hash_k(m2, c)


# ---------------------------------------------------------------------------
# Serialization


def serialize_pk(pk: PublicKey) -> bytes:
    out = pk.seed_h + pk.s.to_bytes()
    counters.add("bytes_copied", len(out))
    return out


def _wire(data: bytes, size: int, what: str) -> bytes:
    """A bytes-like wire object as bytes, taken once: the record holds no view
    into, nor a bytearray shared with, the caller's buffer. A bytes object is
    returned as is. The length is read first, as bytes(n) of an int n would
    be n zero bytes."""
    if len(data) == size:
        data = bytes(data)
    if len(data) != size:
        raise FormatError(f"{what} must be {size} bytes")
    return data


def deserialize_pk(data: bytes) -> PublicKey:
    data = _wire(data, PK_BYTES, "public key")
    counters.add("bytes_copied", len(data))
    seed_h = data[:P.seed_bytes]
    s = DensePoly.from_bytes(P.n, data[P.seed_bytes:])
    return PublicKey(seed_h, s, _expand_h(seed_h))


def serialize_sk(sk: SecretKey) -> bytes:
    counters.add("bytes_copied", len(sk.seed_sk))
    return sk.seed_sk + serialize_pk(sk.pk)


def deserialize_sk(data: bytes) -> SecretKey:
    data = _wire(data, SK_BYTES, "secret key")
    seed_sk = data[:P.seed_bytes]
    pk = deserialize_pk(data[P.seed_bytes:])
    counters.add("bytes_copied", len(seed_sk))
    _, y = _expand_secrets(seed_sk)   # decaps needs only y
    return SecretKey(seed_sk, y, pk)


def serialize_ct(ct: Ciphertext) -> bytes:
    out = ct.u.to_bytes() + ct.v.to_bytes() + ct.d
    counters.add("bytes_copied", len(out))
    return out


def deserialize_ct(data: bytes) -> Ciphertext:
    data = _wire(data, CT_BYTES, "ciphertext")
    counters.add("bytes_copied", len(data))
    nb = P.n_bytes
    u = DensePoly.from_bytes(P.n, data[:nb])
    v = DensePoly.from_bytes(P.n, data[nb:2 * nb])
    return Ciphertext(u, v, data[2 * nb:])
