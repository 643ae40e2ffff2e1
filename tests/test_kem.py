import random

import pytest

from hqc128 import kem
from hqc128.counters import Counters, collecting
from hqc128.params import hqc128
from hqc128.poly_ring import DensePoly, add, dense_from_sparse, mul_sparse_dense
from hqc128.sampling import hash_k

P = hqc128()
RNG = random.Random(300)


def make_keypair(seed=None):
    return kem.keygen(seed or RNG.randbytes(P.seed_bytes))


def test_keygen_deterministic():
    seed = bytes(range(40))
    pk1, sk1 = kem.keygen(seed)
    pk2, sk2 = kem.keygen(seed)
    assert kem.serialize_pk(pk1) == kem.serialize_pk(pk2)
    assert kem.serialize_sk(sk1) == kem.serialize_sk(sk2)


def test_keygen_secret_weights():
    _, sk = make_keypair()
    assert len(kem._expand_secrets(sk.seed_sk)[0].support) == P.w == 66
    assert len(sk.y.support) == P.w == 66


def test_keygen_seed_length_checked():
    with pytest.raises(ValueError):
        kem.keygen(b"short")


def test_reconstruction_identity():
    for _ in range(100):
        pk, sk = make_keypair()
        x = kem._expand_secrets(sk.seed_sk)[0]
        assert dense_from_sparse(x) == add(pk.s, mul_sparse_dense(sk.y, pk.h))


def test_pke_encrypt_deterministic():
    pk, _ = make_keypair()
    m = RNG.randbytes(P.k)
    theta = RNG.randbytes(P.seed_bytes)
    u1, v1 = kem.pke_encrypt(pk, m, theta)
    u2, v2 = kem.pke_encrypt(pk, m, theta)
    assert u1 == u2 and v1 == v2


def test_pke_encrypt_nonzero_u():
    pk, _ = make_keypair()
    for _ in range(1000):
        u, _ = kem.pke_encrypt(pk, RNG.randbytes(P.k), RNG.randbytes(P.seed_bytes))
        assert u.value.bit_count() > 0


def test_pke_roundtrip():
    pk, sk = make_keypair()
    for _ in range(300):
        m = RNG.randbytes(P.k)
        u, v = kem.pke_encrypt(pk, m, RNG.randbytes(P.seed_bytes))
        assert kem.pke_decrypt(sk, u, v) == m


def test_pke_decrypt_noiseless_channel():
    from hqc128.codes import code_encode

    _, sk = make_keypair()
    m = RNG.randbytes(P.k)
    assert kem.pke_decrypt(sk, DensePoly(P.n), code_encode(m)) == m


def test_encaps_decaps_contract():
    pk, sk = make_keypair()
    for _ in range(50):
        ct, ss = kem.encaps(pk, RNG.randbytes(P.seed_bytes))
        assert kem.decaps(sk, ct) == ss


def test_encaps_deterministic():
    pk, _ = make_keypair()
    coins = RNG.randbytes(P.seed_bytes)
    ct1, ss1 = kem.encaps(pk, coins)
    ct2, ss2 = kem.encaps(pk, coins)
    assert ss1 == ss2
    assert kem.serialize_ct(ct1) == kem.serialize_ct(ct2)


def test_distinct_coins_distinct_secrets():
    pk, _ = make_keypair()
    seen = set()
    for _ in range(1000):
        _, ss = kem.encaps(pk, RNG.randbytes(P.seed_bytes))
        assert ss not in seen
        seen.add(ss)


def test_shared_secret_is_k_of_message_and_ciphertext():
    pk, sk = make_keypair()
    ct, ss = kem.encaps(pk, RNG.randbytes(P.seed_bytes))
    m = kem.pke_decrypt(sk, ct.u, ct.v)
    c = ct.u.to_bytes() + ct.v.to_bytes()  # d excluded from the K input
    assert ss == hash_k(m, c, P.ss_bytes)
    assert len(ss) == P.ss_bytes == 64


def test_decaps_rejects_bit_flips_in_each_field():
    pk, sk = make_keypair(bytes(40))
    ct, _ = kem.encaps(pk, bytes(range(40)))
    blob = bytearray(kem.serialize_ct(ct))
    nb = P.n_bytes
    regions = {
        "u": range(0, nb * 8),
        "v": range(nb * 8, 2 * nb * 8),
        "d": range(2 * nb * 8, len(blob) * 8),
    }
    rng = random.Random(301)
    for name, region in regions.items():
        for _ in range(30):
            bit = rng.choice(region)
            tampered = bytearray(blob)
            tampered[bit >> 3] ^= 1 << (bit & 7)
            try:
                parsed = kem.deserialize_ct(bytes(tampered))
            except kem.FormatError:
                continue  # flip landed in the padding bits
            with pytest.raises(kem.DecapsulationFailure):
                kem.decaps(sk, parsed)


def test_decaps_wrong_key_rejects():
    pk, _ = make_keypair()
    _, sk_other = make_keypair()
    ct, _ = kem.encaps(pk, RNG.randbytes(P.seed_bytes))
    with pytest.raises(kem.DecapsulationFailure):
        kem.decaps(sk_other, ct)


def test_decaps_runs_all_three_comparisons(monkeypatch):
    # even with the first comparison already failing, u, v and d are all
    # compared before the verdict
    pk, sk = make_keypair(bytes(40))
    ct, _ = kem.encaps(pk, bytes(range(40)))
    ct.u = DensePoly(ct.u.n, ct.u.value ^ 1)
    calls = []
    real = kem.ct_equal
    monkeypatch.setattr(kem, "ct_equal", lambda a, b: calls.append(len(a)) or real(a, b))
    with pytest.raises(kem.DecapsulationFailure):
        kem.decaps(sk, ct)
    assert calls == [P.n_bytes, P.n_bytes, 64]


# ---------------------------------------------------------------------------
# serialization


def test_wire_sizes():
    assert kem.PK_BYTES == 2249
    assert kem.SK_BYTES == 2289
    assert kem.CT_BYTES == 4482


def test_serialization_roundtrips():
    for _ in range(25):
        pk, sk = make_keypair()
        ct, _ = kem.encaps(pk, RNG.randbytes(P.seed_bytes))
        pk2 = kem.deserialize_pk(kem.serialize_pk(pk))
        assert (pk2.seed_h, pk2.s, pk2.h) == (pk.seed_h, pk.s, pk.h)
        sk2 = kem.deserialize_sk(kem.serialize_sk(sk))
        assert (sk2.seed_sk, sk2.y) == (sk.seed_sk, sk.y)
        assert kem.serialize_pk(sk2.pk) == kem.serialize_pk(sk.pk)
        ct2 = kem.deserialize_ct(kem.serialize_ct(ct))
        assert (ct2.u, ct2.v, ct2.d) == (ct.u, ct.v, ct.d)


def counted_bytes(fn, *args):
    record = Counters()
    with collecting(record):
        out = fn(*args)
    return record.bytes_copied, out


def test_serialization_counts_each_wire_object_once():
    pk, sk = make_keypair(bytes(40))
    ct, _ = kem.encaps(pk, bytes(range(40)))
    for serialize, obj, size in ((kem.serialize_pk, pk, 2249),
                                 (kem.serialize_sk, sk, 2289),
                                 (kem.serialize_ct, ct, 4482)):
        copied, blob = counted_bytes(serialize, obj)
        assert copied == len(blob) == size, serialize.__name__
    # deserializing a key also re-expands it from its seeds, which the XOF
    # counts on its own
    expand_h, _ = counted_bytes(kem._expand_h, pk.seed_h)
    expand_xy, _ = counted_bytes(kem._expand_secrets, sk.seed_sk)
    for deserialize, blob, expansion in (
        (kem.deserialize_pk, kem.serialize_pk(pk), expand_h),
        (kem.deserialize_sk, kem.serialize_sk(sk), expand_h + expand_xy),
        (kem.deserialize_ct, kem.serialize_ct(ct), 0),
    ):
        copied, _ = counted_bytes(deserialize, blob)
        assert copied - expansion == len(blob), deserialize.__name__


def test_deserialize_rejects_wrong_length():
    with pytest.raises(kem.FormatError):
        kem.deserialize_pk(b"\x00" * 2248)
    with pytest.raises(kem.FormatError):
        kem.deserialize_sk(b"\x00" * 2290)
    with pytest.raises(kem.FormatError):
        kem.deserialize_ct(b"\x00" * 100)


def test_deserialize_rejects_corrupt_padding():
    pk, sk = make_keypair(bytes(40))
    ct, _ = kem.encaps(pk, bytes(range(40)))

    blob = bytearray(kem.serialize_pk(pk))
    blob[-1] |= 0x80  # top pad bit of s
    with pytest.raises(kem.FormatError):
        kem.deserialize_pk(bytes(blob))

    blob = bytearray(kem.serialize_ct(ct))
    blob[P.n_bytes - 1] |= 0x80  # pad bits of u
    with pytest.raises(kem.FormatError):
        kem.deserialize_ct(bytes(blob))


def test_deserialized_keys_operate():
    pk, sk = make_keypair()
    pk2 = kem.deserialize_pk(kem.serialize_pk(pk))
    sk2 = kem.deserialize_sk(kem.serialize_sk(sk))
    ct, ss = kem.encaps(pk2, RNG.randbytes(P.seed_bytes))
    assert kem.decaps(sk2, ct) == ss
