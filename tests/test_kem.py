import random

import pytest

from hqc128 import kem
from hqc128.counters import Counters, collecting
from hqc128.params import P
from hqc128.poly_ring import dense_from_sparse, mul_sparse_dense
from hqc128.sampling import DOMAIN_ENCRYPT_NOISE, Xof, hash_k, sample_fixed_weight
from tests.codes_ref import code_encode_ref
from tests.ring_ref import add, as_int, dense, mul_shift_xor
from tests.ring_ref import dense_from_sparse as dense_ref

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
        assert as_int(dense_from_sparse(x)) == as_int(
            add(pk.s, dense(P.n, as_int(mul_sparse_dense(sk.y, pk.h)))))


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
        assert as_int(u).bit_count() > 0


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
    assert kem.pke_decrypt(sk, dense(P.n), dense(P.n, as_int(code_encode(m)))) == m


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
    assert ss == hash_k(m, c)
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


def test_decaps_compares_the_whole_ciphertext(monkeypatch):
    # even with u already differing, the whole ciphertext u || v || d is
    # compared before the verdict
    pk, sk = make_keypair(bytes(40))
    ct, _ = kem.encaps(pk, bytes(range(40)))
    ct.u = dense(ct.u.n, as_int(ct.u) ^ 1)
    calls = []
    real = kem.ct_equal
    monkeypatch.setattr(kem, "ct_equal", lambda a, b: calls.append(len(a)) or real(a, b))
    with pytest.raises(kem.DecapsulationFailure):
        kem.decaps(sk, ct)
    assert calls == [kem.CT_BYTES]


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
    # an int is no wire object, though bytes(size) would be size zero bytes
    for parse, size in ((kem.deserialize_pk, kem.PK_BYTES), (kem.deserialize_sk, kem.SK_BYTES),
                        (kem.deserialize_ct, kem.CT_BYTES)):
        with pytest.raises(TypeError):
            parse(size)


def test_deserialize_rejects_corrupt_padding():
    # n = 17669 leaves 3 pad bits in the last byte of a ring element: 0x20,
    # 0x40 and 0x80; each one alone must be rejected, in every wire object
    pk, sk = make_keypair(bytes(40))
    ct, _ = kem.encaps(pk, bytes(range(40)))
    nb = P.n_bytes
    cases = [
        (kem.deserialize_pk, kem.serialize_pk(pk), kem.PK_BYTES - 1),       # s
        (kem.deserialize_sk, kem.serialize_sk(sk), kem.SK_BYTES - 1),       # s of the pk in sk
        (kem.deserialize_ct, kem.serialize_ct(ct), nb - 1),                 # u
        (kem.deserialize_ct, kem.serialize_ct(ct), 2 * nb - 1),             # v
    ]
    for deserialize, wire, last in cases:
        assert wire[last] >> 5 == 0
        for pad in (0x20, 0x40, 0x80):
            blob = bytearray(wire)
            blob[last] |= pad
            with pytest.raises(kem.FormatError):
                deserialize(bytes(blob))
        deserialize(wire)


def test_deserialized_keys_operate():
    pk, sk = make_keypair()
    pk2 = kem.deserialize_pk(kem.serialize_pk(pk))
    sk2 = kem.deserialize_sk(kem.serialize_sk(sk))
    ct, ss = kem.encaps(pk2, RNG.randbytes(P.seed_bytes))
    assert kem.decaps(sk2, ct) == ss


@pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
def test_parsers_take_bytes_like_input_once(kind):
    # each parser copies its input once, into bytes: the records hold bytes
    # fields, re-serialize to bytes, and keep nothing that aliases the
    # caller's buffer, so a later write to it leaves a parsed ciphertext as
    # it was parsed
    pk, sk = make_keypair(bytes(40))
    ct, ss = kem.encaps(pk, bytes(range(40)))
    wires = [kem.serialize_pk(pk), kem.serialize_sk(sk), kem.serialize_ct(ct)]

    def source(wire):
        return memoryview(bytearray(wire)) if kind is memoryview else kind(wire)

    pk2 = kem.deserialize_pk(source(wires[0]))
    sk2 = kem.deserialize_sk(source(wires[1]))
    buf = bytearray(wires[2])
    ct2 = kem.deserialize_ct(memoryview(buf) if kind is memoryview else kind(buf))
    fields = [pk2.seed_h, pk2.s.data, pk2.h.data, sk2.seed_sk, sk2.pk.seed_h, sk2.pk.s.data,
              ct2.u.data, ct2.v.data, ct2.d]
    assert [type(f) for f in fields] == [bytes] * len(fields)
    outs = [kem.serialize_pk(pk2), kem.serialize_sk(sk2), kem.serialize_ct(ct2)]
    assert [type(out) for out in outs] == [bytes] * 3
    assert outs == wires
    buf[-1] ^= 1
    buf[0] ^= 1
    assert kem.serialize_ct(ct2) == wires[2]
    assert kem.decaps(sk2, ct2) == ss


def test_malformed_ciphertexts_raise_only_format_or_decapsulation_errors():
    # 400 random wire blobs through deserialize_ct and decaps: wrong lengths,
    # right-length noise (its pad bits cleared half the time, so decaps runs),
    # and honest ciphertexts with bytes overwritten at random places
    pk, sk = make_keypair(bytes(40))
    ct, _ = kem.encaps(pk, bytes(range(40)))
    honest = kem.serialize_ct(ct)
    nb = P.n_bytes
    rng = random.Random(302)
    outcomes = {"accepted": 0, "format": 0, "rejected": 0}
    for case in range(400):
        kind = case % 4
        if kind == 0:
            blob = rng.randbytes(rng.randrange(2 * kem.CT_BYTES))
        elif kind in (1, 2):
            blob = bytearray(rng.randbytes(kem.CT_BYTES))
            if kind == 2:
                blob[nb - 1] &= 0x1F
                blob[2 * nb - 1] &= 0x1F
            blob = bytes(blob)
        else:
            blob = bytearray(honest)
            for _ in range(rng.randrange(1, 9)):
                blob[rng.randrange(len(blob))] = rng.randrange(256)
            blob = bytes(blob)
        try:
            kem.decaps(sk, kem.deserialize_ct(blob))
            outcomes["accepted"] += 1
        except kem.FormatError:
            outcomes["format"] += 1
        except kem.DecapsulationFailure:
            outcomes["rejected"] += 1
    assert outcomes["rejected"] >= 150 and outcomes["format"] >= 150


@pytest.mark.parametrize("key, parse, serialize, seed", [
    ("pk", kem.deserialize_pk, kem.serialize_pk, 304),
    ("sk", kem.deserialize_sk, kem.serialize_sk, 305),
])
def test_malformed_keys_raise_only_format_errors(key, parse, serialize, seed):
    # 400 random blobs per key parser: wrong lengths, right-length noise with
    # pad bits set and with them cleared, and honest keys with bytes
    # overwritten at random places; whatever parses re-serializes to itself
    pk, sk = make_keypair(bytes(40))
    honest = serialize({"pk": pk, "sk": sk}[key])
    assert serialize(parse(honest)) == honest
    size = len(honest)
    rng = random.Random(seed)
    wrong_lengths = [n for n in range(2 * size) if n != size]
    outcomes = {kind: {"parsed": 0, "format": 0} for kind in range(4)}
    for case in range(400):
        kind = case % 4
        if kind == 0:
            blob = rng.randbytes(rng.choice(wrong_lengths))
        elif kind in (1, 2):
            blob = bytearray(rng.randbytes(size))
            if kind == 1:
                blob[-1] |= 1 << rng.randrange(P.n % 8, 8)
            else:
                blob[-1] &= (1 << P.n % 8) - 1
            blob = bytes(blob)
        else:
            blob = bytearray(honest)
            for _ in range(rng.randrange(1, 9)):
                blob[rng.randrange(len(blob))] = rng.randrange(256)
            blob = bytes(blob)
        try:
            assert serialize(parse(blob)) == blob
            outcomes[kind]["parsed"] += 1
        except kem.FormatError:
            outcomes[kind]["format"] += 1
    assert outcomes[0] == outcomes[1] == {"parsed": 0, "format": 100}
    assert outcomes[2] == {"parsed": 100, "format": 0}
    assert outcomes[3]["parsed"] >= 90


def test_kem_accumulators_match_the_int_path(monkeypatch):
    # keygen's s, pke_encrypt's u and v, and the noisy word pke_decrypt
    # decodes, each built as one '<u8' accumulator, against the int path:
    # add, the int dense_from_sparse and the shift-XOR product
    decoded = []
    real_decode = kem.code_decode
    monkeypatch.setattr(kem, "code_decode", lambda w: decoded.append(as_int(w)) or real_decode(w))
    rng = random.Random(303)
    for _ in range(200):
        pk, sk = kem.keygen(rng.randbytes(P.seed_bytes))
        x, y = kem._expand_secrets(sk.seed_sk)
        s = add(dense_ref(x), dense(P.n, mul_shift_xor(y, pk.h)))
        assert pk.s.to_bytes() == s.to_bytes()

        m, theta = rng.randbytes(P.k), rng.randbytes(P.seed_bytes)
        u, v = kem.pke_encrypt(pk, m, theta)
        xof = Xof(theta, DOMAIN_ENCRYPT_NOISE)
        e, r1, r2 = (sample_fixed_weight(xof, w, P.n) for w in (P.w_e, P.w_r, P.w_r))
        u_ref = add(dense_ref(r1), dense(P.n, mul_shift_xor(r2, pk.h)))
        v_ref = add(add(dense(P.n, as_int(code_encode_ref(m))),
                        dense(P.n, mul_shift_xor(r2, s))), dense_ref(e))
        assert (u.to_bytes(), v.to_bytes()) == (u_ref.to_bytes(), v_ref.to_bytes())

        assert kem.pke_decrypt(sk, u, v) == m
        noisy = add(v_ref, dense(P.n, mul_shift_xor(sk.y, u_ref)))
        assert decoded.pop() == as_int(noisy)
