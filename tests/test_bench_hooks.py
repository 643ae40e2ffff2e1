"""The traced benchmark wraps program functions by name; these checks fail
when a rename or a removed import would break it. perfbench/spans.py is
imported read-only."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from hqc128 import codes, costmodel, kem, params
from hqc128.counters import Counters
from hqc128.params import P, hqc128
from tests.params_ref import altered

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_looked_up_where_it_is_wrapped():
    spans = load_spans()
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _ in spans.TRACED if attr not in owner.__dict__]
    assert missing == []


def test_every_traced_name_is_called_by_one_exchange_over_the_wire():
    # a wrapped name that the program no longer calls yields a metric that
    # reads 0 on working code
    spans = load_spans()
    with spans.Tracer() as tracer:
        pk, sk = kem.keygen(bytes(40))
        sk = kem.deserialize_sk(kem.serialize_sk(sk))
        pk = kem.deserialize_pk(kem.serialize_pk(pk))
        ct, ss = kem.encaps(pk, bytes(range(40)))
        wire = kem.serialize_ct(ct)
        assert kem.decaps(sk, kem.deserialize_ct(wire)) == ss
        tampered = wire[:-1] + bytes([wire[-1] ^ 1])
        with pytest.raises(kem.DecapsulationFailure):
            kem.decaps(sk, kem.deserialize_ct(tampered))
    called = {span[spans.NAME] for span in tracer.spans}
    assert [name for _, _, name in spans.TRACED if name not in called] == []


def test_kept_arguments_are_the_weights_and_the_received_words():
    # perfbench/run.py sums the kept sampler weights into draw_accept_ratio and
    # recomputes the syndromes of each kept rs_decode word: over one exchange,
    # x and y are sampled twice (keygen, deserialize_sk) and e, r1, r2 twice
    # (encaps, the re-encryption in decaps); decaps decodes one 46-byte word
    spans = load_spans()
    with spans.Tracer() as tracer:
        pk, sk = kem.keygen(bytes(40))
        sk = kem.deserialize_sk(kem.serialize_sk(sk))
        ct, ss = kem.encaps(pk, bytes(range(40)))
        assert kem.decaps(sk, ct) == ss
    weights = tracer.kept_args("sampling.sample_fixed_weight", lambda op: True)
    assert sorted(weights) == [66] * 4 + [75] * 6
    words = tracer.kept_args("codes.rs_decode", lambda op: True)
    assert [len(w) for w in words] == [46]


def test_rs_syndromes_takes_and_returns_arrays():
    word = np.frombuffer(codes.rs_encode(bytes(range(P.k)), P), dtype=np.uint8)
    syn = codes.rs_syndromes(word, P)
    assert isinstance(syn, np.ndarray)
    assert syn.shape == (2 * P.delta,)
    assert not syn.any()


def test_profile_accepts_only_the_kem_parameter_set():
    # perfbench/run.py passes hqc128() as profile's third argument
    for phase in costmodel.PHASES:
        passed = costmodel.profile(phase, bytes(40), hqc128())
        default = costmodel.profile(phase, bytes(40))
        assert ([getattr(passed, name) for name in Counters.__slots__]
                == [getattr(default, name) for name in Counters.__slots__])
    with pytest.raises(ValueError):
        costmodel.profile("keygen", bytes(40), altered(w=65))


# The four code functions perfbench/ calls as f(x, P), with their outputs
# pinned: a codeword, its message decoded through three symbol errors, one
# RM block, and the syndromes of a word that is not a codeword.
MSG = bytes(range(16))
CODEWORD = MSG + bytes.fromhex("10a684d3d3f5a80b27a16820111f7d305ae784e917a410ae1cec95591ba6")
CORRUPTED = bytes(c ^ 0x5A if j in (0, 7, 40) else c for j, c in enumerate(CODEWORD))
WORD = bytes(range(3, 49))
BENCH_FACING = [
    (codes.rs_encode, MSG, CODEWORD.hex()),
    (codes.rs_decode, CORRUPTED, MSG.hex()),
    (codes.rm_encode, 0xA5, "3333cccc3333cccccccc3333cccc3333" * 3),
    (codes.rs_syndromes, np.frombuffer(WORD, dtype=np.uint8),
     "82925da6992f35c66f4c55f248f69896e7acc0454bc37a94af91fb2d07bd"),
]


@pytest.mark.parametrize("fn, arg, expected", BENCH_FACING,
                         ids=[fn.__name__ for fn, _, _ in BENCH_FACING])
def test_code_functions_accept_only_the_kem_parameter_set(fn, arg, expected):
    assert kem.P is codes.P is params.P
    assert bytes(fn(arg, hqc128())).hex() == expected
    with pytest.raises(ValueError):
        fn(arg, altered(w=65))
