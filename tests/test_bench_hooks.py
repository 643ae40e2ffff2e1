"""The traced benchmark wraps program functions by name; these checks fail
when a rename or a removed import would break it. perfbench/spans.py is
imported read-only."""

import importlib.util
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from hqc128 import codes, costmodel
from hqc128.counters import Counters
from hqc128.params import hqc128

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


def test_rs_syndromes_takes_and_returns_arrays():
    p = hqc128()
    word = np.frombuffer(codes.rs_encode(bytes(range(p.k)), p), dtype=np.uint8)
    syn = codes.rs_syndromes(word, p)
    assert isinstance(syn, np.ndarray)
    assert syn.shape == (2 * p.delta,)
    assert not syn.any()


def test_profile_accepts_only_the_kem_parameter_set():
    # perfbench/run.py passes hqc128() as profile's third argument
    for phase in costmodel.PHASES:
        passed = costmodel.profile(phase, bytes(40), hqc128())
        default = costmodel.profile(phase, bytes(40))
        assert ([getattr(passed, f.name) for f in fields(Counters)]
                == [getattr(default, f.name) for f in fields(Counters)])
    with pytest.raises(ValueError):
        costmodel.profile("keygen", bytes(40), replace(hqc128(), w=65))
