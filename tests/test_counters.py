import pytest

from hqc128 import counters
from hqc128.costmodel import CostProfile
from hqc128.counters import Counters, collecting


def test_nested_blocks_count_into_innermost_record():
    outer, inner = Counters(), Counters()
    with collecting(outer):
        counters.add("gf_muls", 1)
        with collecting(inner):
            counters.add("gf_muls", 10)
            counters.add("rm_blocks_decoded", 2)
        counters.add("gf_muls", 100)
    assert outer == Counters(gf_muls=101)
    assert inner == Counters(gf_muls=10, rm_blocks_decoded=2)


def test_outer_record_resumes_after_exception_in_inner_block():
    outer, inner = Counters(), Counters()
    with collecting(outer):
        with pytest.raises(RuntimeError):
            with collecting(inner):
                counters.add("samples_drawn", 3)
                raise RuntimeError("inner failure")
        counters.add("samples_drawn", 5)
    assert outer == Counters(samples_drawn=5)
    assert inner == Counters(samples_drawn=3)


def test_add_outside_any_block_changes_nothing():
    record = Counters()
    with collecting(record):
        pass
    counters.add("bytes_copied", 7)
    assert record == Counters()
    with collecting(record):
        counters.add("bytes_copied", 7)
    assert record == Counters(bytes_copied=7)


def test_misspelt_counter_name_raises_inside_a_block():
    with collecting(Counters()):
        with pytest.raises(AttributeError):
            counters.add("gf_mul", 1)


def test_record_takes_only_counter_names_and_compares_by_type_and_counts():
    with pytest.raises(TypeError):
        Counters(gf_mul=1)
    with pytest.raises(TypeError):
        CostProfile(phase="keygen", gf_mul=1)
    assert Counters(gf_muls=3) == Counters(gf_muls=3) != Counters(gf_muls=4)
    assert CostProfile(phase="keygen", gf_muls=3).gf_muls == 3
    assert Counters() != CostProfile(phase="keygen")
