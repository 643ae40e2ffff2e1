import pytest

from hqc128.params import P, ParamSet, check, hqc128
from tests.params_ref import altered


def test_hqc128_constants():
    p = hqc128()
    assert p.n == 17669
    assert p.n1 == 46
    assert p.k == 16
    assert p.delta == 15
    assert p.rm_multiplicity == 3
    assert p.n2 == 384
    assert p.w == 66
    assert p.w_r == 75
    assert p.w_e == 75
    assert p.seed_bytes == 40
    assert p.ss_bytes == 64
    assert len(ParamSet.__slots__) == 9     # n2 and delta are derived, not stored


def test_code_fits_inside_ring():
    p = hqc128()
    assert p.n1 * p.n2 == 17664
    assert p.n1 * p.n2 <= p.n


def test_word_counts():
    p = hqc128()
    assert p.words_n == 277
    assert p.n_bytes == 2209


def test_shipped_set_meets_the_code_invariants():
    p = hqc128()
    assert p.n % 2 == 1                 # X^n - 1 is square-free over F2
    assert (p.n1 - p.k) % 2 == 0        # RS redundancy is 2 * delta
    assert p.k <= p.n1 <= 255           # RS length within GF(2^8)'s bound
    assert max(p.w, p.w_r, p.w_e) <= 75


def test_word_counts_follow_n():
    p = altered(n=17729)
    assert p.words_n == 278
    assert altered(rm_multiplicity=2).n2 == 256
    assert altered(k=18).delta == 14


def test_hqc128_returns_the_one_record():
    assert hqc128() is P
    assert altered() is not P
    for name in ParamSet.__slots__:
        assert getattr(altered(), name) == getattr(P, name)


def test_record_is_read_only():
    with pytest.raises(AttributeError):
        P.n = 1
    with pytest.raises(AttributeError):
        P.extra = 1
    with pytest.raises(AttributeError):
        del P.n
    assert P.n == 17669


def test_constructor_takes_exactly_the_nine_keywords():
    values = {f: getattr(P, f) for f in ParamSet.__slots__}
    with pytest.raises(TypeError):
        ParamSet(**values, extra=1)
    del values["w"]
    with pytest.raises(TypeError):
        ParamSet(**values)


def test_check_accepts_only_p_itself():
    check(P)
    plain = tuple(getattr(P, f) for f in ParamSet.__slots__)
    for other in (plain, altered(), altered(w=65)):
        with pytest.raises(ValueError):
            check(other)
