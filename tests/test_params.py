from dataclasses import fields, replace

from hqc128.params import hqc128, validate


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
    assert len(fields(p)) == 9      # n2 and delta are derived, not stored


def test_code_fits_inside_ring():
    p = hqc128()
    assert p.n1 * p.n2 == 17664
    assert p.n1 * p.n2 <= p.n


def test_word_counts():
    p = hqc128()
    assert p.words_n == 277
    assert p.n_bytes == 2209


def test_shipped_set_is_valid():
    assert validate(hqc128()) == []


def test_even_n_is_flagged():
    violations = validate(replace(hqc128(), n=17664))
    assert any("odd" in v for v in violations)


def test_overweight_is_flagged():
    violations = validate(replace(hqc128(), w=80))
    assert any(v.startswith("w <=") for v in violations)
    assert validate(replace(hqc128(), w_r=76))
    assert validate(replace(hqc128(), w_e=76))


def test_word_counts_follow_n():
    p = replace(hqc128(), n=17729)
    assert p.words_n == 278
    assert replace(hqc128(), rm_multiplicity=2).n2 == 256
    assert replace(hqc128(), k=18).delta == 14


def test_rs_redundancy_consistency():
    violations = validate(replace(hqc128(), k=17))
    assert any("2*delta" in v for v in violations)


def test_validate_is_pure():
    p = replace(hqc128(), n=17664, w=80)
    assert validate(p) == validate(p)
