from hqc128.params import hqc128


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
    assert len(p._fields) == 9      # n2 and delta are derived, not stored


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
    p = hqc128()._replace(n=17729)
    assert p.words_n == 278
    assert hqc128()._replace(rm_multiplicity=2).n2 == 256
    assert hqc128()._replace(k=18).delta == 14
