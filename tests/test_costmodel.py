from itertools import product

import pytest

from hqc128 import costmodel as cm
from hqc128 import kem
from hqc128.params import hqc128

P = hqc128()
SEED = bytes(range(40))


@pytest.fixture(scope="module")
def profiles():
    return {phase: cm.profile(phase, SEED) for phase in cm.PHASES}


def test_baseline_categories_sum_to_published_totals():
    assert cm.SW_TOTAL == {
        "keygen": 5_609_000,
        "encaps": 13_850_000,
        "decaps": 19_903_000,
    }


def test_profile_keygen_does_no_field_work(profiles):
    assert profiles["keygen"].gf_muls == 0
    assert profiles["keygen"].rm_blocks_decoded == 0


def test_profile_decaps_decodes_one_block_per_symbol(profiles):
    assert profiles["decaps"].rm_blocks_decoded == P.n1 == 46


def test_profile_counts_are_positive_where_expected(profiles):
    for phase in cm.PHASES:
        prof = profiles[phase]
        assert prof.keccak_permutations > 0
        assert prof.ring_word_ops > 0
        assert prof.bytes_copied > 0
        assert prof.samples_drawn > 0
        assert prof.wall_time > 0


def test_profile_ring_word_ops_match_multiplication_count(profiles):
    words_per_coord = 2 * (P.words_n + 1)
    # keygen: one product of weight w; encaps: two of weight w_r;
    # decaps: one of weight w plus the re-encryption's two of weight w_r
    assert profiles["keygen"].ring_word_ops == P.w * words_per_coord
    assert profiles["encaps"].ring_word_ops == 2 * P.w_r * words_per_coord
    assert profiles["decaps"].ring_word_ops == (P.w + 2 * P.w_r) * words_per_coord


# (keccak_permutations, gf_muls, ring_word_ops, bytes_copied, samples_drawn,
# rm_blocks_decoded) at the zero seed, the default of `hqc128 profile`
ZERO_SEED_COUNTS = {
    "keygen": (21, 0, 36_696, 7_233, 132, 0),
    "encaps": (70, 480, 83_400, 16_300, 225, 0),
    "decaps": (69, 1_860, 120_096, 20_661, 225, 46),
}


def test_profile_counts_pinned_at_zero_seed():
    for phase, expect in ZERO_SEED_COUNTS.items():
        prof = cm.profile(phase, bytes(P.seed_bytes))
        got = (prof.keccak_permutations, prof.gf_muls, prof.ring_word_ops,
               prof.bytes_copied, prof.samples_drawn, prof.rm_blocks_decoded)
        assert got == expect, phase


def test_profile_rejects_unknown_phase():
    with pytest.raises(ValueError):
        cm.profile("sign", SEED)


def test_observer_non_interference():
    for i in range(100):
        seed = i.to_bytes(4, "little") + bytes(36)
        pk_plain, sk_plain = kem.keygen(seed)
        cm.profile("keygen", seed)
        pk_again, sk_again = kem.keygen(seed)
        assert kem.serialize_pk(pk_plain) == kem.serialize_pk(pk_again)
        assert kem.serialize_sk(sk_plain) == kem.serialize_sk(sk_again)


def test_all_flags_off_reproduces_published_baselines(profiles):
    for phase in cm.PHASES:
        est = cm.estimate_cycles(cm.AcceleratorConfig.none(), profiles[phase])
        assert est.total == cm.SW_TOTAL[phase]


def test_r_unit_single_multiplication_formula():
    # one product of weight 75: 2 * 75 * 277 cycles plus per-coordinate setup
    prof = cm.CostProfile(
        phase="keygen",
        keccak_permutations=0,
        gf_muls=0,
        ring_word_ops=75 * 2 * (P.words_n + 1),
        bytes_copied=0,
        samples_drawn=0,
        rm_blocks_decoded=0,
        wall_time=0.0,
    )
    consts = cm.CycleConstants(r_unit_coord_overhead_cycles=0)
    est = cm.estimate_cycles(cm.AcceleratorConfig(r_unit=True), prof, consts)
    assert est.categories["arithmetic_r"] == 2 * 75 * 277 == 41_550


def test_accelerated_categories_emit_formula_sheet(profiles):
    est = cm.estimate_cycles(cm.AcceleratorConfig.all(), profiles["decaps"])
    sheet = "\n".join(est.formula_sheet)
    assert "dma_factor" in sheet
    assert "coords" in sheet
    assert "permutations" in sheet
    assert "blocks" in sheet


def test_dma_factor_fit_is_clamped_and_documented():
    raw, clamped = cm.fit_dma_factor()
    assert raw < 0  # the published DMA row bundles non-memory optimizations
    assert clamped == 0.0
    assert cm.CycleConstants().dma_factor == clamped


def test_full_config_improvement_over_both_baselines(profiles):
    for phase in cm.PHASES:
        base = cm.estimate_cycles(cm.AcceleratorConfig.none(), profiles[phase])
        accel = cm.estimate_cycles(cm.AcceleratorConfig.all(), profiles[phase])
        assert cm.speedup_report(base, accel) >= 90.0
        vs_dma_row = 100.0 * (1.0 - accel.total / cm.DMA_SW_OPT_ROW[phase])
        assert vs_dma_row >= 90.0


def test_monotone_over_all_flag_combinations(profiles):
    flags = ("dma", "r_unit", "sampling_unit", "rm_decoder", "gf_insn")
    for phase in cm.PHASES:
        totals = {}
        for bits in product((False, True), repeat=len(flags)):
            cfg = cm.AcceleratorConfig(**dict(zip(flags, bits)))
            totals[bits] = cm.estimate_cycles(cfg, profiles[phase]).total
        for bits, total in totals.items():
            for i in range(len(flags)):
                if not bits[i]:
                    raised = list(bits)
                    raised[i] = True
                    assert totals[tuple(raised)] <= total


def test_speedup_report_examples(profiles):
    est = cm.estimate_cycles(cm.AcceleratorConfig.none(), profiles["keygen"])
    assert cm.speedup_report(est, est) == 0.0
    base = cm.PhaseEstimate("keygen", cm.AcceleratorConfig.none(),
                            {"total": 5_609_000}, [])
    accel = cm.PhaseEstimate("keygen", cm.AcceleratorConfig.all(),
                             {"total": 56_000}, [])
    assert round(cm.speedup_report(base, accel), 1) == 99.0
    assert cm.speedup_report(accel, base) < 0


def test_speedup_report_rejects_phase_mismatch(profiles):
    a = cm.estimate_cycles(cm.AcceleratorConfig.none(), profiles["keygen"])
    b = cm.estimate_cycles(cm.AcceleratorConfig.none(), profiles["encaps"])
    with pytest.raises(ValueError):
        cm.speedup_report(a, b)


def test_top3_categories_match_published_profile(profiles):
    for phase in cm.PHASES:
        top3 = set(profiles[phase].category_ranking()[:3])
        assert top3 == {"shake", "arithmetic_r", "memory"}, phase


def test_reports_render(profiles):
    prof_report = cm.render_profile_report(list(profiles.values()))
    assert "keccak_permutations" in prof_report
    assert "keygen.shake=" in prof_report
    estimates = [
        cm.estimate_cycles(cm.AcceleratorConfig.none(), profiles[ph])
        for ph in cm.PHASES
    ]
    cost_report = cm.render_costmodel_report(cm.AcceleratorConfig.none(), estimates)
    assert "keygen.total=5609000" in cost_report
    assert "formula sheet" in cost_report
