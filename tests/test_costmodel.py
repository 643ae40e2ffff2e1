import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from hqc128 import costmodel as cm
from hqc128 import kem
from hqc128.params import P

SEED = bytes(range(40))
ROOT = Path(__file__).resolve().parents[1]


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, cwd=ROOT, env=env)


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
# rm_blocks_decoded) at the zero seed, the default of `hqc128 profile`.
# Decaps gf_muls is the fixed RS decoder schedule (4,956, see
# codes.rs_decode) plus the re-encryption's rs_encode (k * 2 delta = 480).
# bytes_copied counts each buffer once: keygen's XOF input and output only;
# encaps and decaps add the hash inputs and the codeword mG (no wire object).
ZERO_SEED_COUNTS = {
    "keygen": (21, 0, 36_696, 2_808, 132, 0),
    "encaps": (70, 480, 83_400, 7_450, 225, 0),
    "decaps": (69, 5_436, 120_096, 7_393, 225, 46),
}


def test_profile_counts_pinned_at_zero_seed():
    for phase, expect in ZERO_SEED_COUNTS.items():
        prof = cm.profile(phase, bytes(P.seed_bytes))
        got = (prof.keccak_permutations, prof.gf_muls, prof.ring_word_ops,
               prof.bytes_copied, prof.samples_drawn, prof.rm_blocks_decoded)
        assert got == expect, phase


def test_unit_weights_reproduce_anchor_cells_at_calibration_seed(profiles):
    assert SEED == cm.CALIBRATION_SEED
    for cat, row in cm.CATEGORIES.items():
        attributed = profiles[row.anchor].attributed_cycles()[cat]
        assert abs(attributed - cm.SW_BASELINE[row.anchor][row.driven]) <= 1, cat


def test_importing_costmodel_runs_no_kem_operation():
    # the weights are calibrated on first use, not at import
    code = (
        "import hqc128.kem as kem\n"
        "calls = []\n"
        "for name in ('keygen', 'encaps', 'decaps'):\n"
        "    def spy(*a, _real=getattr(kem, name), _name=name, **k):\n"
        "        calls.append(_name)\n"
        "        return _real(*a, **k)\n"
        "    setattr(kem, name, spy)\n"
        "import hqc128.costmodel as cm\n"
        "at_import = len(calls)\n"
        "cm.unit_weights()\n"
        "print(at_import, sorted(set(calls)))\n"
    )
    res = run_python("-c", code)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split(None, 1) == ["0", "['decaps', 'encaps', 'keygen']\n"]


def test_profile_rejects_unknown_phase():
    with pytest.raises(ValueError):
        cm.profile("sign", SEED)


def test_estimate_cycles_rejects_unknown_phase():
    with pytest.raises(ValueError):
        cm.estimate_cycles(cm.AcceleratorConfig.none(), cm.CostProfile(phase="sign"))


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


# estimate_cycles(...).total per (keygen, encaps, decaps) at the zero seed:
# the software baseline, each single unit, and every unit together.
ZERO_SEED_ABLATION_TOTALS = {
    "none": (5_609_000, 13_850_000, 19_903_000),
    "dma": (3_538_000, 8_782_000, 12_728_000),
    "r_unit": (4_105_696, 10_485_400, 15_034_096),
    "sampling_unit": (3_675_818, 8_693_630, 14_258_556),
    "rm_decoder": (5_609_000, 13_850_000, 18_563_400),
    "gf_insn": (5_609_000, 13_831_920, 19_762_744),
    "all": (101_514, 242_950, 734_796),
}


def test_ablation_totals_pinned_at_zero_seed():
    profs = {phase: cm.profile(phase, bytes(P.seed_bytes)) for phase in cm.PHASES}
    for name, expect in ZERO_SEED_ABLATION_TOTALS.items():
        if name in ("none", "all"):
            cfg = getattr(cm.AcceleratorConfig, name)()
        else:
            cfg = cm.AcceleratorConfig(**{name: True})
        got = tuple(cm.estimate_cycles(cfg, profs[phase]).total for phase in cm.PHASES)
        assert got == expect, name


def test_costmodel_report_prints_the_same_ablation_under_every_flag_set():
    profs = [cm.profile(phase, bytes(P.seed_bytes)) for phase in cm.PHASES]
    flags = list(cm.AcceleratorConfig._fields)
    blocks = set()
    for bits in product((False, True), repeat=len(flags)):
        lines = cm.render_costmodel_report(
            cm.AcceleratorConfig(**dict(zip(flags, bits))), profs).splitlines()
        start = lines.index("accelerator ablation (estimate, improvement vs software reference):")
        blocks.add(tuple(lines[start:lines.index("formula sheet:")]))
    [block] = blocks
    assert block[1].split() == ["configuration", *cm.PHASES] and block[-1] == ""
    labels = {"none": "software baseline", "all": "all units"}
    rows = block[3:-1]
    assert len(rows) == len(ZERO_SEED_ABLATION_TOTALS)
    for row, (name, totals) in zip(rows, ZERO_SEED_ABLATION_TOTALS.items()):
        assert row[:20].rstrip() == labels.get(name, "+ " + name.replace("_", "-"))
        assert row[20:].split() == [
            cell for total, phase in zip(totals, cm.PHASES)
            for cell in (f"{round(total / 1000)}k",
                         f"{cm.improvement(total, cm.SW_TOTAL[phase]):.1f}%")], name


def test_r_unit_single_multiplication_formula():
    # one product of weight 75: 2 cycles per word plus 2 of per-coordinate setup
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
    est = cm.estimate_cycles(cm.AcceleratorConfig(r_unit=True), prof)
    assert est.categories["arithmetic_r"] == 75 * (2 * 277 + 2) == 41_700


def test_accelerated_categories_emit_formula_sheet(profiles):
    est = cm.estimate_cycles(cm.AcceleratorConfig.all(), profiles["decaps"])
    sheet = "\n".join(est.formula_sheet)
    assert "dma_factor" in sheet
    assert "coords" in sheet
    assert "permutations" in sheet
    assert "blocks" in sheet


def test_dma_factor_fit_is_clamped_and_documented(profiles):
    raw, clamped = cm.fit_dma_factor()
    assert raw < 0  # the published DMA row bundles non-memory optimizations
    assert clamped == 0.0
    est = cm.estimate_cycles(cm.AcceleratorConfig(dma=True), profiles["decaps"])
    assert est.categories["memory"] == 0.0


def test_full_config_improvement_over_both_baselines(profiles):
    for phase in cm.PHASES:
        base = cm.estimate_cycles(cm.AcceleratorConfig.none(), profiles[phase])
        accel = cm.estimate_cycles(cm.AcceleratorConfig.all(), profiles[phase])
        assert cm.improvement(accel.total, base.total) >= 90.0
        vs_dma_row = 100.0 * (1.0 - accel.total / cm.DMA_SW_OPT_ROW[phase])
        assert vs_dma_row >= 90.0


def test_monotone_over_all_flag_combinations(profiles):
    flags = list(cm.AcceleratorConfig._fields)
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
    assert cm.improvement(est.total, est.total) == 0.0
    base = cm.PhaseEstimate("keygen", {"total": 5_609_000}, [])
    accel = cm.PhaseEstimate("keygen", {"total": 56_000}, [])
    assert round(cm.improvement(accel.total, base.total), 1) == 99.0
    assert cm.improvement(base.total, accel.total) < 0


def test_top3_categories_match_published_profile(profiles):
    for phase in cm.PHASES:
        top3 = set(profiles[phase].category_ranking()[:3])
        assert top3 == {"shake", "arithmetic_r", "memory"}, phase


def test_reports_render(profiles):
    prof_report = cm.render_profile_report(list(profiles.values()))
    assert "keccak_permutations" in prof_report
    assert "keygen.shake=" in prof_report
    cost_report = cm.render_costmodel_report(cm.AcceleratorConfig.none(),
                                             list(profiles.values()))
    assert "keygen.total=5609000" in cost_report
    assert "formula sheet" in cost_report
