"""Profiling counters over the software execution plus an analytical cycle
model of the hardware accelerators.

Two separate mechanisms live here:

* ``profile`` runs one KEM phase with instrumented primitives and returns the
  raw invocation counters plus wall time. For reporting, counters are
  attributed software-equivalent cycles through ``SW_UNIT_CYCLES`` - per-unit
  weights calibrated once against the published RISC-V reference baseline
  (each weight names its anchor cell). The qualitative finding these shares
  reproduce: SHAKE, ring arithmetic and memory traffic dominate every phase.

* ``estimate_cycles`` is a first-order linear model of the accelerated
  system: each category either keeps its published software-baseline share or
  is replaced by counts x accelerator constants when the matching accelerator
  flag is on. It is anchored, not simulated - absolute numbers for the
  unaccelerated system are the published totals by construction.

The DMA factor deserves a note: the published "DMA + SW_OPT" row bundles
software optimizations that reach beyond the memory category, so the
single-scalar least-squares fit over the three phases lands negative and is
clamped to 0.0. Both the raw and the clamped value appear in the formula
sheet, and improvement columns are reported against both baselines
(reference, and the DMA + SW_OPT row).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields

from . import kem
from .counters import Counters, collecting
from .params import ParamSet, hqc128
from .sampling import DOMAIN_COINS, Xof

PHASES = ("keygen", "encaps", "decaps")

# Software baseline cycles of the reference implementation on the RISC-V
# core, split by profiling category (sub-lines kept where an accelerator
# replaces only part of a category).
SW_BASELINE: dict[str, dict[str, int]] = {
    "keygen": {
        "arithmetic_r": 1_540_000,
        "shake": 1_854_000,
        "rs_encode": 0,
        "rs_decode": 0,
        "rm_decode": 0,
        "sampling": 81_000,
        "memory": 2_071_000,
        "udiv": 49_000,
        "gf_mul": 0,
        "rest_other": 14_000,
    },
    "encaps": {
        "arithmetic_r": 3_448_000,
        "shake": 5_007_000,
        "rs_encode": 26_000,
        "rs_decode": 0,
        "rm_decode": 0,
        "sampling": 155_000,
        "memory": 5_068_000,
        "udiv": 100_000,
        "gf_mul": 20_000,
        "rest_other": 26_000,
    },
    "decaps": {
        "arithmetic_r": 4_989_000,
        "shake": 5_414_000,
        "rs_encode": 26_000,
        "rs_decode": 56_000,
        "rm_decode": 1_358_000,
        "sampling": 236_000,
        "memory": 7_175_000,
        "udiv": 151_000,
        "gf_mul": 162_000,
        "rest_other": 336_000,
    },
}

SW_TOTAL = {phase: sum(v.values()) for phase, v in SW_BASELINE.items()}

# Published measured row "DMA + SW_OPT" (cycles), used as the alternative
# improvement baseline.
DMA_SW_OPT_ROW = {"keygen": 3_587_000, "encaps": 7_044_000, "decaps": 10_851_000}

# Per-unit software cycle weights used to attribute measured counters to
# categories for reporting. Each was calibrated once against one anchor cell
# of the published baseline, divided by a counter value:
#   per_permutation : Keygen SHAKE 1854k over 23 permutations
#   per_ring_word_op: Keygen Arithmetic-in-R 1540k over 36,696 word ops
#   per_byte_copied : Keygen Memory-Operation 2071k over 7,431 bytes
#   per_sample_draw : Keygen Sampling 81k over 133 candidate draws
#   per_gf_mul      : Encaps gf_mul 20k over 480 multiplications
#   per_rm_block    : Decaps RM-Decode 1358k over 46 blocks
# Three of those divisors are not what this code counts: the zero-seed keygen
# profile gives 21 permutations, 7,233 bytes and 132 draws (the other three
# match). The weights stay as calibrated until they are refitted in code.
SW_UNIT_CYCLES = {
    "per_permutation": 80_600,
    "per_ring_word_op": 42,
    "per_byte_copied": 279,
    "per_sample_draw": 609,
    "per_gf_mul": 42,
    "per_rm_block": 29_522,
}


def fit_dma_factor() -> tuple[float, float]:
    """Least-squares scalar for the memory category against the DMA+SW_OPT
    row, and its value clamped to the feasible range [0, 1]."""
    num = 0.0
    den = 0.0
    for phase in PHASES:
        mem = SW_BASELINE[phase]["memory"]
        non_mem = SW_TOTAL[phase] - mem
        num += mem * (DMA_SW_OPT_ROW[phase] - non_mem)
        den += mem * mem
    raw = num / den
    return raw, min(1.0, max(0.0, raw))


DMA_FACTOR_RAW, DMA_FACTOR_DEFAULT = fit_dma_factor()


@dataclass(frozen=True)
class AcceleratorConfig:
    """Which hardware units the estimate assumes; all 32 combinations are
    legal."""

    dma: bool = False
    r_unit: bool = False
    sampling_unit: bool = False
    rm_decoder: bool = False
    gf_insn: bool = False

    @classmethod
    def none(cls) -> "AcceleratorConfig":
        return cls()

    @classmethod
    def all(cls) -> "AcceleratorConfig":
        return cls(dma=True, r_unit=True, sampling_unit=True,
                   rm_decoder=True, gf_insn=True)

    def describe(self) -> str:
        on = [f.name for f in fields(self) if getattr(self, f.name)]
        return "+".join(on) if on else "software-only"


@dataclass(frozen=True)
class CycleConstants:
    """Accelerator timing constants. The first three are published figures
    (permutation in 24 cycles; two cycles per resulting word; field multiply
    in four cycles); the rest are exposed model assumptions."""

    keccak_permute_cycles: int = 24
    r_unit_cycles_per_word: int = 2
    gf_insn_cycles: int = 4
    keccak_io_overhead_cycles: int = 50     # state transfer per permutation
    r_unit_coord_overhead_cycles: int = 2   # address setup per coordinate
    sampling_unit_cycles_per_draw: int = 2  # rejection pipeline issue rate
    rm_decoder_cycles_per_block: int = 400  # fold + transform + peak search
    dma_factor: float = DMA_FACTOR_DEFAULT


@dataclass(slots=True, kw_only=True)
class CostProfile(Counters):
    """Primitive-invocation counters and wall time for one executed phase."""

    phase: str
    wall_time: float = 0.0

    def attributed_cycles(self) -> dict[str, float]:
        """Software-equivalent cycles per category (counts x unit weights)."""
        w = SW_UNIT_CYCLES
        return {
            "arithmetic_r": self.ring_word_ops * w["per_ring_word_op"],
            "shake": self.keccak_permutations * w["per_permutation"],
            "rs_rm": self.rm_blocks_decoded * w["per_rm_block"],
            "sampling": self.samples_drawn * w["per_sample_draw"],
            "memory": self.bytes_copied * w["per_byte_copied"],
            "rest": self.gf_muls * w["per_gf_mul"],
        }

    def category_ranking(self) -> list[str]:
        """Categories ordered by attributed share, largest first."""
        attributed = self.attributed_cycles()
        return sorted(attributed, key=attributed.get, reverse=True)


def profile(phase: str, seed: bytes, p: ParamSet | None = None) -> CostProfile:
    """Execute one phase with counting enabled; setup runs uncounted.

    Instrumentation only accumulates integers, so profiled and unprofiled
    executions produce byte-identical cryptographic outputs.
    """
    p = p or hqc128()
    if phase not in PHASES:
        raise ValueError(f"phase must be one of {PHASES}")
    coins = Xof(seed, DOMAIN_COINS).squeeze(p.seed_bytes)
    pk, sk = kem.keygen(seed, p)
    ct, _ = kem.encaps(pk, coins, p)
    run = {
        "keygen": lambda: kem.keygen(seed, p),
        "encaps": lambda: kem.encaps(pk, coins, p),
        "decaps": lambda: kem.decaps(sk, ct, p),
    }[phase]
    prof = CostProfile(phase=phase)
    with collecting(prof):
        start = time.perf_counter()
        run()
        prof.wall_time = time.perf_counter() - start
    return prof


@dataclass
class PhaseEstimate:
    phase: str
    config: AcceleratorConfig
    categories: dict[str, float]
    formula_sheet: list[str]

    @property
    def total(self) -> float:
        return sum(self.categories.values())


def estimate_cycles(cfg: AcceleratorConfig, prof: CostProfile,
                    consts: CycleConstants | None = None,
                    p: ParamSet | None = None) -> PhaseEstimate:
    """Per-category cycle estimate: accelerated cost where a flag is set,
    published software baseline otherwise. Emits its formula sheet."""
    consts = consts or CycleConstants()
    p = p or hqc128()
    if prof.phase not in PHASES:
        raise ValueError(f"profile has unknown phase {prof.phase!r}")
    base = SW_BASELINE[prof.phase]
    cat: dict[str, float] = {}
    sheet: list[str] = [f"phase={prof.phase} config={cfg.describe()}"]

    if cfg.r_unit:
        words_per_coord = 2 * (p.words_n + 1)
        coords = prof.ring_word_ops // words_per_coord
        cat["arithmetic_r"] = coords * (
            consts.r_unit_cycles_per_word * p.words_n
            + consts.r_unit_coord_overhead_cycles
        )
        sheet.append(
            f"arithmetic_r = coords * ({consts.r_unit_cycles_per_word} * words_n"
            f" + {consts.r_unit_coord_overhead_cycles});"
            f" coords = ring_word_ops / (2 * (words_n + 1)) = {coords}"
        )
    else:
        cat["arithmetic_r"] = base["arithmetic_r"]
        sheet.append("arithmetic_r = software baseline")

    if cfg.sampling_unit:
        cat["shake"] = prof.keccak_permutations * (
            consts.keccak_permute_cycles + consts.keccak_io_overhead_cycles
        )
        cat["sampling"] = prof.samples_drawn * consts.sampling_unit_cycles_per_draw
        sheet.append(
            f"shake = permutations * ({consts.keccak_permute_cycles} +"
            f" {consts.keccak_io_overhead_cycles} io); permutations ="
            f" {prof.keccak_permutations}"
        )
        sheet.append(
            f"sampling = draws * {consts.sampling_unit_cycles_per_draw};"
            f" draws = {prof.samples_drawn}"
        )
    else:
        cat["shake"] = base["shake"]
        cat["sampling"] = base["sampling"]
        sheet.append("shake = software baseline")
        sheet.append("sampling = software baseline")

    rm_part = (
        prof.rm_blocks_decoded * consts.rm_decoder_cycles_per_block
        if cfg.rm_decoder
        else base["rm_decode"]
    )
    cat["rs_rm"] = base["rs_encode"] + base["rs_decode"] + rm_part
    sheet.append(
        f"rs_rm = rs_encode({base['rs_encode']}) + rs_decode({base['rs_decode']}) + "
        + (
            f"blocks * {consts.rm_decoder_cycles_per_block}; blocks ="
            f" {prof.rm_blocks_decoded}"
            if cfg.rm_decoder
            else f"rm_decode({base['rm_decode']})"
        )
    )

    if cfg.dma:
        cat["memory"] = base["memory"] * consts.dma_factor
        sheet.append(
            f"memory = baseline * dma_factor({consts.dma_factor:.3f};"
            f" raw least-squares fit {DMA_FACTOR_RAW:.3f} clamped to [0, 1])"
        )
    else:
        cat["memory"] = base["memory"]
        sheet.append("memory = software baseline")

    gf_part = (
        prof.gf_muls * consts.gf_insn_cycles if cfg.gf_insn else base["gf_mul"]
    )
    cat["rest"] = base["udiv"] + gf_part + base["rest_other"]
    sheet.append(
        f"rest = udiv({base['udiv']}) + "
        + (
            f"gf_muls * {consts.gf_insn_cycles}; gf_muls = {prof.gf_muls}"
            if cfg.gf_insn
            else f"gf_mul({base['gf_mul']})"
        )
        + f" + other({base['rest_other']})"
    )
    return PhaseEstimate(prof.phase, cfg, cat, sheet)


def speedup_report(base: PhaseEstimate, accel: PhaseEstimate) -> float:
    """Improvement percentage 100 * (1 - accel/base), paper-style."""
    if base.phase != accel.phase:
        raise ValueError("estimates are for different phases")
    return 100.0 * (1.0 - accel.total / base.total)


# ---------------------------------------------------------------------------
# Report rendering


def _fmt_k(cycles: float) -> str:
    return f"{cycles / 1000:.0f}k"


def render_profile_report(profiles: list[CostProfile]) -> str:
    """Counter table, attributed category shares, and machine-readable
    category=cycles lines."""
    lines = []
    header = f"{'counter':<22}" + "".join(f"{p.phase:>14}" for p in profiles)
    lines.append(header)
    lines.append("-" * len(header))
    for name in (f.name for f in fields(Counters)):
        lines.append(
            f"{name:<22}" + "".join(f"{getattr(p, name):>14}" for p in profiles)
        )
    lines.append(
        f"{'wall_time_s':<22}" + "".join(f"{p.wall_time:>14.4f}" for p in profiles)
    )
    lines.append("")
    lines.append("software-equivalent cycle attribution "
                 "(counts x calibrated unit weights):")
    for prof in profiles:
        attributed = prof.attributed_cycles()
        total = sum(attributed.values())
        lines.append(f"  {prof.phase}: total {_fmt_k(total)}")
        for cat_name in sorted(attributed, key=attributed.get, reverse=True):
            cycles = attributed[cat_name]
            share = 100.0 * cycles / total if total else 0.0
            lines.append(f"    {cat_name:<14} {_fmt_k(cycles):>10}  {share:5.1f}%")
    lines.append("")
    for prof in profiles:
        for cat_name, cycles in prof.attributed_cycles().items():
            lines.append(f"{prof.phase}.{cat_name}={cycles:.0f}")
    return "\n".join(lines)


def render_costmodel_report(cfg: AcceleratorConfig,
                            estimates: list[PhaseEstimate]) -> str:
    """Estimate table with improvement columns against both baselines,
    formula sheet, and machine-readable lines."""
    lines = []
    lines.append(f"configuration: {cfg.describe()}")
    header = (f"{'phase':<8}{'estimate':>12}{'reference':>12}{'impr.':>8}"
              f"{'dma+sw_opt':>12}{'impr.':>8}")
    lines.append(header)
    lines.append("-" * len(header))
    for est in estimates:
        ref = SW_TOTAL[est.phase]
        alt = DMA_SW_OPT_ROW[est.phase]
        impr_ref = 100.0 * (1.0 - est.total / ref)
        impr_alt = 100.0 * (1.0 - est.total / alt)
        lines.append(
            f"{est.phase:<8}{_fmt_k(est.total):>12}{_fmt_k(ref):>12}"
            f"{impr_ref:>7.1f}%{_fmt_k(alt):>12}{impr_alt:>7.1f}%"
        )
    lines.append("")
    lines.append("improvement columns: vs software reference, and vs the"
                 " measured DMA+SW_OPT row (both interpretations reported).")
    lines.append("")
    lines.append("formula sheet:")
    for est in estimates:
        for entry in est.formula_sheet:
            lines.append(f"  {entry}")
    lines.append("")
    for est in estimates:
        for cat_name, cycles in est.categories.items():
            lines.append(f"{est.phase}.{cat_name}={cycles:.0f}")
        lines.append(f"{est.phase}.total={est.total:.0f}")
    return "\n".join(lines)
