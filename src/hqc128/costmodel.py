"""Profiling counters over the software execution plus an analytical cycle
model of the hardware accelerators, both driven by one table, ``CATEGORIES``.

* ``profile`` runs one KEM phase with instrumented primitives and returns the
  raw invocation counters plus wall time. For reporting, each category's
  counter is attributed software-equivalent cycles through ``unit_weights``,
  calibrated at ``CALIBRATION_SEED`` on first use. The qualitative finding
  these shares reproduce: SHAKE, ring arithmetic and memory traffic dominate
  every phase.

* ``estimate_cycles`` is a first-order linear model of the accelerated
  system: each category sums its published software cells, with the one its
  counter drives replaced by count x accelerator cycles when the category's
  unit is on. It is anchored, not simulated - absolute numbers for the
  unaccelerated system are the published totals by construction.

The DMA unit scales its cell instead: the published "DMA + SW_OPT" row
bundles software optimizations that reach beyond the memory category, so the
single-scalar least-squares fit over the three phases lands negative and is
clamped to 0.0. Both the raw and the clamped value appear in the formula
sheet, and improvement columns are reported against both baselines
(reference, and the DMA + SW_OPT row).
"""

import functools
import time
from typing import NamedTuple

from . import kem
from .counters import Counters, collecting
from .params import P, ParamSet, check
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

# The seed the unit weights are calibrated at.
CALIBRATION_SEED = bytes(range(40))


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


class AcceleratorConfig(NamedTuple):
    """Which hardware units the estimate assumes; all 32 combinations are
    legal. The field order is the order of the ablation rows and the flags."""

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
        return cls(*(True,) * len(cls._fields))

    def describe(self) -> str:
        on = [name for name, value in zip(self._fields, self) if value]
        return "+".join(on) if on else "software-only"


class Category(NamedTuple):
    """One cost category: the SW_BASELINE ``cells`` it sums, and the one cell
    of them, ``driven``, that ``counter`` drives. The unit weight is that cell
    at phase ``anchor`` over the counter at CALIBRATION_SEED. With ``unit`` on,
    the cell becomes count x ``cycles_per_count``, or, where that is None
    (DMA), the cell x DMA_FACTOR_DEFAULT."""

    cells: tuple[str, ...]
    driven: str
    counter: str
    anchor: str
    unit: str
    cycles_per_count: float | None
    derivation: str


# Accelerator timing. Published: a Keccak permutation in 24 cycles, two cycles
# per resulting ring word, a field multiply in four cycles. The other cycle
# counts in CATEGORIES are model assumptions.
KECCAK_PERMUTE_CYCLES = 24
KECCAK_IO_OVERHEAD_CYCLES = 50      # state transfer per permutation
R_UNIT_CYCLES_PER_WORD = 2
R_UNIT_COORD_OVERHEAD_CYCLES = 2    # address setup per coordinate
# One R-unit coordinate is 2 * (words_n + 1) ring word ops and costs
# 2 * words_n + 2 cycles, so the unit spends one cycle per ring word op.
_R_COORD_CYCLES = R_UNIT_CYCLES_PER_WORD * P.words_n + R_UNIT_COORD_OVERHEAD_CYCLES

CATEGORIES = {
    "arithmetic_r": Category(
        ("arithmetic_r",), "arithmetic_r", "ring_word_ops", "keygen", "r_unit",
        _R_COORD_CYCLES / (2 * (P.words_n + 1)),
        "coords = ring_word_ops / (2 * (words_n + 1)) at"
        f" {R_UNIT_CYCLES_PER_WORD} * words_n + {R_UNIT_COORD_OVERHEAD_CYCLES}"
        f" = {_R_COORD_CYCLES} each"),
    "shake": Category(
        ("shake",), "shake", "keccak_permutations", "keygen", "sampling_unit",
        KECCAK_PERMUTE_CYCLES + KECCAK_IO_OVERHEAD_CYCLES,
        f"Keccak {KECCAK_PERMUTE_CYCLES} + {KECCAK_IO_OVERHEAD_CYCLES} io"),
    "sampling": Category(
        ("sampling",), "sampling", "samples_drawn", "keygen", "sampling_unit",
        2, "rejection pipeline issue rate (assumed)"),
    "rs_rm": Category(
        ("rs_encode", "rs_decode", "rm_decode"), "rm_decode",
        "rm_blocks_decoded", "decaps", "rm_decoder",
        400, "fold + transform + peak search per block (assumed)"),
    "memory": Category(
        ("memory",), "memory", "bytes_copied", "keygen", "dma", None,
        f"dma_factor = least-squares fit {DMA_FACTOR_RAW:.3f} clamped to [0, 1]"),
    "rest": Category(
        ("udiv", "gf_mul", "rest_other"), "gf_mul", "gf_muls", "encaps",
        "gf_insn", 4, "published field-multiply latency"),
}


class CostProfile(Counters):
    """Primitive-invocation counters and wall time for one executed phase."""

    __slots__ = ("phase", "wall_time")

    def __init__(self, phase: str, wall_time: float = 0.0, **counts: int):
        super().__init__(**counts)
        self.phase, self.wall_time = phase, wall_time

    def attributed_cycles(self) -> dict[str, float]:
        """Software-equivalent cycles per category (counts x unit weights)."""
        w = unit_weights()
        return {name: getattr(self, row.counter) * w[name]
                for name, row in CATEGORIES.items()}

    def category_ranking(self) -> list[str]:
        """Categories ordered by attributed share, largest first."""
        attributed = self.attributed_cycles()
        return sorted(attributed, key=attributed.get, reverse=True)


def profile(phase: str, seed: bytes, p: ParamSet = P) -> CostProfile:
    """Execute one phase with counting enabled; setup runs uncounted.

    Instrumentation only accumulates integers, so profiled and unprofiled
    executions produce byte-identical cryptographic outputs. ``p`` may only
    be HQC-128, ``params.P``; ``params.check`` raises ValueError otherwise.
    """
    check(p)
    if phase not in PHASES:
        raise ValueError(f"phase must be one of {PHASES}")
    coins = Xof(seed, DOMAIN_COINS).squeeze(P.seed_bytes)
    pk, sk = kem.keygen(seed)
    ct, _ = kem.encaps(pk, coins)
    run = {
        "keygen": lambda: kem.keygen(seed),
        "encaps": lambda: kem.encaps(pk, coins),
        "decaps": lambda: kem.decaps(sk, ct),
    }[phase]
    prof = CostProfile(phase=phase)
    with collecting(prof):
        start = time.perf_counter()
        run()
        prof.wall_time = time.perf_counter() - start
    return prof


@functools.cache
def unit_weights() -> dict[str, float]:
    """Software cycles per counted unit for each category, derived from
    CATEGORIES on first use."""
    profiles = {phase: profile(phase, CALIBRATION_SEED) for phase in PHASES}
    return {name: SW_BASELINE[row.anchor][row.driven]
            / getattr(profiles[row.anchor], row.counter)
            for name, row in CATEGORIES.items()}


class PhaseEstimate(NamedTuple):
    phase: str
    categories: dict[str, float]
    formula_sheet: list[str]

    @property
    def total(self) -> float:
        return sum(self.categories.values())


def estimate_cycles(cfg: AcceleratorConfig, prof: CostProfile) -> PhaseEstimate:
    """Per-category cycle estimate: each category sums its software baseline
    cells, with the driven cell replaced where the row's unit is on. Emits one
    formula-sheet line per category."""
    if prof.phase not in PHASES:
        raise ValueError(f"profile has unknown phase {prof.phase!r}")
    base = SW_BASELINE[prof.phase]
    cat: dict[str, float] = {}
    sheet: list[str] = [f"phase={prof.phase} config={cfg.describe()}"]
    for name, row in CATEGORIES.items():
        on = getattr(cfg, row.unit)
        terms = {cell: (f"{cell}({base[cell]})", base[cell]) for cell in row.cells}
        if on:
            what, count, factor = (
                (row.driven, base[row.driven], DMA_FACTOR_DEFAULT)
                if row.cycles_per_count is None
                else (row.counter, getattr(prof, row.counter), row.cycles_per_count))
            terms[row.driven] = (f"{what}({count}) * {factor:g}", count * factor)
        cat[name] = sum(cycles for _, cycles in terms.values())
        sheet.append(f"{name} = {' + '.join(text for text, _ in terms.values())}"
                     + (f"; {row.unit}: {row.derivation}" if on else ""))
    return PhaseEstimate(prof.phase, cat, sheet)


def improvement(estimate: float, baseline: float) -> float:
    """Improvement percentage 100 * (1 - estimate/baseline), paper-style."""
    return 100.0 * (1.0 - estimate / baseline)


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
    for name in Counters.__slots__:
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
        for cat_name in prof.category_ranking():
            cycles = attributed[cat_name]
            share = 100.0 * cycles / total if total else 0.0
            lines.append(f"    {cat_name:<14} {_fmt_k(cycles):>10}  {share:5.1f}%")
    lines.append("")
    for prof in profiles:
        for cat_name, cycles in prof.attributed_cycles().items():
            lines.append(f"{prof.phase}.{cat_name}={cycles:.0f}")
    return "\n".join(lines)


def render_costmodel_report(cfg: AcceleratorConfig,
                            profiles: list[CostProfile]) -> str:
    """Estimate table for ``cfg`` against both baselines, the paper's ablation
    (the same for every ``cfg``), formula sheet, and machine-readable lines."""
    estimates = [estimate_cycles(cfg, prof) for prof in profiles]
    lines = []
    lines.append(f"configuration: {cfg.describe()}")
    header = (f"{'phase':<8}{'estimate':>12}{'reference':>12}{'impr.':>8}"
              f"{'dma+sw_opt':>12}{'impr.':>8}")
    lines.append(header)
    lines.append("-" * len(header))
    for est in estimates:
        ref = SW_TOTAL[est.phase]
        alt = DMA_SW_OPT_ROW[est.phase]
        lines.append(
            f"{est.phase:<8}{_fmt_k(est.total):>12}{_fmt_k(ref):>12}"
            f"{improvement(est.total, ref):>7.1f}%{_fmt_k(alt):>12}"
            f"{improvement(est.total, alt):>7.1f}%"
        )
    lines.append("")
    lines.append("improvement columns: vs software reference, and vs the"
                 " measured DMA+SW_OPT row (both interpretations reported).")
    lines.append("")
    lines.append("accelerator ablation (estimate, improvement vs software reference):")
    header = f"{'configuration':<20}" + "".join(f"{p.phase:>16}" for p in profiles)
    lines += [header, "-" * len(header)]
    ablation = [("software baseline", AcceleratorConfig.none()),
                *((f"+ {u.replace('_', '-')}", AcceleratorConfig(**{u: True}))
                  for u in AcceleratorConfig._fields),
                ("all units", AcceleratorConfig.all())]
    for label, unit_cfg in ablation:
        totals = [(estimate_cycles(unit_cfg, p).total, SW_TOTAL[p.phase]) for p in profiles]
        lines.append(f"{label:<20}" + "".join(f"{_fmt_k(t):>9} {improvement(t, ref):5.1f}%"
                                              for t, ref in totals))
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
