#!/usr/bin/env python3
"""Reproduce the HW/SW co-design analysis tables.

Prints, for a fixed seed:
  1. the primitive-invocation profile of each KEM phase with its
     software-equivalent category shares (the profiling-table mirror), and
  2. the accelerator ablation: cycle estimates and improvement columns for
     the software baseline, each single accelerator, and all units together.
"""

import argparse
from dataclasses import fields

from hqc128 import costmodel as cm
from hqc128 import kem


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", default="00" * 40, help="hex profiling seed")
    args = parser.parse_args()
    try:
        seed = bytes.fromhex(args.seed)
    except ValueError:
        seed = b""  # not hex: reported like a wrong length
    if len(seed) != kem.P.seed_bytes:
        parser.error("seed must be 40 bytes of hex")

    profiles = {phase: cm.profile(phase, seed) for phase in cm.PHASES}

    print("=" * 72)
    print("Software profile (instrumented execution)")
    print("=" * 72)
    print(cm.render_profile_report(list(profiles.values())))
    print()

    ablation = [
        ("software baseline", cm.AcceleratorConfig.none()),
        *((f"+ {unit.name.replace('_', '-')}", cm.AcceleratorConfig(**{unit.name: True}))
          for unit in fields(cm.AcceleratorConfig)),
        ("all units", cm.AcceleratorConfig.all()),
    ]
    print("=" * 72)
    print("Accelerator ablation (first-order cycle model)")
    print("=" * 72)
    header = f"{'configuration':<20}" + "".join(f"{ph:>16}" for ph in cm.PHASES)
    print(header)
    print("-" * len(header))
    for label, cfg in ablation:
        cells = []
        for phase in cm.PHASES:
            est = cm.estimate_cycles(cfg, profiles[phase])
            impr = cm.improvement(est.total, cm.SW_TOTAL[phase])
            cells.append(f"{est.total/1000:>8.0f}k {impr:5.1f}%")
        print(f"{label:<20}" + "".join(f"{c:>16}" for c in cells))
    print()
    print("improvements are relative to the software baseline; the measured")
    print("DMA+SW_OPT row interpretation is printed by `hqc128 costmodel`.")
    print()
    print("full report for all units enabled:")
    print()
    estimates = [
        cm.estimate_cycles(cm.AcceleratorConfig.all(), profiles[ph])
        for ph in cm.PHASES
    ]
    print(cm.render_costmodel_report(cm.AcceleratorConfig.all(), estimates))


if __name__ == "__main__":
    main()
