#!/usr/bin/env python3
"""Repeat the benchmark over many seeds and judge its run-to-run spread.

    python3 perfbench/prove.py run OUT.jsonl [--seeds 1-10] [--workloads a,b]
                               [--trace 0|1] [--seconds S]
    python3 perfbench/prove.py report A.jsonl [B.jsonl]

`run` appends one record per run (result, environment, load average) to
OUT.jsonl. `report` prints, per workload and end-to-end metric, the median
and the interquartile range as a share of the median against the metric's
bound from BENCHMARK.json. Given a second set it also checks that B's
median is no worse than A's by more than the bound, and that every exact
per-layer count is identical for each (workload, seed) run in both.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import OUT, PER_LAYER, WORKLOADS  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cmd_run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bad = 0
    with open(args.out, "a") as out:
        for seed in seed_range(args.seeds):
            for workload in args.workloads.split(","):
                path = OUT / f"{workload}-seed{seed}-trace{args.trace}.json"
                path.unlink(missing_ok=True)
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(args.trace)],
                    cwd=ROOT, capture_output=True, text=True, timeout=900)
                if not path.exists():
                    sys.stderr.write(proc.stdout + proc.stderr)
                    print(f"{workload} seed={seed} exit={proc.returncode}: no record")
                    bad += 1
                    continue
                record = json.loads(path.read_text())
                record["exit_code"] = proc.returncode
                out.write(json.dumps(record) + "\n")
                out.flush()
                bad += proc.returncode != 0
                print(f"{workload} seed={seed} exit={proc.returncode} "
                      f"correct={record['result']['correct']}", flush=True)
    return 1 if bad else 0


def load(path: str) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line]


def by_metric(records: list[dict]) -> dict:
    table = defaultdict(list)
    for r in records:
        for name, m in r["result"]["metrics"].items():
            table[r["workload"], name].append(m["value"])
    return table


def cmd_report(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    a = load(args.a)
    failures = []
    wrong = [r for r in a if not r["result"]["correct"] or r["exit_code"]]
    if wrong:
        failures.append(f"{len(wrong)} runs in {args.a} were not correct")
    ta = by_metric(a)
    tb = by_metric(load(args.b)) if args.b else {}
    print(f"{'workload':<15}{'metric':<16}{'n':>3}{'median':>12}{'iqr/med':>9}"
          f"{'bound':>7}" + (f"{'B/A-1':>9}" if args.b else ""))
    for (workload, name), vals in sorted(ta.items()):
        if name not in e2e:
            continue
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, 0, med)
        spread = (q3 - q1) / med
        bound = e2e[name]["bound"]
        line = f"{workload:<15}{name:<16}{len(vals):>3}{med:>12.5g}{spread:>9.3f}{bound:>7}"
        flag = ""
        if spread > bound:
            flag += " SPREAD>BOUND"
        elif spread > bound / 3:
            flag += " spread>bound/3"
        if args.b and (workload, name) in tb:
            worse = statistics.median(tb[workload, name]) / med - 1
            if e2e[name]["better"] == "higher":
                worse = -worse
            line += f"{worse:>+9.3f}"
            if worse > bound:
                flag += " B-WORSE"
        print(line + flag)
        if "SPREAD" in flag or "WORSE" in flag:
            failures.append(f"{workload} {name}:{flag}")
    if args.b:
        exact = {n for n, (_, is_exact) in PER_LAYER.items() if is_exact}
        runs_b = {(r["workload"], r["seed"]): r for r in load(args.b)}
        checked = 0
        for r in a:
            other = runs_b.get((r["workload"], r["seed"]))
            if other is None:
                continue
            for name in exact & set(r["result"]["metrics"]):
                checked += 1
                va = r["result"]["metrics"][name]["value"]
                vb = other["result"]["metrics"][name]["value"]
                if va != vb:
                    failures.append(f"{r['workload']} seed {r['seed']} {name}: {va} != {vb}")
        print(f"exact per-layer values compared: {checked}")
    for f in failures:
        print("FAIL:", f)
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("out")
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--workloads", default=",".join(WORKLOADS))
    run.add_argument("--trace", type=int, choices=[0, 1], default=0)
    run.add_argument("--seconds", type=float)
    report = sub.add_parser("report")
    report.add_argument("a")
    report.add_argument("b", nargs="?")
    args = parser.parse_args()
    return cmd_run(args) if args.cmd == "run" else cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
