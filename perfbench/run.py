#!/usr/bin/env python3
"""HQC-128 KEM benchmark: one closed-loop client, one process, one thread.

    python3 perfbench/run.py                       # all three workloads
    python3 perfbench/run.py --workload server_decaps --seed 3 --seconds 15 --trace 1

`--trace 0` measures the end-to-end metrics with no instrumentation.
`--trace 1` runs half the time untraced, then half traced, and reports the
per-layer metrics. Both check every verdict and the pinned output digest;
the last line of standard output is one JSON object, and the exit code is
nonzero if any output was wrong. Run from a checkout: the program is
imported from its `src/` directory. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pickle
import platform
import statistics
import subprocess
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter, process_time

import refclock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 11      # fresh interpreters timed for setup_s, after one warm-up
MEMORY_OPS = 8       # ops each of those interpreters runs before its peak RSS is read
SIDE_OPS = 400       # handshake ops timed for keygen/encaps on the server workloads
COUNT_OPS = 50       # traced ops whose counts and calls are reported (exact)
PIN_OPS = 10         # ops of the default seed folded into the pinned digest
PROBE_REPS = 20      # rs_decode probe words per error count
REPLAY_ITEMS = 16    # client-side encapsulations replayed under tracing
DEFAULT_SEED = 0
# An op during which the process was off the CPU for longer than this (wall
# time minus process CPU time) is counted as preempted, by the host or
# another process. Op times leave that time out (workloads.took).
PREEMPTED_S = 0.001
WORKLOADS = ("handshake", "server_decaps", "server_reject")

# Per-layer metrics: name -> (unit, exact). Exact ones are counts fixed by
# the inputs; compare them by equality, never within a noise bound.
PER_LAYER = {
    "poly_ring.mul_sparse_dense.calls": ("count/op", True),
    "poly_ring.mul_sparse_dense.ms_per_call.p50": ("ms", False),
    "poly_ring.mul_sparse_dense.self_ms": ("ms/op", False),
    "poly_ring.ct_equal.calls": ("count/op", True),
    "poly_ring.ct_equal.ms_per_call.p50": ("ms", False),
    "poly_ring.dense_from_sparse.ms_per_call.p50": ("ms", False),
    "poly_ring.DensePoly.to_bytes.calls": ("count/op", True),
    "poly_ring.ring_word_ops": ("count/op", True),
    "sampling.sample_fixed_weight.calls": ("count/op", True),
    "sampling.sample_fixed_weight.ms_per_call.p50": ("ms", False),
    "sampling.draw_accept_ratio": ("ratio", True),
    "sampling.samples_drawn": ("count/op", True),
    "sampling.Xof.squeeze.self_ms": ("ms/op", False),
    "sampling.sample_uniform_dense.ms_per_call.p50": ("ms", False),
    "sampling.hash.self_ms": ("ms/op", False),
    "sampling.keccak_permutations": ("count/op", True),
    "codes.code_encode.ms_per_call.p50": ("ms", False),
    "codes.code_decode.ms_per_call.p50": ("ms", False),
    "codes.rm_stage.self_ms": ("ms/op", False),
    "codes.rs_decode.ms_per_call.p50": ("ms", False),
    "codes.rs_decode.e0.ms_per_call.p50": ("ms", False),
    "codes.rs_decode.e1.ms_per_call.p50": ("ms", False),
    "codes.rs_decode.e5.ms_per_call.p50": ("ms", False),
    "codes.rs_decode.e15.ms_per_call.p50": ("ms", False),
    "codes.rs_decode.e16.ms_per_call.p50": ("ms", False),
    "codes.rs_decode.spread": ("ratio", False),
    "codes.rs_decode.nonzero_syndrome_ratio": ("ratio", False),
    "codes.rm_blocks_decoded": ("count/op", True),
    "gf256.gf_mul.self_ms": ("ms/op", False),
    "gf256.gf_mul_vec.self_ms": ("ms/op", False),
    "gf256.gf_inverse.self_ms": ("ms/op", False),
    "gf256.gf_muls": ("count/op", True),
    "kem.pke_encrypt.self_ms": ("ms/op", False),
    "kem.pke_decrypt.self_ms": ("ms/op", False),
    "kem.deserialize_ct.ms_per_call.p50": ("ms", False),
    "kem.deserialize_pk.ms_per_call.p50": ("ms", False),
    "kem.serialize_ct.ms_per_call.p50": ("ms", False),
    "kem.decaps.self_ms": ("ms/op", False),
    "tracing_overhead": ("ratio", False),
}
COUNTERS = ("keccak_permutations", "gf_muls", "ring_word_ops",
            "bytes_copied", "samples_drawn", "rm_blocks_decoded")
for _phase in ("keygen", "encaps", "decaps"):
    for _c in COUNTERS:
        PER_LAYER[f"costmodel.{_phase}.{_c}"] = ("count", True)
    for _cfg in ("none", "all"):
        PER_LAYER[f"costmodel.{_phase}.{_cfg}.total_cycles"] = ("cycles", True)

END_TO_END_UNITS = {
    "op_ms.p50": "ms", "op_ms.p99": "ms", "ops_per_s": "1/s",
    "keygen_ms.p50": "ms", "encaps_ms.p50": "ms", "decaps_ms.p50": "ms",
    "setup_s": "s", "peak_rss_mib": "MiB",
}

# One set-up interpreter. numpy, a dependency, is imported before the clock
# starts: its import time swung 2x over minutes on a shared host,
# independently of the program. `import hqc128` + `deserialize_sk` is timed
# like an op (workloads.took) between two sets of reference-kernel ticks.
# Then a few of the workload's ops run, and the peak resident memory they
# added to the bare interpreter is read, in MiB. The peak is VmHWM, not
# ru_maxrss: Linux carries ru_maxrss over from the parent through fork and
# exec.
SETUP_CHILD = """
import pickle, statistics, sys, time, types
def hwm_kib():
    with open("/proc/self/status") as f:
        return int(next(l for l in f if l.startswith("VmHWM:")).split()[1])
def ticks():
    out = []
    for _ in range(5):
        t = time.perf_counter()
        refclock.kernel()
        out.append(time.perf_counter() - t)
    return statistics.median(out)
sys.path[:0] = sys.argv[1:3]
job = pickle.loads(sys.stdin.buffer.read())
base = hwm_kib()
import numpy, refclock
before = ticks()
t0, c0 = time.perf_counter(), time.process_time()
import hqc128
sk = hqc128.deserialize_sk(job["sk_bytes"])
took = min(time.perf_counter() - t0, time.process_time() - c0)
after = ticks()
import workloads
runner = workloads.Runner(types.SimpleNamespace(**job))
ok = hqc128.serialize_sk(sk) == job["sk_bytes"]
ok &= all([runner.checked(i)[0] for i in range(len(job["items"]))])
print(took, (before + after) / 2, ok, (hwm_kib() - base) / 1024)
"""


def environment() -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail_ms(samples: list[float]) -> tuple[str, float]:
    """Highest percentile (at most p99) with at least ten samples beyond it,
    by nearest rank, with its name."""
    n = len(samples)
    q = min(99.0, 100.0 * (1 - 10 / n)) if n > 10 else 50.0
    value = sorted(samples)[max(1, math.ceil(q / 100 * n)) - 1]
    return f"p{q:.4g}", value * 1e3


def closed_loop(runner, seconds: float, tracer=None, counted=None,
                min_ops: int = 1) -> dict:
    """Run ops 0, 1, 2, ... back to back until `seconds` have passed and at
    least `min_ops` ops ran; the first COUNT_OPS run with `counted` collecting.

    Each op is preceded by a reference-clock tick; `phases` holds times at
    reference speed, `raw` the same times unscaled, and `busy_s` the whole
    loop's wall time at reference speed without the ticks. Timings go into
    arrays so that the run's own memory barely grows with its length.
    """
    from hqc128 import counters
    clock = refclock.Clock()
    done = array("q")
    wall = array("d")
    raw = defaultdict(lambda: array("d"))
    failed = preempted = 0
    i = 0
    gc.collect()
    deadline = perf_counter() + seconds
    while i < min_ops or perf_counter() < deadline:
        clock.tick(i)
        t0, c0 = perf_counter(), process_time()
        if tracer is not None:
            tracer.op = i
        if counted is not None and i < COUNT_OPS:
            with counters.collecting(counted):
                ok, ph = runner.checked(i)
        else:
            ok, ph = runner.checked(i)
        failed += not ok
        elapsed = perf_counter() - t0
        wall.append(elapsed)
        preempted += elapsed - (process_time() - c0) > PREEMPTED_S
        if ph:
            done.append(i)
            for name, t in ph.items():
                raw[name].append(t)
        i += 1
    factors = clock.factors()
    phases = {name: [t * factors[op] for op, t in zip(done, ts)]
              for name, ts in raw.items()}
    return {"attempted": i, "failed": failed, "preempted": preempted,
            "phases": phases, "raw": raw,
            "busy_s": sum(t * f for t, f in zip(wall, factors)),
            "factors": dict(zip(clock.ids, factors)),
            "ref_ms": statistics.median(clock.refs) * 1e3}


def setup_and_memory(inputs) -> dict:
    """SETUP_REPS set-up interpreters (SETUP_CHILD), after one warm-up."""
    job = pickle.dumps({"workload": inputs.workload, "sk_bytes": inputs.sk_bytes,
                        "pk_bytes": inputs.pk_bytes,
                        "items": inputs.items[:MEMORY_OPS]})
    raw, refs, rss = [], [], []
    for rep in range(SETUP_REPS + 1):
        out = subprocess.run([sys.executable, "-I", "-c", SETUP_CHILD, str(SRC), str(HERE)],
                             input=job, capture_output=True, timeout=120,
                             check=True).stdout.split()
        if out[2] != b"True":
            raise RuntimeError("a set-up interpreter gave a wrong key or verdict")
        if rep:
            raw.append(float(out[0]))
            refs.append(float(out[1]))
            rss.append(float(out[3]))
    scaled = [t * refclock.REF_S / r for t, r in zip(raw, refs)]
    return {"setup_s": statistics.median(scaled), "setup_s_all": scaled,
            "raw_setup_s_all": raw, "peak_rss_mib": statistics.median(rss),
            "peak_rss_mib_all": rss}


def pin_digest(workload: str) -> tuple[str, int]:
    """SHA3-256 over the wire objects of the default seed's first PIN_OPS ops,
    and how many of those ops gave a wrong verdict."""
    import workloads
    runner = workloads.Runner(workloads.Inputs(workload, DEFAULT_SEED, PIN_OPS))
    wrong = sum(not runner.checked(i)[0] for i in range(PIN_OPS))
    return runner.digest.hexdigest(), wrong


def end_to_end(workload: str, inputs, runner, seconds: float, notes: dict):
    import workloads
    setup = setup_and_memory(inputs)
    loop = closed_loop(runner, seconds)
    ph, raw = loop["phases"], loop["raw"]
    tail_name, tail = tail_ms(ph["op"])
    attempted, failed = loop["attempted"], loop["failed"]
    # Only handshake runs keygen and encaps in its op. Every workload must
    # report every end-to-end metric, so the server workloads time them on a
    # short handshake run after their own loop; compare them on handshake.
    side = ph
    if workload != "handshake":
        client = workloads.Inputs("handshake", inputs.seed, SIDE_OPS)
        hs = closed_loop(workloads.Runner(client), 0, min_ops=SIDE_OPS)
        side = hs["phases"]
        attempted += hs["attempted"]
        failed += hs["failed"]
        notes.update(handshake_side_ops=hs["attempted"])
    notes.update(
        attempted=loop["attempted"], failed=loop["failed"],
        preempted=loop["preempted"], op_ms_tail_percentile=tail_name,
        ref_kernel_ms_p50=loop["ref_ms"],
        raw_op_ms_p50=statistics.median(raw["op"]) * 1e3,
        raw_op_ms_tail=tail_ms(raw["op"])[1],
        raw_decaps_ms_p50=statistics.median(raw["decaps"]) * 1e3,
        **{k: v for k, v in setup.items() if k.endswith("_all")})
    return {"attempted": attempted, "failed": failed}, {
        "op_ms.p50": statistics.median(ph["op"]) * 1e3,
        "op_ms.p99": tail,
        "ops_per_s": loop["attempted"] / loop["busy_s"],
        "keygen_ms.p50": statistics.median(side["keygen"]) * 1e3,
        "encaps_ms.p50": statistics.median(side["encaps"]) * 1e3,
        "decaps_ms.p50": statistics.median(ph["decaps"]) * 1e3,
        "setup_s": setup["setup_s"],
        "peak_rss_mib": setup["peak_rss_mib"],
    }


def per_layer(workload: str, inputs, runner, seconds: float, notes: dict):
    import numpy as np
    import spans
    import workloads
    from hqc128 import codes, costmodel, counters
    from hqc128.params import hqc128

    untraced = closed_loop(runner, seconds / 2)
    counted = counters.Counters()
    clock = refclock.Clock()    # ticks for the set-up and probe spans

    def label(op_id):
        clock.tick(op_id)
        tr.op = op_id

    with spans.Tracer() as tr:
        if workload != "handshake":
            label("setup")
            inputs.replay_client(REPLAY_ITEMS)
        traced = closed_loop(runner, seconds / 2, tracer=tr, counted=counted,
                             min_ops=COUNT_OPS)
        probe_wrong = 0
        if workload != "server_reject":
            probe_wrong = workloads.rs_probe(
                inputs.seed, PROBE_REPS, lambda e, r: label(f"probe-e{e}-{r}"))
    OUT.mkdir(exist_ok=True)
    tr.write_csv(OUT / f"{workload}-seed{inputs.seed}.spans.csv")

    stats = spans.SpanStats(tr, {**dict(zip(clock.ids, clock.factors())),
                                 **traced["factors"]})
    n_ops = traced["attempted"]

    def in_ops(op):
        return isinstance(op, int)

    def in_count(op):
        return isinstance(op, int) and op < COUNT_OPS

    def calls(name):
        return stats.calls(name, in_count) / COUNT_OPS

    def self_ms(*names):
        return sum(stats.self_s(n, in_ops) for n in names) * 1e3 / n_ops

    def p50(name):
        """Per-call median over the ops' calls, or over the set-up calls for a
        layer the workload's op never calls."""
        keep = in_ops if stats.calls(name, in_ops) else (lambda op: op == "setup")
        return stats.p50_ms(name, keep)

    def rs_p50(errors):
        if workload == "server_reject":
            return stats.p50_ms("codes.rs_decode",
                                lambda op: in_ops(op) and inputs.label(op) == errors)
        return stats.p50_ms("codes.rs_decode",
                            lambda op: str(op).startswith(f"probe-e{errors}-"))

    p = hqc128()
    words = tr.kept_args("codes.rs_decode", in_ops)
    nonzero = sum(bool(codes.rs_syndromes(np.frombuffer(w, np.uint8), p).any())
                  for w in words)
    kept = sum(tr.kept_args("sampling.sample_fixed_weight", in_count))
    split = {e: rs_p50(e) for e in workloads.REJECT_ERRORS}
    m = {
        "poly_ring.mul_sparse_dense.calls": calls("poly_ring.mul_sparse_dense"),
        "poly_ring.mul_sparse_dense.ms_per_call.p50": p50("poly_ring.mul_sparse_dense"),
        "poly_ring.mul_sparse_dense.self_ms": self_ms("poly_ring.mul_sparse_dense"),
        "poly_ring.ct_equal.calls": calls("poly_ring.ct_equal"),
        "poly_ring.ct_equal.ms_per_call.p50": p50("poly_ring.ct_equal"),
        "poly_ring.dense_from_sparse.ms_per_call.p50": p50("poly_ring.dense_from_sparse"),
        "poly_ring.DensePoly.to_bytes.calls": calls("poly_ring.DensePoly.to_bytes"),
        "poly_ring.ring_word_ops": counted.ring_word_ops / COUNT_OPS,
        "sampling.sample_fixed_weight.calls": calls("sampling.sample_fixed_weight"),
        "sampling.sample_fixed_weight.ms_per_call.p50": p50("sampling.sample_fixed_weight"),
        "sampling.draw_accept_ratio": kept / counted.samples_drawn,
        "sampling.samples_drawn": counted.samples_drawn / COUNT_OPS,
        "sampling.Xof.squeeze.self_ms": self_ms("sampling.Xof.squeeze"),
        "sampling.sample_uniform_dense.ms_per_call.p50": p50("sampling.sample_uniform_dense"),
        "sampling.hash.self_ms": self_ms("sampling.hash_g", "sampling.hash_h",
                                         "sampling.hash_k"),
        "sampling.keccak_permutations": counted.keccak_permutations / COUNT_OPS,
        "codes.code_encode.ms_per_call.p50": p50("codes.code_encode"),
        "codes.code_decode.ms_per_call.p50": p50("codes.code_decode"),
        "codes.rm_stage.self_ms": self_ms("codes.code_decode"),
        "codes.rs_decode.ms_per_call.p50": p50("codes.rs_decode"),
        **{f"codes.rs_decode.e{e}.ms_per_call.p50": v for e, v in split.items()},
        "codes.rs_decode.spread": (max(split[e] for e in (0, 1, 5, 15))
                                   / min(split[e] for e in (0, 1, 5, 15))),
        "codes.rs_decode.nonzero_syndrome_ratio": nonzero / len(words),
        "codes.rm_blocks_decoded": counted.rm_blocks_decoded / COUNT_OPS,
        "gf256.gf_mul.self_ms": self_ms("gf256.gf_mul"),
        "gf256.gf_mul_vec.self_ms": self_ms("gf256.gf_mul_vec"),
        "gf256.gf_inverse.self_ms": self_ms("gf256.gf_inverse"),
        "gf256.gf_muls": counted.gf_muls / COUNT_OPS,
        "kem.pke_encrypt.self_ms": self_ms("kem.pke_encrypt"),
        "kem.pke_decrypt.self_ms": self_ms("kem.pke_decrypt"),
        "kem.deserialize_ct.ms_per_call.p50": p50("kem.deserialize_ct"),
        "kem.deserialize_pk.ms_per_call.p50": p50("kem.deserialize_pk"),
        "kem.serialize_ct.ms_per_call.p50": p50("kem.serialize_ct"),
        "kem.decaps.self_ms": self_ms("kem.decaps"),
        "tracing_overhead": (statistics.median(traced["phases"]["op"])
                             / statistics.median(untraced["phases"]["op"])),
    }
    zero = bytes(p.seed_bytes)
    for phase in costmodel.PHASES:
        prof = costmodel.profile(phase, zero, p)
        for c in COUNTERS:
            m[f"costmodel.{phase}.{c}"] = getattr(prof, c)
        for cfg in ("none", "all"):
            est = costmodel.estimate_cycles(getattr(costmodel.AcceleratorConfig, cfg)(), prof)
            m[f"costmodel.{phase}.{cfg}.total_cycles"] = est.total
    loop = {"attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"] + probe_wrong}
    notes.update(attempted_untraced=untraced["attempted"], attempted_traced=n_ops,
                 ref_kernel_ms_p50=traced["ref_ms"],
                 spans=len(tr.spans), rs_probe_wrong=probe_wrong,
                 rs_decode_calls_checked=len(words))
    return loop, m


def run_workload(args, spec: dict) -> int:
    import workloads

    loadavg_before = os.getloadavg()
    notes: dict = {}
    pin, pin_wrong = pin_digest(args.workload)
    pins = json.loads((HERE / "pins.json").read_text())
    inputs = workloads.Inputs(args.workload, args.seed)
    if args.workload == "server_reject":
        notes["decode_kept"] = {f"e{e}": f"{k}/{n}" for e, (k, n)
                                in inputs.decode_kept.items() if n}
    runner = workloads.Runner(inputs)
    measure = per_layer if args.trace else end_to_end
    loop, metrics = measure(args.workload, inputs, runner, args.seconds, notes)

    key = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[key]}
    units = ({n: u for n, (u, _) in PER_LAYER.items()} if args.trace
             else END_TO_END_UNITS)
    problems = [f"wrong verdicts: {e}" for e in runner.errors]
    if pin != pins.get(args.workload):
        problems.append(f"output digest {pin} differs from the pinned one")
    if pin_wrong:
        problems.append(f"{pin_wrong} wrong verdicts among the default seed's ops")
    if declared != units or set(metrics) != set(units):
        problems.append("metrics differ from BENCHMARK.json")
    correct = loop["failed"] == 0 and not problems
    result = {
        "correct": correct,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": {n: {"value": metrics[n], "unit": units[n]}
                    for n in units if n in metrics},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "loadavg_before": loadavg_before, "loadavg_after": os.getloadavg(),
              "pin_digest": pin, "run_digest": runner.digest.hexdigest(),
              "fail_ratio": loop["failed"] / loop["attempted"],
              "problems": problems, "notes": notes, "result": result}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for k in ("environment", "loadavg_before", "loadavg_after", "pin_digest", "notes"):
        print(f"# {k}: {json.dumps(record[k])}")
    for p in problems:
        print(f"# PROBLEM: {p}")
    print(f"{'fail_ratio':<48}{record['fail_ratio']:>16.6g}  "
          f"({loop['failed']}/{loop['attempted']})")
    for name, m in result["metrics"].items():
        print(f"{name:<48}{m['value']:>16.6g}  {m['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process)."""
    metrics = {}
    attempted = failed = 0
    correct = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        if not lines or proc.returncode not in (0, 1):
            print(f"# {workload}: benchmark failed with exit code {proc.returncode}")
            correct = False
            continue
        res = json.loads(lines[-1])
        correct &= res["correct"] and proc.returncode == 0
        attempted += res["attempted"]
        failed += res["failed"]
        for name, m in res["metrics"].items():
            metrics[f"{workload}.{name}"] = m
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "hqc128" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: run from a checkout holding src/hqc128 and BENCHMARK.json "
              f"(looked in {ROOT})", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import hqc128
    if SRC not in Path(hqc128.__file__).resolve().parents:
        print(f"error: imported hqc128 from {hqc128.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
