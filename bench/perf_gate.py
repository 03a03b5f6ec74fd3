#!/usr/bin/env python3
"""Gate host wall-clock on paired parent-vs-change perfbench runs.

Run from anywhere:

  python3 bench/perf_gate.py PARENT [CHANGE]

PARENT and CHANGE are checkouts of the repository; CHANGE defaults to the
checkout that holds this script. Each side builds and runs its own
perfbench/run.py with its own CARGO_TARGET_DIR (<side>/.bench_build), first
once with --self-check (build and warm-up, untimed), then in PAIRS pairs on
seeds 1..PAIRS at --seconds SECONDS: every workload at --trace 0 and
batch_paper at --trace 1. Within a pair the two sides run each
configuration back to back, and the side that runs first alternates from
pair to pair.

A gated metric fails when the change reads worse than the parent in at
least 9 of 10 pairs (ties count for neither) and its median is worse than
the parent's by more than the parent's interquartile range: the gain rule
of a claimed speed-up, mirrored. The same rule in the other direction marks
a metric `better`. Which way is better comes from the change's
BENCHMARK.json; a metric is compared only when both sides emit it. A run
that fails or reports `correct: false` or `failed > 0` stops the gate with
a message naming its side: a broken parent is not the change's fault.

Exit status: 0 when no gated metric fails, 1 when one does, 2 when a run
fails or the arguments are wrong.
"""
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PAIRS = 10
SECONDS = 3
RUNS = (("batch_paper", 0), ("online_zipf", 0), ("fleet_rw", 0),
        ("batch_paper", 1))
# End-to-end host metrics at --trace 0, and batch_paper's build substages
# at --trace 1. Simulated metrics and recall are exact per seed, and
# peak_rss_mb does not vary with host speed.
GATED = {
    0: ("setup_s", "host_qps", "batch_p50_ms", "batch_p90_ms", "req_p50_ms"),
    1: ("data.gen_s", "quant.coarse_kmeans_s", "ivf.coarse_assign_s",
        "quant.pq_train_s", "ivf.encode_s", "core.engine_load_s"),
}
RUN_TIMEOUT_S = 900  # a run builds incrementally, then perfbench caps it


def die(msg):
    print(f"perf_gate: {msg}", file=sys.stderr)
    sys.exit(2)


def run_side(side, root, args, what):
    """Run <root>/perfbench/run.py; return its last stdout line as JSON."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, ".bench_build"))
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py")] + args
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{side} {what} timed out after {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        sys.stdout.write(proc.stdout[-4000:])
        die(f"{side} {what} exited with code {proc.returncode}")
    lines = proc.stdout.splitlines()
    return lines[-1] if lines else ""


def directions(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["better"]
            for m in bench["end_to_end"] + bench["per_layer"]}


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def verdict(parent, change, better):
    """(worse pairs, better pairs, 'worse' | 'better' | '-')."""
    sign = 1 if better == "lower" else -1
    worse = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    need = math.ceil(0.9 * len(parent))
    q1, med_p, q3 = quartiles(parent)
    shift = sign * (statistics.median(change) - med_p)
    if worse >= need and shift > q3 - q1:
        return worse, wins, "worse"
    if wins >= need and -shift > q3 - q1:
        return worse, wins, "better"
    return worse, wins, "-"


def main(argv):
    if len(argv) not in (2, 3) or argv[1].startswith("-"):
        print("usage: perf_gate.py PARENT [CHANGE]", file=sys.stderr)
        return 2
    roots = {"parent": os.path.abspath(argv[1]),
             "change": os.path.abspath(argv[2] if len(argv) == 3
                                       else os.path.dirname(HERE))}
    for side, root in roots.items():
        if not os.path.isfile(os.path.join(root, "perfbench", "run.py")):
            die(f"{side} checkout {root} has no perfbench/run.py")
    better = directions(roots["change"])
    t_start = time.monotonic()

    for side, root in roots.items():
        t0 = time.monotonic()
        run_side(side, root, ["--self-check"], "self-check")
        print(f"{side}: built and self-checked in {time.monotonic() - t0:.0f} s",
              flush=True)

    # values[(workload, trace)][side] -> one metrics dict per pair
    values = {run: {"parent": [], "change": []} for run in RUNS}
    for seed in range(1, PAIRS + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for workload, trace in RUNS:
            for side in order:
                what = f"{workload} seed {seed} trace {trace}"
                t0 = time.monotonic()
                line = run_side(side, roots[side],
                                ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(SECONDS),
                                 "--trace", str(trace)], what)
                try:
                    res = json.loads(line)
                except ValueError:
                    die(f"{side} {what} printed no result line")
                if not res["correct"] or res["failed"] > 0:
                    die(f"{side} {what} failed its correctness checks "
                        f"(correct={res['correct']}, failed={res['failed']})")
                metrics = {k: v["value"] for k, v in res["metrics"].items()}
                values[(workload, trace)][side].append(metrics)
                shown = " ".join(f"{k}={metrics[k]:.4g}"
                                 for k in GATED[trace] if k in metrics)
                print(f"pair {seed:2d} {side:6s} {workload:11s} trace {trace} "
                      f"{time.monotonic() - t0:5.1f} s  {shown}", flush=True)

    print(f"\n{'workload':11s} {'metric':22s} {'better':6s} "
          f"{'parent median [q1, q3]':30s} {'change':>10s} worse/better "
          "verdict")
    failed = []
    for (workload, trace), sides in values.items():
        for name in GATED[trace]:
            if not all(name in m for s in sides.values() for m in s):
                print(f"{workload:11s} {name:22s} not emitted by both sides")
                continue
            p = [m[name] for m in sides["parent"]]
            c = [m[name] for m in sides["change"]]
            worse, wins, v = verdict(p, c, better[name])
            q1, med, q3 = quartiles(p)
            span = f"{med:.4g} [{q1:.4g}, {q3:.4g}]"
            print(f"{workload:11s} {name:22s} {better[name]:6s} {span:30s} "
                  f"{statistics.median(c):10.4g} {worse:5d}/{wins:<6d} {v}")
            if v == "worse":
                failed.append(f"{workload} {name}")
    print(f"\ngate wall time {(time.monotonic() - t_start) / 60:.1f} min")
    if failed:
        print("perf_gate FAILED: the change is worse on " + ", ".join(failed))
        return 1
    print("perf_gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
