#!/usr/bin/env python3
"""Build the perfbench program from source and run one benchmark workload.

Run from the repository root:

  python3 perfbench/run.py --workload batch_paper --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --self-check

The last line of standard output is the result:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1. The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). Simulated numbers, recall and the neighbor digest of
every run are kept there too, keyed by the binary's hash, workload, seed and
length; a later run of the same binary that disagrees counts as failed.

The program reports metrics by name; the names and units come from
BENCHMARK.json alone. A name it does not list is an error; a per-layer metric
a workload does not emit (a layer it bypasses) reads 0.

--self-check runs all three workloads at a tiny size (seconds each) and
asserts that every end-to-end metric is emitted by every workload and every
per-layer metric by at least one.
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch_paper", "online_zipf", "fleet_rw")
RUN_LIMIT_S = 175  # a run must end within 180 s


def die(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("library sources (src/) not found next to perfbench/")
    bdir = build_dir()
    try:
        # Configure on every call: the library stamps the git SHA into its
        # provenance at configure time, and only that file recompiles when
        # it changes.
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", bdir, "-j",
                        str(os.cpu_count() or 1)],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        die(f"build failed: {e}")
    return os.path.join(bdir, "perfbench")


def binary_hash(exe):
    h = hashlib.sha256()
    with open(exe, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def run_program(exe, args, deadline):
    """Run the program, echo its progress lines, return its JSON record."""
    try:
        proc = subprocess.run([exe] + args, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        die("perfbench exceeded the run time limit")
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        die(f"perfbench exited with code {proc.returncode}")
    return json.loads(lines[-1])


def check_signature(exe, record, seconds):
    """Compare the run's exact values with an earlier run of this binary."""
    path = os.path.join(build_dir(), "signatures.json")
    key = "/".join([binary_hash(exe), record["workload"], str(record["seed"]),
                    repr(seconds), "tiny" if record["tiny"] else "full"])
    try:
        with open(path) as f:
            stored = json.load(f)
    except (OSError, ValueError):
        stored = {}
    sig = record["signature"]
    prev = stored.get(key)
    if prev is None:
        stored[key] = sig
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(stored, f, indent=1, sort_keys=True)
        os.replace(tmp, path)
        return []
    return sorted(k for k in set(prev) | set(sig) if prev.get(k) != sig.get(k))


def expected_metrics():
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def with_units(values, units, zero_fill):
    """Attach units to the program's name -> value map."""
    unknown = sorted(set(values) - set(units))
    if unknown:
        die(f"metrics not listed in BENCHMARK.json: {', '.join(unknown)}")
    missing = sorted(set(units) - set(values))
    if missing and not zero_fill:
        die(f"metrics not emitted: {', '.join(missing)}")
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in units.items()}


def run_once(exe, workload, seed, seconds, trace, tiny, deadline):
    """The benchmark result, and the per-layer names the program emitted."""
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(trace)]
    if tiny:
        args.append("--tiny")
    record = run_program(exe, args, deadline)
    attempted, failed = record["attempted"], record["failed"]
    correct = record["correct"]
    for e in record["errors"]:
        print(f"correctness: {e}")
    attempted += 1
    diffs = check_signature(exe, record, seconds)
    if diffs:
        failed += 1
        correct = False
        print("correctness: differs from an earlier run of the same binary: "
              + ", ".join(diffs))
    e2e, layers = expected_metrics()
    if trace:
        metrics = with_units(record["per_layer"], layers, zero_fill=True)
    else:
        metrics = with_units(record["end_to_end"], e2e, zero_fill=False)
    return ({"correct": correct, "attempted": attempted, "failed": failed,
             "metrics": metrics}, set(record.get("per_layer", {})))


def self_check():
    exe = build()
    e2e, layers = expected_metrics()
    problems = []
    emitted = set()
    for workload in WORKLOADS:
        for trace, want in ((0, e2e), (1, layers)):
            t0 = time.monotonic()
            res, names = run_once(exe, workload, 7, 1.0, trace, True,
                                  t0 + RUN_LIMIT_S)
            tag = f"{workload} trace={trace}"
            if not res["correct"] or res["failed"]:
                problems.append(f"{tag}: correctness checks failed")
            emitted |= names
            for name in want:
                m = res["metrics"][name]
                if not math.isfinite(m["value"]):
                    problems.append(f"{tag}: {name} is not finite")
                elif trace == 0 and m["value"] <= 0:
                    problems.append(f"{tag}: {name} is not positive")
            print(f"self-check: {tag} ran in {time.monotonic() - t0:.1f} s")
    for name in sorted(set(layers) - emitted):
        problems.append(f"per-layer {name} is emitted by no workload")
    for p in problems:
        print(f"self-check FAILED: {p}")
    print("self-check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-check", action="store_true")
    a = ap.parse_args()
    if a.self_check:
        return self_check()
    if a.workload is None or a.seed is None or a.seconds is None \
            or a.trace is None or a.seed < 0 or not a.seconds > 0:
        ap.error("--workload, --seed >= 0, --seconds > 0 and --trace "
                 "are required")
    exe = build()
    result, _ = run_once(exe, a.workload, a.seed, a.seconds, a.trace, False,
                         time.monotonic() + RUN_LIMIT_S)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
