#!/usr/bin/env python3
"""Byte-diff the CLI's exports against the parent's.

Run from anywhere:

  python3 bench/export_identity.py PARENT [CHANGE]

PARENT and CHANGE are checkouts of the repository; CHANGE defaults to the
checkout that holds this script. Each side builds its own upanns_cli
(<side>/.identity_build) and, in <side>/.identity_build/out, generates a
4000-point SIFT-like set and a cluster-ordered copy, builds a 32-cluster
index of each and runs six serves:

  offline       96 queries in batches of 32 on 16 DPUs, nprobe 8
  hosts4        the same on 4 hosts
  update        the same with --update-rate 0.25
  fleet_update  2 hosts with --update-rate 0.25 and --stats-every 1
  drift         192 drifting queries (--shift 64) on the cluster-ordered
                index with --adapt=copies --adapt-window 2
  drift_fleet   the same on 2 hosts

Every serve writes its trace, span log, metrics and Prometheus text. Two
figure programs run too, each with a JSON path: fig11_balance (Fig 11,
PIM-naive against UpANNS) and fig19_stage_breakdown (Fig 19, whose JSON
carries every stage second and per-DPU value at full precision). The gate
compares every one of those files, each serve's and figure's stdout and
the four data and index files between the sides, byte for byte, once the
JSON `provenance` object is dropped and each side's output directory is
replaced by a placeholder in stdout. It prints one line per artifact:
`identical`, or the first differing byte offset with both sizes.

A differing artifact fails unless it is declared: named, as <run>/<file>
(say `drift/trace.json`, `offline/stdout` or `fig19/fig19.json`), on a
line starting with
`GOLDEN:` that the change's CHANGES.md adds over the parent's, as in
bench/perf_gate.py. Both drift serves must report at least one adaptation
action, or the comparison would prove nothing about adaptation.

Exit status: 0 when every differing artifact is declared, 1 otherwise, 2
when a build or a command fails or the arguments are wrong.
"""
import os
import re
import shutil
import subprocess
import sys

from perf_gate import declared_names

HERE = os.path.dirname(os.path.abspath(__file__))
QUERIES = ["--queries", "96", "--batch", "32", "--dpus", "16", "--nprobe", "8"]
DRIFT = ["--queries", "192", "--batch", "32", "--dpus", "16", "--nprobe", "8",
         "--shift", "64", "--adapt=copies", "--adapt-window", "2"]
# run -> (index, flags); every run writes all four exports.
RUNS = {
    "offline": ("index", QUERIES),
    "hosts4": ("index", QUERIES + ["--hosts", "4"]),
    "update": ("index", QUERIES + ["--update-rate", "0.25"]),
    "fleet_update": ("index", QUERIES + ["--hosts", "2", "--update-rate",
                                         "0.25", "--stats-every", "1"]),
    "drift": ("drift_index", DRIFT),
    "drift_fleet": ("drift_index", DRIFT + ["--hosts", "2"]),
}
EXPORTS = {"--trace-out": "trace.json", "--spans-out": "spans.json",
           "--metrics-out": "metrics.json", "--prom-out": "metrics.prom"}
DATA = ("base.fvecs", "drift_base.fvecs", "index.bin", "drift_index.bin")
# run -> figure program; each writes <run>.json and its table to stdout.
FIGURES = {"fig11": "fig11_balance", "fig19": "fig19_stage_breakdown"}


def die(msg):
    print(f"export_identity: {msg}", file=sys.stderr)
    sys.exit(2)


def run(cmd, what):
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
        die(f"{what} exited with code {proc.returncode}")
    return proc.stdout


def build(side, root):
    """Build the side's upanns_cli and figure programs; return the build
    directory."""
    bdir = os.path.join(root, ".identity_build")
    run(["cmake", "-S", root, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
        f"{side} configure")
    run(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 2),
         "--target", "upanns_cli", *FIGURES.values()],
        f"{side} build")
    return bdir


def serve_all(side, cli, out):
    """Run the recipe into `out`; return {artifact: bytes}."""
    shutil.rmtree(out, ignore_errors=True)  # the CLI never overwrites
    os.makedirs(out)
    p = lambda name: os.path.join(out, name)
    run([cli, "gen", "--family", "sift", "--n", "4000", "--out",
         p("base.fvecs")], f"{side} gen")
    run([cli, "gen", "--family", "sift", "--n", "4000", "--cluster-order",
         "--out", p("drift_base.fvecs")], f"{side} gen")
    for data, index in (("base", "index"), ("drift_base", "drift_index")):
        run([cli, "build", "--data", p(data + ".fvecs"), "--clusters", "32",
             "--m", "16", "--build-threads", "2", "--out", p(index + ".bin")],
            f"{side} build {index}")
    artifacts = {}
    for name in DATA:
        with open(p(name), "rb") as f:
            artifacts[name] = f.read()
    for name, (index, flags) in RUNS.items():
        rdir = p(name)
        os.makedirs(rdir)
        data = "drift_base" if index == "drift_index" else "base"
        cmd = [cli, "serve", "--index", p(index + ".bin"), "--data",
               p(data + ".fvecs")] + flags
        for flag, file in EXPORTS.items():
            cmd += [flag, os.path.join(rdir, file)]
        stdout = run(cmd, f"{side} serve {name}")
        if name.startswith("drift"):
            m = re.search(r"(\d+) actions", stdout)
            if not m or int(m.group(1)) < 1:
                die(f"{side} serve {name} took no adaptation action")
        artifacts[f"{name}/stdout"] = stdout.replace(out, "<out>").encode()
        for file in EXPORTS.values():
            with open(os.path.join(rdir, file), "rb") as f:
                artifacts[f"{name}/{file}"] = drop_provenance(f.read())
    return artifacts


def figures_all(side, bdir, out):
    """Run each figure program into `out`; return {artifact: bytes}."""
    artifacts = {}
    for name, program in FIGURES.items():
        json_path = os.path.join(out, name + ".json")
        stdout = run([os.path.join(bdir, "bench", program), json_path],
                     f"{side} {program}")
        artifacts[f"{name}/stdout"] = stdout.replace(out, "<out>").encode()
        with open(json_path, "rb") as f:
            artifacts[f"{name}/{name}.json"] = drop_provenance(f.read())
    return artifacts


def drop_provenance(text):
    """Remove the `"provenance":{...}` member (and its comma) from JSON."""
    start = text.find(b'"provenance":{')
    if start < 0:
        return text
    depth, quoted, i = 0, False, text.index(b"{", start)
    while True:
        c = text[i:i + 1]
        if quoted:
            if c == b"\\":
                i += 1
            elif c == b'"':
                quoted = False
        elif c == b'"':
            quoted = True
        elif c == b"{":
            depth += 1
        elif c == b"}":
            depth -= 1
            if depth == 0:
                break
        i += 1
    end = i + 1
    if text[end:end + 1] == b",":
        end += 1
    return text[:start] + text[end:]


def first_difference(a, b):
    """Offset of the first differing byte, or None when a == b."""
    if a == b:
        return None
    step = 4096
    for lo in range(0, min(len(a), len(b)), step):
        if a[lo:lo + step] != b[lo:lo + step]:
            return lo + next(i for i, (x, y) in
                             enumerate(zip(a[lo:lo + step], b[lo:lo + step]))
                             if x != y)
    return min(len(a), len(b))


def main(argv):
    if len(argv) not in (2, 3) or argv[1].startswith("-"):
        print("usage: export_identity.py PARENT [CHANGE]", file=sys.stderr)
        return 2
    roots = {"parent": os.path.abspath(argv[1]),
             "change": os.path.abspath(argv[2] if len(argv) == 3
                                       else os.path.dirname(HERE))}
    artifacts = {}
    for side, root in roots.items():
        if not os.path.isfile(os.path.join(root, "CMakeLists.txt")):
            die(f"{side} checkout {root} has no CMakeLists.txt")
        bdir = build(side, root)
        out = os.path.join(bdir, "out")
        artifacts[side] = serve_all(
            side, os.path.join(bdir, "examples", "upanns_cli"), out)
        artifacts[side].update(figures_all(side, bdir, out))
    declared = declared_names(roots["parent"], roots["change"])
    parent, change = artifacts["parent"], artifacts["change"]
    undeclared = []
    for name in sorted(set(parent) | set(change)):
        a, b = parent.get(name), change.get(name)
        if a is None or b is None:
            status = "missing on the " + ("parent" if a is None else "change")
        else:
            at = first_difference(a, b)
            if at is None:
                print(f"{name:28s} identical ({len(a)} B)")
                continue
            status = (f"differs at byte {at} (parent {len(a)} B, "
                      f"change {len(b)} B)")
        ok = name in declared
        print(f"{name:28s} {status}  "
              + ("declared" if ok else "NOT declared"))
        if not ok:
            undeclared.append(name)
    if undeclared:
        print("export_identity FAILED: undeclared differences in "
              + ", ".join(undeclared))
        return 1
    print(f"export_identity passed: {len(parent)} artifacts")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
