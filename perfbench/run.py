#!/usr/bin/env python3
"""Build and run the repository benchmark, or compare two of its reports.

Run from the root of the repository:

    python3 perfbench/run.py --workload suite-p8 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload observed-p8 --seed 1 --seconds 15 --trace 1 \
        --report traced.json --spans spans.jsonl
    python3 perfbench/run.py --compare base.json new.json

The first form builds perfbench/perfbench.exe (release profile, in
_perfbench_build/) and passes every argument through to it; its last line
of output is one JSON object.  --compare reads two files written with
--report and compares them metric by metric against the bounds in
BENCHMARK.json; it refuses to compare timings taken on hosts whose
fingerprints (CPU model, nproc, OCaml version, build profile) differ.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, "_perfbench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 175

# Metrics that are host timings: compared only between equal fingerprints.
TIMING_UNITS = {"s", "1/s", "ns", "ms", "x"}


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "--cache", "disabled", "--display", "quiet",
           "./perfbench/perfbench.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return False
    return done.returncode == 0 and os.path.exists(EXE)


def run(args):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        done = subprocess.run([EXE] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return done.returncode


def load(path):
    with open(path) as f:
        return json.load(f)


def bounds():
    try:
        spec = load(os.path.join(ROOT, "BENCHMARK.json"))
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def compare(base_path, new_path):
    base, new = load(base_path), load(new_path)
    if base["workload"] != new["workload"]:
        print(f"incomparable: workloads differ ({base['workload']} vs {new['workload']})")
        return 3
    same_host = base["fingerprint"] == new["fingerprint"]
    if not same_host:
        print("host fingerprints differ; timings are incomparable:")
        for k in sorted(set(base["fingerprint"]) | set(new["fingerprint"])):
            a, b = base["fingerprint"].get(k), new["fingerprint"].get(k)
            if a != b:
                print(f"  {k}: {a!r} vs {b!r}")
    limits = bounds()
    old = {m["name"]: m for m in base["metrics"]}
    worse = 0
    for m in new["metrics"]:
        name, b = m["name"], old.get(m["name"])
        if b is None:
            continue
        if m["unit"] in TIMING_UNITS and not same_host:
            print(f"  {name:36s} incomparable (host timing)")
            continue
        ratio = m["value"] / b["value"] if b["value"] else float("inf") if m["value"] else 1.0
        change = ratio - 1.0 if m["better"] == "lower" else 1.0 - ratio
        bound = limits.get(name)
        verdict = ""
        if bound is not None and change > bound:
            verdict = f"  WORSE than bound {bound}"
            worse += 1
        print(f"  {name:36s} {b['value']:.6g} -> {m['value']:.6g} {m['unit']}"
              f"  ({ratio:.4f}x){verdict}")
    if not same_host:
        return 3
    return 1 if worse else 0


def main(argv):
    if argv[:1] == ["--compare"]:
        if len(argv) != 3:
            print("usage: run.py --compare BASE.json NEW.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
