#!/usr/bin/env python3
"""Smoke check for the benchmark, kept with it.

Runs every workload of BENCHMARK.json at the tiny size, once untraced and
once traced, and asserts that:

  * each run exits 0 and ends with the result line the contract names;
  * every end-to-end metric (untraced) and every per-layer metric (traced)
    is emitted with its declared unit, and the report gives its base;
  * the traced run's per-layer counts equal the untraced run's Stats.

Run from the root of the repository (takes about a minute):

    python3 perfbench/smoke.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, "_perfbench_build", "smoke")

# Per-layer count -> the Stats field it must equal.
COUNTS = {
    "runtime.migrations": "migrations",
    "runtime.futures": "futures",
    "runtime.steals": "steals",
    "cache.hits": "cache_hits",
    "cache.misses": "cache_misses",
    "cache.flushes": "cache_flushes",
    "cache.lines_invalidated": "lines_invalidated",
    "cache.invalidation_messages": "invalidation_messages",
    "cache.revalidations": "revalidations",
    "machine.messages": "messages",
    "machine.bytes": "bytes",
    "recovery.retries": "retries",
    "recovery.retry_cycles": "retry_cycles",
    "recovery.replica_messages": "replica_messages",
    "recovery.failover_messages": "failover_messages",
    "recovery.stall_cycles": "recovery_stall_cycles",
    "recovery.threads_lost": "threads_lost",
    "serving.admitted": "requests_admitted",
    "serving.completed": "requests_completed",
}

# Hostperf.events_of: the Stats fields one simulated event is counted from.
EVENT_FIELDS = ["migrations", "returns", "futures", "touches", "steals",
                "local_refs", "cacheable_reads", "cacheable_writes", "messages"]


def run(workload, trace):
    report = os.path.join(OUT, f"{workload}.trace{trace}.json")
    cmd = ["python3", os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny", "--report", report]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, f"{workload} trace={trace}: exit {done.returncode}\n{done.stdout}{done.stderr}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    with open(report) as f:
        return result, json.load(f)


def check_metrics(label, declared, result, report):
    emitted = result["metrics"]
    assert set(emitted) == {m["name"] for m in declared}, \
        f"{label}: metrics differ: {set(emitted) ^ {m['name'] for m in declared}}"
    bases = {m["name"]: m for m in report["metrics"]}
    for m in declared:
        got = emitted[m["name"]]
        assert got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']} != {m['unit']}"
        assert isinstance(got["value"], (int, float)), f"{label}: {m['name']} value"
        assert bases[m["name"]]["base"], f"{label}: {m['name']} has no base"
        assert bases[m["name"]]["better"] == m["better"], f"{label}: {m['name']} direction"


def main():
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        plain, plain_report = run(name, 0)
        check_metrics(f"{name} untraced", spec["end_to_end"], plain, plain_report)
        traced, traced_report = run(name, 1)
        check_metrics(f"{name} traced", spec["per_layer"], traced, traced_report)
        stats = plain_report["stats"]
        assert traced_report["traced_stats"] == stats, f"{name}: traced Stats differ"
        layer = traced["metrics"]
        for metric, field in COUNTS.items():
            assert layer[metric]["value"] == stats[field], \
                f"{name}: {metric} {layer[metric]['value']} != Stats.{field} {stats[field]}"
        events = sum(stats[k] for k in EVENT_FIELDS)
        assert layer["runtime.events"]["value"] == events, f"{name}: runtime.events"
        print(f"ok {name}")
    print("smoke: every workload emits every metric; traced counts match")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print(f"smoke FAILED: {e}", file=sys.stderr)
        sys.exit(1)
