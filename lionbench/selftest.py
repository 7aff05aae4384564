#!/usr/bin/env python3
"""Self-test of the benchmark itself: determinism, coverage and sensitivity.

    python3 lionbench/selftest.py

Run from the repository root (three to four minutes). Checks that:
  * two runs with the same seed print identical sim_* metrics, and another
    seed changes them (the seed reaches the program);
  * the traced run of every workload passes (it fails on its own if tracing
    changes the simulation or a coverage assertion trips) and reports every
    per-layer metric named in BENCHMARK.json;
  * a busy-wait injected into WorkloadGenerator::Next, or into
    PredictorInterface::OnTxn, raises host_us_per_txn and the matching layer
    metric beyond the host_us_per_txn bound on hotspot_lion, which calls
    both;
  * the OnTxn busy-wait leaves ycsb_2pc, which never calls the predictor,
    within that bound;
  * no injection changes any sim_* metric.
Exits non-zero on the first failed check.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}["host_us_per_txn"]
SPIN_NS = "2000"
PAIRS = 3


def run(workload, seed=1, seconds=6, trace=0, sub_runs=2, spin=None):
    cmd = [sys.executable, str(ROOT / "lionbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--sub-runs", str(sub_runs)]
    if spin:
        cmd += [spin, SPIN_NS]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"FAIL: {' '.join(cmd)} exited {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"FAIL: {' '.join(cmd)} reported an incorrect run")
    return {k: v["value"] for k, v in result["metrics"].items()}


def sim(metrics):
    return {k: v for k, v in metrics.items() if k.startswith("sim_")}


def check(ok, message):
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        sys.exit(1)


def host_ratio(workload, spin):
    """Median host_us_per_txn with the spin over without, from interleaved
    pairs; also checks that every pair simulated identically."""
    base, spun = [], []
    for _ in range(PAIRS):
        a = run(workload)
        b = run(workload, spin=spin)
        check(sim(a) == sim(b), f"{workload} {spin}: sim_* metrics unchanged")
        base.append(a["host_us_per_txn"])
        spun.append(b["host_us_per_txn"])
    return statistics.median(spun) / statistics.median(base)


def main():
    first = run("ycsb_2pc", seed=7, seconds=1, sub_runs=1)
    again = run("ycsb_2pc", seed=7, seconds=1, sub_runs=1)
    other = run("ycsb_2pc", seed=8, seconds=1, sub_runs=1)
    check(sim(first) == sim(again), "same seed: identical sim_* metrics")
    check(all(sim(first)[k] != sim(other)[k]
              for k in ("sim_p50_us", "sim_abort_pct", "sim_bytes_per_txn")),
          "other seed: sim_* metrics change")

    layer_names = {m["name"] for m in SPEC["per_layer"]}
    for workload in (w["name"] for w in SPEC["workloads"]):
        traced = run(workload, trace=1)
        check(set(traced) == layer_names, f"{workload} traced: every per-layer metric")

    ratio = host_ratio("hotspot_lion", "--spin-next-ns")
    check(ratio > 1 + BOUND, f"hotspot_lion Next spin: host_us_per_txn x{ratio:.2f}")
    ratio = host_ratio("hotspot_lion", "--spin-ontxn-ns")
    check(ratio > 1 + BOUND, f"hotspot_lion OnTxn spin: host_us_per_txn x{ratio:.2f}")
    ratio = host_ratio("ycsb_2pc", "--spin-ontxn-ns")
    check(abs(ratio - 1) <= BOUND, f"ycsb_2pc OnTxn spin: host_us_per_txn x{ratio:.2f}")

    base = run("hotspot_lion", trace=1)
    for spin, metric in (("--spin-next-ns", "workload.next_ns"),
                         ("--spin-ontxn-ns", "predictor.on_txn_ns")):
        spun = run("hotspot_lion", trace=1, spin=spin)
        ratio = spun[metric] / base[metric]
        check(ratio > 1 + BOUND, f"hotspot_lion {spin}: {metric} x{ratio:.2f}")
    print("selftest passed")


if __name__ == "__main__":
    main()
