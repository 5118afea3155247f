#!/usr/bin/env python3
"""Check that the benchmark is steady, correct and deterministic.

    python3 perfbench/validate.py [workload ...]

Run from the repository root. For each workload (default: every workload in
BENCHMARK.json) it runs perfbench/run.py RUNS times untraced, with seeds
FIRST_SEED, FIRST_SEED + 1, ..., and TRACED times traced (the first traced
run reuses the first untraced seed, so the pair gives the tracing
overhead). Each run lasts run_seconds from BENCHMARK.json. It prints, per
end-to-end metric, the median and the spread (first-to-third quartile
distance as a share of the median) against a third of the metric's bound in
BENCHMARK.json, and fails when

  - any run reports failed operations or correct = false,
  - a spread is not below a third of its bound,
  - a deterministic figure differs between runs or seeds: sim_*,
    exec.bootstraps_per_circuit, exec.extractions_per_circuit, exec.depth.
"""

import json
import os
import pathlib
import subprocess
import sys
from statistics import median

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
DETERMINISTIC = ("sim_circuits_per_s", "sim_mj_per_circuit",
                 "exec.bootstraps_per_circuit", "exec.extractions_per_circuit",
                 "exec.depth")
RUNS = 10
TRACED = 2
FIRST_SEED = 101


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True).stdout.splitlines()
    e2e = None
    for line in out:
        prefix = "end-to-end figures of this traced run: "
        if line.startswith(prefix):
            e2e = json.loads(line[len(prefix):])
    return json.loads(out[-1]), e2e


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = sys.argv[1:] or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for w in workloads:
        seeds = [FIRST_SEED + i for i in range(RUNS)]
        untraced = [run(w, s, seconds, 0)[0] for s in seeds]
        traced = [run(w, seeds[0] + i, seconds, 1) for i in range(TRACED)]
        results = untraced + [t[0] for t in traced]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        wrong_runs = sum(not r["correct"] for r in results)
        print(f"\n== {w}: {len(results)} runs, {failed} of {attempted} "
              f"operations failed, {wrong_runs} runs not correct")
        ok &= failed == 0 and wrong_runs == 0
        print(f"{'metric':24}{'median':>14}{'spread':>9}{'bound/3':>9}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in untraced]
            sp = stats.spread(values)
            steady = sp < bound / 3
            ok &= steady
            print(f"{name:24}{median(values):14.6g}{sp:9.4f}"
                  f"{bound / 3:9.4f}{'' if steady else '  NOT STEADY'}")
        for name in DETERMINISTIC:
            values = {r["metrics"][name]["value"] for r in results
                      if name in r["metrics"]}
            if len(values) > 1:
                print(f"{name} differs between runs: {sorted(values)}")
                ok = False
        if traced[0][1] is not None:
            base, seen = untraced[0]["metrics"], traced[0][1]
            diffs = ", ".join(
                f"{k} {100 * (seen[k] / base[k]['value'] - 1):+.1f}%"
                for k in bounds)
            print(f"tracing overhead (seed {seeds[0]}, traced vs untraced): {diffs}")
    print("\nvalidate: " + ("OK" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
