#!/usr/bin/env python3
"""Fail CI when a commit regresses the tracked perf metrics.

Usage:
  bench_trend.py <previous/BENCH_batch_throughput.json> <current/...json>
  bench_trend.py <previous-dir> <current-dir>

With directories, every known BENCH_*.json present in BOTH trees is compared
(batch_throughput + micro_kernels today).

Two metric classes, two tolerances:
  * deterministic functions of the code (optimizer bootstrap counts,
    simulated chip makespans): 0.5% slack, just enough to absorb the JSON
    emitter's %.6g rounding -- any real model/optimizer change lands far
    outside it.
  * measured software latency (the micro-kernel software-bootstrap ns/op):
    a wide tolerance band for runner noise; only a real slowdown of the
    spectral engine trips it. Paths are compared only when both runs used
    the same SIMD level (simd_active), so a runner without AVX2 never
    diffs apples against oranges. Rows that carry a median beside their
    gated min also report the current run's own spread, (median - min) /
    min: above the band, a WARN line says that run was too noisy for its
    comparison to tell a regression from host noise (a warning, not a
    failure; the band itself is unchanged).

A missing baseline (first run on a branch, expired artifact) is a skip, not
a failure.
"""
import json
import os
import sys

TOLERANCE = 0.005        # deterministic metrics
SW_LATENCY_TOLERANCE = 0.35  # measured ns/op band for runner noise


def load(path):
    with open(path) as f:
        return json.load(f)


def check(label, prev, cur, failures, tolerance=TOLERANCE, lower_is_better=True):
    if prev is None or cur is None:
        return
    worse = cur > prev * (1 + tolerance) if lower_is_better else cur < prev * (1 - tolerance)
    line = f"  {label}: {prev:g} -> {cur:g}"
    if worse:
        failures.append(line)
        print(f"REGRESSION{line}")
    else:
        print(f"ok        {line}")


def warn_spread(label, row, field):
    """WARN when the current run's own spread of a gated min/median row
    exceeds the noise band."""
    lo, med = row.get(field), row.get(f"{field}_median")
    if lo is None or med is None or lo <= 0:
        return
    spread = (med - lo) / lo
    if spread > SW_LATENCY_TOLERANCE:
        print(f"WARN        {label}: own spread {spread:.0%} (min {lo:g}, "
              f"median {med:g}) exceeds the {SW_LATENCY_TOLERANCE:.0%} band; "
              f"this comparison cannot tell a regression from host noise")


def by_key(rows, *keys):
    return {tuple(r[k] for k in keys): r for r in rows}


def compare_batch_throughput(prev, cur, failures):
    # Optimizer output: post-rewrite bootstrap counts AND critical-path
    # depths must never creep up, for every circuit in the sweep (mul8+cmp,
    # the bundle, the MUX-tree and XOR-chain reduction circuits). depth_fused
    # is absent from pre-round-2 baselines; check() skips the None.
    p = by_key(prev.get("fusion", []), "circuit")
    c = by_key(cur.get("fusion", []), "circuit")
    for key in sorted(p.keys() & c.keys()):
        check(f"fusion[{key[0]}].bootstraps_fused",
              p[key]["bootstraps_fused"], c[key]["bootstraps_fused"], failures)
        check(f"fusion[{key[0]}].depth_fused",
              p[key].get("depth_fused"), c[key].get("depth_fused"), failures)

    # Simulated chip: circuit makespans (dependency-aware scheduler).
    p = by_key(prev.get("sim_circuit", []), "circuit", "unroll_m")
    c = by_key(cur.get("sim_circuit", []), "circuit", "unroll_m")
    for key in sorted(p.keys() & c.keys()):
        check(f"sim_circuit[{key[0]},m={key[1]}].makespan_ms",
              p[key]["makespan_ms"], c[key]["makespan_ms"], failures)

    # Simulated chip: batch throughput.
    p = by_key(prev.get("sim_batch", []), "unroll_m", "batch")
    c = by_key(cur.get("sim_batch", []), "unroll_m", "batch")
    for key in sorted(p.keys() & c.keys()):
        check(f"sim_batch[m={key[0]},batch={key[1]}].makespan_ms",
              p[key]["makespan_ms"], c[key]["makespan_ms"], failures)

    # Batched blind rotation: per-sample bootstrap latency of every
    # (path, mode) row, same runner-noise band as the keyswitch gate. Only
    # compared when both runs used the same SIMD kernel set.
    if prev.get("simd_kernels") == cur.get("simd_kernels"):
        p = by_key(prev.get("blind_rotate", []), "path", "mode")
        c = by_key(cur.get("blind_rotate", []), "path", "mode")
        for key in sorted(p.keys() & c.keys()):
            check(f"blind_rotate[{key[0]},{key[1]}].us_per_sample",
                  p[key]["us_per_sample"], c[key]["us_per_sample"], failures,
                  tolerance=SW_LATENCY_TOLERANCE)
    else:
        print(f"  blind_rotate: simd_kernels changed "
              f"({prev.get('simd_kernels')} -> {cur.get('simd_kernels')}); "
              f"latency comparison skipped")

    # Multi-chip sharding: per-chip-count makespans. Cut size is reported but
    # deliberately NOT gated since round 2: the objective is predicted
    # makespan, and the latency-aware partitioner trades cut wires (the link
    # idles below 0.01%) for chip-idle time on purpose.
    p = by_key(prev.get("multichip", []), "circuit", "unroll_m", "chips")
    c = by_key(cur.get("multichip", []), "circuit", "unroll_m", "chips")
    for key in sorted(p.keys() & c.keys()):
        tag = f"multichip[{key[0]},m={key[1]},chips={key[2]}]"
        check(f"{tag}.makespan_ms",
              p[key]["makespan_ms"], c[key]["makespan_ms"], failures)

    # Replicate-vs-shard policy: the chosen variant's whole-batch makespan
    # per (batch, chips) point must never creep up.
    p = by_key(prev.get("multichip_policy", []),
               "circuit", "unroll_m", "batch", "chips")
    c = by_key(cur.get("multichip_policy", []),
               "circuit", "unroll_m", "batch", "chips")
    for key in sorted(p.keys() & c.keys()):
        tag = f"multichip_policy[{key[0]},m={key[1]},batch={key[2]},chips={key[3]}]"
        check(f"{tag}.makespan_ms",
              p[key]["makespan_ms"], c[key]["makespan_ms"], failures)

    # Absolute acceptance floors (run even without a baseline): replication
    # must scale nearly linearly when the batch covers the chips, and the
    # latency-aware refinement must keep its headline win over greedy-KL on
    # the single-circuit 4-chip point.
    for row in cur.get("multichip_policy", []):
        if (row.get("circuit") == "mul8+cmp" and row.get("unroll_m") == 3
                and row.get("chips") == 4 and row.get("batch") == 4):
            speedup = row.get("throughput_speedup_vs_1chip", 0.0)
            line = (f"  multichip_policy[batch=4,chips=4,m=3]."
                    f"throughput_speedup_vs_1chip: {speedup:g} (floor 3.6)")
            if speedup < 3.6:
                failures.append(line)
                print(f"REGRESSION{line}")
            else:
                print(f"ok        {line}")
    for row in cur.get("multichip", []):
        if (row.get("circuit") == "mul8+cmp" and row.get("unroll_m") == 3
                and row.get("chips") == 4):
            gain = row.get("refine_gain", 0.0)
            line = (f"  multichip[mul8+cmp,m=3,chips=4].refine_gain: "
                    f"{gain:g} (floor 0.10)")
            if gain < 0.10:
                failures.append(line)
                print(f"REGRESSION{line}")
            else:
                print(f"ok        {line}")


def compare_micro_kernels(prev, cur, failures):
    # Software-bootstrap-latency gate: same-path ns/op within the noise band.
    if prev.get("simd_active") != cur.get("simd_active"):
        print(f"  micro_kernels: simd_active changed "
              f"({prev.get('simd_active')} -> {cur.get('simd_active')}); "
              f"latency comparison skipped")
        return
    p = by_key(prev.get("bootstrap", []), "path")
    c = by_key(cur.get("bootstrap", []), "path")
    for key in sorted(p.keys() & c.keys()):
        label = f"micro_kernels.bootstrap[{key[0]}].ns_op"
        check(label, p[key]["ns_op"], c[key]["ns_op"], failures,
              tolerance=SW_LATENCY_TOLERANCE)
        warn_spread(label, c[key], "ns_op")

    # Batched bundle-mode blind rotation, per sample: the sample-blocked
    # bundle-MAC's B = 4 row must not drift back toward B = 1.
    p = by_key(prev.get("bundle_step", []), "path", "batch")
    c = by_key(cur.get("bundle_step", []), "path", "batch")
    for key in sorted(p.keys() & c.keys()):
        label = f"micro_kernels.bundle_step[{key[0]},B={key[1]}].ns_per_sample"
        check(label, p[key]["ns_per_sample"], c[key]["ns_per_sample"],
              failures, tolerance=SW_LATENCY_TOLERANCE)
        warn_spread(label, c[key], "ns_per_sample")

    # Keyswitch gate: per-sample latency of every (path, mode) row present in
    # both runs -- the batch-amortized rows are the PR-6 headline and must not
    # drift back toward the per-sample cost.
    p = by_key(prev.get("keyswitch", []), "path", "mode")
    c = by_key(cur.get("keyswitch", []), "path", "mode")
    for key in sorted(p.keys() & c.keys()):
        label = f"micro_kernels.keyswitch[{key[0]},{key[1]}].ns_per_sample"
        check(label, p[key]["ns_per_sample"], c[key]["ns_per_sample"],
              failures, tolerance=SW_LATENCY_TOLERANCE)
        warn_spread(label, c[key], "ns_per_sample")


def check_fault_header(name, cur, failures):
    # Zero-overhead contract of the fault-injection layer: benches run with
    # the sites compiled in but INACTIVE, so the latency gates above double
    # as the "disabled sites are free" assertion. A bench that ran under
    # MATCHA_FAULTS measured the fault path, not the product -- reject the
    # data point outright (checked even when there is no baseline yet).
    if cur.get("faults_active"):
        line = f"  {name}: bench ran with fault injection ACTIVE"
        failures.append(line)
        print(f"REGRESSION{line}")
    elif "faults_compiled_in" in cur:
        print(f"ok          {name}: faults compiled_in="
              f"{cur['faults_compiled_in']} active=0")


COMPARATORS = {
    "BENCH_batch_throughput.json": compare_batch_throughput,
    "BENCH_micro_kernels.json": compare_micro_kernels,
}


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    prev_path, cur_path = sys.argv[1], sys.argv[2]
    failures = []
    compared = 0

    if os.path.isdir(cur_path):
        pairs = [(os.path.join(prev_path, name), os.path.join(cur_path, name),
                  fn) for name, fn in sorted(COMPARATORS.items())]
    else:
        fn = COMPARATORS.get(os.path.basename(cur_path),
                             compare_batch_throughput)
        pairs = [(prev_path, cur_path, fn)]

    for prev_file, cur_file, fn in pairs:
        try:
            cur = load(cur_file)
        except OSError:
            print(f"no current data at {cur_file}; skipped")
            continue
        check_fault_header(os.path.basename(cur_file), cur, failures)
        try:
            prev = load(prev_file)
        except OSError:
            print(f"no baseline at {prev_file}; skipped")
            continue
        print(f"-- {os.path.basename(cur_file)}")
        fn(prev, cur, failures)
        compared += 1

    if failures:
        print(f"\n{len(failures)} perf regression(s) vs previous commit:")
        for f in failures:
            print(f)
        return 1
    if compared == 0:
        print("no baseline found; trend check skipped")
    else:
        print("\nno regressions vs previous commit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
