#!/usr/bin/env python3
"""Build and run the security110 end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It builds perfbench/main.cpp against the
repository's sources into .bench_build/perfbench, runs the binary (one
process, one workload), turns its raw samples into metrics and prints them
as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones. The
metric -> layer -> workload map is in perfbench/README.md.
"""

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys
from statistics import median

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
BUILD = HERE.parent / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
MIB = 1024.0 * 1024.0
# Traced-run plausibility bands for the median over rounds of two ratios.
# Each sets a stage time against a reference timed under one timer right
# after it, on the same flush, so host drift hits both alike.
# - (blind rotation + keyswitch) / full bootstrap of the same samples. Its
#   medians read 0.93-1.02 (single rounds 0.94-1.07). Keyswitch is about
#   10% of a bootstrap, so counting it twice reads about 1.10, and blind
#   rotation twice about 1.9.
# - An FFT counter / (its calls x the per-call time of standalone
#   transforms), forward and inverse apart. Its medians read 0.65-1.01
#   (single rounds 0.76-1.09); a transform timed twice reads about 1.8.
SPLIT_FULL_BAND = (0.9, 1.08)
FFT_COUNTER_BAND = (0.5, 1.45)


def run_child(cmd, timeout, capture=False):
    """Run cmd in its own process group; kill the whole group on timeout.
    Child output goes to stderr unless captured."""
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, cmd)
    return out


def build():
    if not (BUILD / "CMakeCache.txt").exists():
        run_child(["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_child(["cmake", "--build", str(BUILD), "--target", "perfbench",
               "-j", jobs], BUILD_TIMEOUT_S)
    return BUILD / "perfbench"


def parse(text):
    """The binary's report: one "key value..." line per field, numbers kept
    exact. Every field is a list; a scalar is a list of one."""
    def value(token):
        for kind in (int, float):
            try:
                return kind(token)
            except ValueError:
                pass
        return token

    report = {}
    for line in text.splitlines():
        key, *tokens = line.split()
        report[key] = [value(t) for t in tokens]
    return report


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(d):
    ms = [ns / 1e6 for ns in d["requests.ns"]]
    tail_ms, tail_pct, n = stats.latency_tail(ms)
    print(f"latency_ms_tail is p{tail_pct:g} of {n} requests")
    window_s = d["window_ns"][0] / 1e9
    return {
        "latency_ms_p50": metric(median(ms), "ms"),
        "latency_ms_tail": metric(tail_ms, "ms"),
        "circuits_per_s": metric(
            stats.circuits_per_s(sum(d["requests.ok_items"]), window_s), "1/s"),
        "setup_s": metric(median(d["setup.total_ns"]) / 1e9, "s"),
        "peak_rss_mb": metric(d["peak_rss_kib"][0] / 1024.0, "MiB"),
        "sim_circuits_per_s": metric(
            d["batch"][0] * 1e3 / d["sim.makespan_ms"][0], "1/sim_s"),
        "sim_mj_per_circuit": metric(
            d["sim.gate_energy_mj"][0] * d["graph.bootstraps"][0], "mJ"),
    }


def stage_checks(d):
    """(name, median over rounds, band) of each stage-split ratio, at batch
    1 and at the per-worker batch."""
    out = []
    same = d["b1.batch"] == d["bw.batch"]
    for prefix in ("bw.",) if same else ("b1.", "bw."):
        r = lambda key: d[prefix + key]  # noqa: E731
        split = [(b + k) / f for b, k, f in
                 zip(r("blind_rotate_ns"), r("keyswitch_ns"), r("full_bootstrap_ns"))]
        out.append((prefix + "split_full", median(split), SPLIT_FULL_BAND))
        for kind in ("forward", "inverse"):
            calls = r(kind + "_calls")[0] / r("ref_calls")[0]
            ratio = [c / (calls * ref) for c, ref in
                     zip(r(kind + "_ns"), r("ref_" + kind + "_ns"))]
            out.append((f"{prefix}fft_{kind}", median(ratio), FFT_COUNTER_BAND))
    return out


def per_layer(d):
    """Per-layer metrics of a traced run, and whether its stage times are
    plausible against their references (stage_checks)."""
    wall_ms = [ns / 1e6 for ns in d["requests.ns"]]
    workers, bootstraps = d["requests.workers"], d["requests.bootstraps"]
    busy_ms = [e * w * t for e, w, t in
               zip(d["requests.sched_efficiency"], workers, wall_ms)]
    idle_ms = [w * t - b for w, t, b in zip(workers, wall_ms, busy_ms)]
    ms_per_bootstrap = [w * t / b for w, t, b in zip(workers, wall_ms, bootstraps)]

    def layer(prefix, key):
        """Median over rounds, per sample, of a b1. (batch 1) or bw.
        (per-worker batch) layer timing, in us."""
        return median(d[prefix + key]) / d[prefix + "samples"][0] / 1e3

    def per_sample(key):
        return d["bw." + key][0] / d["bw.samples"][0]

    br_us, ks_us = layer("bw.", "blind_rotate_ns"), layer("bw.", "keyswitch_ns")
    other_ns = [b - f - i for b, f, i in
                zip(d["bw.blind_rotate_ns"], d["bw.forward_ns"], d["bw.inverse_ns"])]
    # Predicted executor busy time of one request from the stage times,
    # against the measured one. Reported, not checked: the closed loop and
    # the layer calls run at different times, and host drift moves this
    # ratio by more than a doubled stage would.
    busy_ratio = median([b * (br_us + ks_us) / 1e3 / m
                         for b, m in zip(bootstraps, busy_ms)])
    per_worker_batch = d["bw.batch"][0]
    print(f"layer calls timed at batch 1 and at the per-worker batch {per_worker_batch}")
    plausible = min(other_ns) >= 0
    if not plausible:
        print(f"stage times implausible: FFT time exceeds blind rotation "
              f"by {-min(other_ns)} ns")
    for name, ratio, band in stage_checks(d):
        ok = band[0] <= ratio <= band[1]
        plausible = plausible and ok
        print(f"stage check {name} = {ratio:.3f}, band [{band[0]}, {band[1]}]"
              f"{'' if ok else ': implausible'}")

    bsk, ksk = d["bsk_bytes"][0], d["ksk_bytes"][0]
    ms = lambda key: median(d["setup." + key]) / 1e6  # noqa: E731
    m = {
        "exec.bootstraps_per_circuit": metric(d["graph.bootstraps"][0], "count"),
        "exec.extractions_per_circuit": metric(d["graph.extractions"][0], "count"),
        "exec.depth": metric(d["graph.depth"][0], "count"),
        "exec.compile_ms": metric(ms("compile_ns"), "ms"),
        "exec.sched_efficiency": metric(
            median(d["requests.sched_efficiency"]), "ratio"),
        "exec.idle_ms": metric(median(idle_ms), "ms"),
        "exec.steals": metric(median(d["requests.steals"]), "count"),
        "exec.ms_per_bootstrap": metric(median(ms_per_bootstrap), "ms"),
        "exec.first_request_ms": metric(d["warmup.ns"][0] / 1e6, "ms"),
        "exec.stage_busy_ratio": metric(busy_ratio, "ratio"),
        "tfhe.blind_rotate_us_per_sample": metric(br_us, "us"),
        "tfhe.blind_rotate_b1_us_per_sample": metric(layer("b1.", "blind_rotate_ns"), "us"),
        "tfhe.blind_rotate_other_us_per_sample": metric(
            median(other_ns) / d["bw.samples"][0] / 1e3, "us"),
        "tfhe.keyswitch_us_per_sample": metric(ks_us, "us"),
        "tfhe.keyswitch_b1_us_per_sample": metric(layer("b1.", "keyswitch_ns"), "us"),
        "fft.forward_us_per_sample": metric(layer("bw.", "forward_ns"), "us"),
        "fft.inverse_us_per_sample": metric(layer("bw.", "inverse_ns"), "us"),
        "fft.forward_calls_per_sample": metric(per_sample("forward_calls"), "count"),
        "fft.zero_skips_per_sample": metric(per_sample("zero_skips"), "count"),
        "fft.testv_reuses_per_sample": metric(per_sample("testv_reuses"), "count"),
        "bku.bsk_arena_mb": metric(bsk / MIB, "MiB"),
        "bku.bsk_gbps": metric(bsk / (br_us * per_worker_batch * 1e3), "GB/s"),
        "tfhe.ksk_mb": metric(ksk / MIB, "MiB"),
        "tfhe.ksk_gbps": metric(ksk / (ks_us * per_worker_batch * 1e3), "GB/s"),
        "tfhe.keygen_ms": metric(ms("keygen_ns"), "ms"),
        "tfhe.cloud_keyset_ms": metric(ms("cloud_keyset_ns"), "ms"),
        "io.keyset_mb": metric(d["setup.keyset_bytes"][0] / MIB, "MiB"),
        "io.keyset_write_ms": metric(ms("keyset_write_ns"), "ms"),
        "io.keyset_read_ms": metric(ms("keyset_read_ns"), "ms"),
        "bku.device_load_ms": metric(ms("device_load_ns"), "ms"),
        "sim.makespan_ms": metric(d["sim.makespan_ms"][0], "sim_ms"),
        "sim.pipeline_occupancy": metric(d["sim.pipeline_occupancy"][0], "ratio"),
        "sim.hbm_utilization": metric(d["sim.hbm_utilization"][0], "ratio"),
        "sim.host_ms": metric(d["sim.host_ns"][0] / 1e6, "ms"),
        "noise.min_margin": metric(median(d["requests.min_margin"]), "ratio"),
    }
    return m, plausible


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")

    try:
        binary = build()
        out = run_child([str(binary), "--workload", args.workload,
                         "--seed", str(args.seed), "--seconds", str(args.seconds),
                         "--trace", str(args.trace)], RUN_TIMEOUT_S,
                        capture=True)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    d = parse(out.decode())

    print(f"host: cores={d['host_cores'][0]} simd={d['simd_tier'][0]} "
          f"MATCHA_SIMD='{' '.join(map(str, d['matcha_simd_env']))}' "
          f"faults_compiled_in={d['faults_compiled_in'][0]} "
          f"faults_active={d['faults_active'][0]} worker_slots={d['slots'][0]}")

    # Every item of the warm-up and of the timed window is checked: a wrong
    # decode or a non-kOk item is a failed operation.
    attempted = sum(d["warmup.items"]) + sum(d["requests.items"])
    failed = attempted - sum(d["warmup.ok_items"]) - sum(d["requests.ok_items"])
    correct = failed == 0

    e2e = end_to_end(d)
    if args.trace:
        print("end-to-end figures of this traced run: " + json.dumps(
            {k: v["value"] for k, v in e2e.items()}))
        metrics, plausible = per_layer(d)
        correct = correct and plausible
    else:
        metrics = e2e
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
