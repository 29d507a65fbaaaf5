#!/usr/bin/env python3
"""The repository benchmark: one command, two workloads, checked outputs.

    python3 perfbench/run.py --workload sat512 --seed 1 --seconds 55 --trace 0

Run from the repository root. Builds the job runner (perfbench/hpbench.cpp) and
the hotpotato library from source into .bench_build/perfbench (or
$CARGO_TARGET_DIR/perfbench), runs the workload's jobs for the given number
of seconds, checks every job's outputs, and prints the result as the last
line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ledger.
The lines before it carry the host block and the per-metric sample counts
and quartiles. README.md in this directory documents every metric.

Other modes:
    --record     store this seed's semantic outputs in expected.json
    --selftest   traced run of every workload: each must pass its checks
                 and reproduce the untraced semantic outputs exactly
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
WORKLOADS = ("sat512", "probe64")

# End-to-end metrics and their units, in report order.
E2E = {
    "setup_s": "s",
    "run_s": "s",
    "total_s": "s",
    "moves_per_s": "1/s",
    "checkpoint_save_s": "s",
    "restore_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics and their units (traced run).
LAYERS = {
    "phase.inject_ms": "ms",
    "phase.occupancy_ms": "ms",
    "phase.route_ms": "ms",
    "phase.apply_ms": "ms",
    "phase.observe_ms": "ms",
    "phase.unaccounted_ms": "ms",
    "phase.occupancy_imbalance": "ratio",
    "phase.route_imbalance": "ratio",
    "phase.apply_imbalance": "ratio",
    "livelock.digest_ms": "ms",
    "routing.route_ns": "ns",
    "routing.route_calls": "count",
    "routing.packets": "count",
    "routing.advance_ratio": "ratio",
    "topology.good_masks_ns": "ns",
    "topology.good_masks_packets": "count",
    "workload.generate_s": "s",
    "engine.construct_s": "s",
    "engine.bytes_per_node": "B",
    "engine.flight_bytes": "B",
    "engine.topology_bytes": "B",
    "engine.occupancy_bytes": "B",
    "checkpoint.bytes": "B",
    "checkpoint.save_mb_per_s": "MB/s",
    "checkpoint.fingerprint_ms": "ms",
    "admission.windows": "count",
    "admission.window_s.p50": "s",
    "core.potential_ms": "ms",
    "core.surface_ms": "ms",
    "core.greedy_ms": "ms",
    "core.preference_ms": "ms",
    "engine.step_ms.p50": "ms",
    "engine.step_ms.pNN": "ms",
    "engine.step_ms.pNN_pct": "%",
    "engine.steps": "count",
    "engine.moves": "count",
    "trace.overhead": "ratio",
    "trace.accounted_frac": "ratio",
}


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(out):
    """Configures once, then (re)builds incrementally; output to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))
    return out / "hpbench"


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def host_block(args, job):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": job.get("compiler", "unknown"),
        "build_type": job.get("build_type", "unknown"),
        "engine_threads": job.get("engine_threads"),
        "workload": args.workload,
        "seed": args.seed,
        "git_commit": commit,
    }


def run_job(exe, args, traced, tmp):
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--traced", "1" if traced else "0", "--tmp", str(tmp)]
    try:
        # The longest job (sat512) takes a few seconds; this only guards
        # against a hang.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=120)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
        error = f"hpbench exited with code {proc.returncode}"
    except subprocess.TimeoutExpired:
        error = "hpbench timed out"
    finally:
        for stale in tmp.glob("*.hpck"):
            stale.unlink()
    # A crash is one more failed attempt, not a result to drop.
    return {"ok": False, "traced": traced, "error": error}


def run_jobs(exe, args, tmp):
    """Closed loop, one client: each job starts when the previous one has
    ended, and no job starts that the longest job so far says would overrun
    the budget. Trace mode alternates untraced and traced jobs, at least one
    of each, so both see the same host at the same time."""
    started = time.monotonic()
    longest = 0.0
    jobs = []
    while (len(jobs) < (2 if args.trace else 1) or
           time.monotonic() - started + longest <= args.seconds):
        traced = bool(args.trace) and len(jobs) % 2 == 1
        job_start = time.monotonic()
        jobs.append(run_job(exe, args, traced, tmp))
        longest = max(longest, time.monotonic() - job_start)
    return jobs


def check_jobs(jobs, expected):
    """Marks each job failed unless it passed hpbench's invariant checks and
    its semantic outputs equal the first job's and the recorded ones."""
    reference = next((j["semantic"] for j in jobs if j["ok"]), None)
    for job in jobs:
        if not job["ok"]:
            continue
        if job["semantic"] != reference:
            job["ok"] = False
            job["error"] = "semantic outputs differ between jobs"
        elif expected is not None and job["semantic"] != expected:
            job["ok"] = False
            job["error"] = "semantic outputs differ from the recorded values"
    for job in jobs:
        if not job["ok"]:
            log(f"failed job (traced={job['traced']}): {job.get('error')}")
    return reference


# Metrics a job reports once per checkpoint round trip; the run's value is
# the median over every trip of every job.
PER_TRIP = ("checkpoint_save_s", "restore_s")


def e2e_metrics(jobs):
    samples = {}
    good = [j for j in jobs if j["ok"] and not j["traced"]]
    for name in E2E:
        if name in PER_TRIP:
            values = [v for j in good for v in j["e2e"][name]]
        elif name in ("total_s", "peak_rss_mb"):
            values = [j[name] for j in good]
        else:
            values = [j["e2e"][name] for j in good]
        if values:
            samples[name] = values
    return samples


def step_percentiles(steps):
    """Median step time and the highest percentile with >= 10 samples
    above it (the maximum when there are too few samples for one)."""
    steps = sorted(steps)
    n = len(steps)
    if n == 0:
        return 0.0, 0.0, 0.0
    if n < 11:
        return statistics.median(steps), steps[-1], 100.0
    rank = n - 11
    return statistics.median(steps), steps[rank], 100.0 * (rank + 1) / n


def layer_metrics(jobs):
    traced = [j for j in jobs if j["ok"] and j["traced"]]
    plain = [j for j in jobs if j["ok"] and not j["traced"]]
    if not traced or not plain:
        return {}
    samples = {}
    for name in traced[0]["layers"]:
        if name != "accounted_s":
            samples[name] = [j["layers"][name] for j in traced]
    p50, pnn, pct = step_percentiles(
        [s for j in traced for s in j["step_ms"]])
    samples["engine.step_ms.p50"] = [p50]
    samples["engine.step_ms.pNN"] = [pnn]
    samples["engine.step_ms.pNN_pct"] = [pct]
    samples["trace.overhead"] = [
        statistics.median(j["e2e"]["run_s"] for j in traced) /
        statistics.median(j["e2e"]["run_s"] for j in plain)]
    samples["trace.accounted_frac"] = [
        j["layers"]["accounted_s"] / j["total_s"] for j in traced]
    return samples


def report(samples, units):
    metrics, detail = {}, {}
    for name, unit in units.items():
        if name not in samples:
            continue
        q1, med, q3 = quartiles(samples[name])
        metrics[name] = {"value": med, "unit": unit}
        detail[name] = {"median": med, "q1": q1, "q3": q3,
                        "n": len(samples[name])}
    return metrics, detail


def load_expected():
    return json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}


def run(args):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no hotpotato sources under {ROOT / 'src'}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        exe = build(out)
        tmp = out / "tmp"
        tmp.mkdir(exist_ok=True)
        jobs = run_jobs(exe, args, tmp)

    expected = load_expected().get(args.workload, {}).get(str(args.seed))
    semantic = check_jobs(jobs, expected)
    attempted = len(jobs)
    failed = sum(1 for j in jobs if not j["ok"])
    if args.trace:
        samples, units = layer_metrics(jobs), LAYERS
    else:
        samples, units = e2e_metrics(jobs), E2E
    metrics, detail = report(samples, units)
    if len(metrics) != len(units):
        failed = max(failed, 1)  # a run with nothing to time is a failure
    return {
        "host": host_block(args, jobs[0]),
        "semantic": semantic,
        "recorded": expected is not None,
        "samples": detail,
        "failed_frac": failed / attempted,
    }, {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def record(args, semantic):
    data = load_expected()
    data.setdefault(args.workload, {})[str(args.seed)] = semantic
    EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    log(f"recorded {args.workload} seed {args.seed}")


def selftest(args):
    ok = True
    for workload in WORKLOADS:
        sub = argparse.Namespace(workload=workload, seed=args.seed,
                                 seconds=1, trace=1)
        info, result = run(sub)
        good = result["correct"] and result["attempted"] >= 2
        ok = ok and good
        print(json.dumps({"workload": workload, "passed": good,
                          "semantic": info["semantic"],
                          "recorded": info["recorded"]}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        if args.selftest:
            return selftest(args)
        if args.workload is None:
            parser.error("--workload is required")
        started = time.monotonic()
        info, result = run(args)
        log(f"{args.workload}: {result['attempted']} jobs in "
            f"{time.monotonic() - started:.1f} s")
        if args.record:
            if not result["correct"]:
                raise BenchError("refusing to record a failing run")
            record(args, info["semantic"])
        print(json.dumps(info))
        print(json.dumps(result))
        return 0
    except (BenchError, subprocess.SubprocessError, OSError,
            ValueError) as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
