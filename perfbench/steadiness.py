#!/usr/bin/env python3
"""Steadiness check of the benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py --workloads sat512,probe64 \
        --seeds 1-10 --out steadiness.json

Runs run.py once per (workload, seed), untraced, for BENCHMARK.json's
run_seconds, one run at a time. For every end-to-end metric it reports the
median of the per-run values, their quartiles (statistics.quantiles, n=4)
and the spread (q3 - q1) / median, next to the metric's bound. A spread
above a third of the bound is flagged: the bound would not be resolvable.

With --baseline (an earlier --out record), it also checks that no
metric's median is worse than the baseline's by more than its bound, and
stores the baseline in the new record.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    baseline = json.loads(args.baseline.read_text()) if args.baseline else None
    record = {"run_seconds": args.seconds, "workloads": {}}
    flagged = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            result, info = json.loads(lines[-1]), json.loads(lines[-2])
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"],
                         "metrics": {k: v["value"]
                                     for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"jobs={result['attempted']} recorded={info['recorded']}",
                  file=sys.stderr, flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in runs if name in r["metrics"]]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            steady = name == "setup_s" or spread < bound / 3
            flagged += not steady
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": spread, "bound": bound,
                             "steady": steady}
            note = "" if steady else "  UNSTEADY"
            if baseline and workload in baseline["workloads"]:
                old = baseline["workloads"][workload]["summary"][name]["median"]
                worse = (med - old) / old if lower[name] else (old - med) / old
                summary[name]["worse_than_baseline"] = worse
                if worse > bound:
                    flagged += 1
                    note += "  REGRESSED"
                note += f"  vs baseline {worse:+.3f}"
            print(f"  {workload:9s} {name:18s} median {med:14.6g} "
                  f"spread {spread:6.3f} bound {bound:5.2f}{note}",
                  flush=True)
        record["workloads"][workload] = {"runs": runs, "summary": summary}
    if baseline:
        record["baseline"] = baseline
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
