"""Run the benchmark over several seeds and summarise its spread.

    python3 perfbench/sweep.py --seeds 1-10                  # every workload
    python3 perfbench/sweep.py --workloads lattice-gram --seeds 1-5
    python3 perfbench/sweep.py --seeds 1-10 --traced --record perfbench/baselines/BENCH_0.json

Runs are made one after another, from the repository root, with the
command and run length in BENCHMARK.json.  For each end-to-end metric it
prints the median, the quartiles (statistics.quantiles, n=4) and their
distance as a share of the median, against the metric's bound.  --traced
adds two traced runs per workload at the first seed and checks that the
exact work counts repeat.  --record writes everything, with the git
revision, Python version and CPU count, to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import EXACT_COUNTS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stderr, file=sys.stderr)
    result["wall_s"] = wall
    return result


def summarise(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--record", type=Path)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    ok = True
    report = {}
    for workload in args.workloads:
        runs = [run_once(workload, seed, 0) for seed in seeds]
        ok &= all(r["correct"] for r in runs)
        entry = {"seeds": seeds, "wall_s": [r["wall_s"] for r in runs],
                 "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs], "metrics": {}}
        print(f"{workload}: {len(runs)} runs, wall {sum(entry['wall_s']):.0f} s, "
              f"failed {sum(entry['failed'])} of {sum(entry['attempted'])}")
        for name, bound in bounds.items():
            s = summarise([r["metrics"][name]["value"] for r in runs])
            entry["metrics"][name] = s
            steady = s["spread"] < bound / 3
            ok &= steady
            print(f"  {name:14s} median {s['median']:10.4g}  q1 {s['q1']:10.4g}  "
                  f"q3 {s['q3']:10.4g}  spread {s['spread']:6.3f}  bound {bound}"
                  f"{'' if steady else '  <-- spread above bound/3'}")
            print("    runs " + " ".join(f"{v:.4g}" for v in s["values"]))
        if args.traced:
            traced = [run_once(workload, seeds[0], 1) for _ in range(2)]
            counts = [{k: t["metrics"][k]["value"] for k in EXACT_COUNTS} for t in traced]
            repeat = counts[0] == counts[1]
            ok &= repeat and all(t["correct"] for t in traced)
            entry["traced"] = {k: v["value"] for k, v in traced[0]["metrics"].items()}
            print(f"  traced at seed {seeds[0]}: exact counts "
                  f"{'repeat' if repeat else 'DIFFER'} {counts[0]}; overhead "
                  f"{entry['traced']['trace.overhead_ratio']:.3f}")
        report[workload] = entry
    if args.record:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        record = {
            "git_sha": git.stdout.strip() or None,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "run_seconds": SPEC["run_seconds"],
            "workloads": report,
        }
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
