"""Run the benchmark once per seed and report each metric's run-to-run spread.

    python3 perfbench/prove.py --workload hub_stress --seeds 1-5
    python3 perfbench/prove.py --seeds 1-10 --traced-seeds 1-3 --baseline

Run from the repository root. For every end-to-end metric it prints the
median and quartiles over the seeds, and the spread: the distance between the
first and third quartile (`statistics.quantiles(values, n=4)`) as a share of
the median, next to the metric's bound from BENCHMARK.json. A spread under a
third of the bound is steady. `--baseline` also writes the medians and
quartiles of every metric, end-to-end and per-layer, to baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{' '.join(cmd)} reported failures:\n{done.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]:
        values = [r[name] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0, "values": values}
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--traced-seeds", type=seed_range, default=[])
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--baseline", action="store_true", help="write baseline.json")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    baseline = {}
    for workload in args.workload or workloads:
        runs = [run_once(workload, seed, args.seconds, 0) for seed in args.seeds]
        stats = summarize(runs)
        print(f"{workload}: {len(runs)} runs of {args.seconds} s, seeds {args.seeds}")
        for name, s in stats.items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"  {name:16s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.4f}  bound {bounds[name]}{flag}", flush=True)
        if args.traced_seeds:
            traced = [run_once(workload, seed, args.seconds, 1) for seed in args.traced_seeds]
            stats.update(summarize(traced))
        baseline[workload] = stats

    if args.baseline:
        doc = {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "run_seconds": args.seconds,
            "seeds": args.seeds,
            "traced_seeds": args.traced_seeds,
            "workloads": baseline,
        }
        (HERE / "baseline.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
