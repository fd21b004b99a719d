"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/repeat.py --seeds 1-10 [--workload NAME ...] [--out FILE]

Runs perfbench/run.py untraced once per (workload, seed), one run at a time,
with the run length from BENCHMARK.json.  For every metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median.  Workloads default
to those in BENCHMARK.json.  ``--out`` writes every run's result and summary
with the statistics as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_list, required=True, help="inclusive range, e.g. 1-10")
    p.add_argument("--workload", action="append", help="default: the workloads in BENCHMARK.json")
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    seconds = spec["run_seconds"]
    report = {"seconds": seconds, "workloads": {}}
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            runs.append({"seed": seed, "summary": json.loads(lines[-2]), "result": json.loads(lines[-1])})
            print(f"{name} seed {seed}: {lines[-1]}", file=sys.stderr)
        stats = {}
        for metric in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            if all(v is not None for v in values):
                stats[metric] = spread(values)
        stats["fail_frac"] = spread([r["summary"]["fail_frac"] for r in runs])
        report["workloads"][name] = {"stats": stats, "runs": runs}
        print(f"\n{name} ({len(runs)} seeds)")
        for metric, s in stats.items():
            print(f"  {metric:40s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
