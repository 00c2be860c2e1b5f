"""Run the benchmark over several seeds and summarise each metric.

Usage (from the repository root):

    python3 perfbench/sweep.py --seeds 0-9 --workloads graphic,binary,sums \
        --seconds 30 --out perfbench/out/sweep.json [--git-sha SHA]

Runs ``run.py`` once per (workload, seed), one after the other, and records
for every metric its values, median, quartiles (``statistics.quantiles``,
n=4) and spread (quartile distance over the median), plus each run's input
and sequence digests and failing instances.  ``compare.py`` reads two such
files.
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

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    median = statistics.median(values)
    return {
        "values": values, "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else None,
    }


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads", default="graphic,binary,sums")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--git-sha", default=None)
    args = parser.parse_args(argv)

    summary = {
        "git_sha": args.git_sha or git_sha(),
        "machine": {
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(),
        },
        "seconds": args.seconds, "trace": args.trace, "seeds": parse_seeds(args.seeds),
        "workloads": {},
    }
    code = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in summary["seeds"]:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=900,
            )
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                sys.stderr.write(proc.stdout + proc.stderr)
                code = 1
                continue
            final = json.loads(lines[-1])
            detail = json.loads((HERE / "out" / f"result-{workload}-s{seed}-t{args.trace}.json").read_text())
            detail["run_wall_s"] = wall
            runs.append((seed, final, detail))
            values = ", ".join(f"{k}={v['value']:.5g}" for k, v in final["metrics"].items())
            print(f"{workload} seed {seed} ({wall:.0f} s): {values}", flush=True)
        if not runs:
            continue
        names = list(runs[0][1]["metrics"])
        summary["workloads"][workload] = {
            "digests": {str(s): d["digest"] for s, _, d in runs},
            "sequence_digests": {str(s): d["sequence_digest"] for s, _, d in runs},
            "run_wall_s": {str(s): d["run_wall_s"] for s, _, d in runs},
            "correct": all(f["correct"] for _, f, _ in runs),
            "fail_ratio": {str(s): d["fail_ratio"] for s, _, d in runs},
            "failures": {str(s): sorted(d["failures"]) for s, _, d in runs if d["failures"]},
            "metrics": {
                name: dict(unit=runs[0][1]["metrics"][name]["unit"],
                           **summarise([f["metrics"][name]["value"] for _, f, _ in runs]))
                for name in names
            },
        }
        for name, info in summary["workloads"][workload]["metrics"].items():
            spread = "n/a" if info["spread"] is None else f"{info['spread']:.3f}"
            print(f"  {workload} {name}: median {info['median']:.5g} spread {spread}", flush=True)
    Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
