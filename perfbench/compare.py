"""Compare two sweep summaries (see sweep.py), refusing mismatched inputs.

Usage (from the repository root):

    python3 perfbench/compare.py BEFORE.json AFTER.json

Exits 2 without comparing when any (workload, seed) present in both has a
different input digest.  Otherwise prints, per workload and end-to-end
metric, both medians, the change as a share of the first median, the bound
from BENCHMARK.json, and whether the change is worse than the bound.  Exits 1
when any metric is.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    shared = sorted(set(before["workloads"]) & set(after["workloads"]))
    for workload in shared:
        a, b = before["workloads"][workload]["digests"], after["workloads"][workload]["digests"]
        for seed in sorted(set(a) & set(b), key=int):
            if a[seed] != b[seed]:
                print(f"refused: {workload} seed {seed} inputs differ ({a[seed][:12]} vs {b[seed][:12]})")
                return 2

    worse_any = False
    print(f"{'workload':<10}{'metric':<14}{'before':>12}{'after':>12}{'change':>9}{'bound':>7}")
    for workload in shared:
        ma, mb = before["workloads"][workload]["metrics"], after["workloads"][workload]["metrics"]
        for name in sorted(set(ma) & set(mb)):
            x, y = ma[name]["median"], mb[name]["median"]
            change = (y - x) / x if x else 0.0
            info = metrics.get(name)
            worse = False
            if info is not None:
                sign = -1 if info["better"] == "higher" else 1
                worse = sign * change > info["bound"]
            worse_any |= worse
            bound = f"{info['bound']:.2f}" if info else "-"
            flag = "  WORSE" if worse else ""
            print(f"{workload:<10}{name:<14}{x:>12.5g}{y:>12.5g}{change:>+9.3f}{bound:>7}{flag}")
    return 1 if worse_any else 0


if __name__ == "__main__":
    sys.exit(main())
