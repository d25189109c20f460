"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workloads window search --seeds 1 2 3 4 5

Runs ``run.py`` once per (workload, seed), one run at a time, and prints for
each end-to-end metric the median of the runs with its unit and, given two
or more seeds, the distance between the first and third quartiles as a
share of that median, next to the metric's bound from BENCHMARK.json.
With one seed it is the one command that runs every workload and prints
every end-to-end metric.  ``--json FILE`` also writes every run's metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--json", help="write every run's result here")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    runs = {}
    ok = True
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.setdefault(workload, []).append(result)
            ok &= result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, vals in values.items():
            line = f"{workload:7s} {name:18s} median {statistics.median(vals):12.4f} {units[name]:5s}"
            if len(vals) > 1:
                q1, med, q3 = statistics.quantiles(vals, n=4)
                share = (q3 - q1) / med
                flag = "" if share < bounds[name] / 3 else "  <-- above a third of the bound"
                line += f"  spread {share:6.3f}  bound {bounds[name]:.2f}{flag}"
            print(line)
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1))
    print("all runs correct" if ok else "SOME RUNS INCORRECT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
