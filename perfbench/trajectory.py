"""Append one entry to ``trajectory.json`` from the run records in ``.perfbench/``.

Usage (from the repository root), after running the benchmark for every
workload at each seed with ``--trace 0`` and at the first seed with
``--trace 1``:

    python3 perfbench/trajectory.py --label <commit> --seeds 1 2 3 4 5 6 7 8 9 10

An entry holds, per workload, the median and quartiles over the seeds of
every end-to-end metric and the per-layer metrics of the traced run.
"""

import argparse
import datetime
import json
import statistics
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
RECORDS = BENCH.parent / ".perfbench"
TRAJECTORY = BENCH / "trajectory.json"


def load(workload: str, seed: int, trace: int) -> dict:
    return json.loads((RECORDS / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True, help="commit the numbers belong to")
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--note", default="")
    args = p.parse_args()

    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    entry = {
        "label": args.label,
        "date": datetime.date.today().isoformat(),
        "run_seconds": bench["run_seconds"],
        "note": args.note,
    }
    workloads = {}
    for name in WORKLOADS:
        runs = [load(name, seed, 0) for seed in args.seeds]
        entry.setdefault("env", runs[0]["env"])
        end_to_end = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            end_to_end[metric] = {"median": median, "q1": q1, "q3": q3}
        workloads[name] = {
            "seeds": args.seeds,
            "end_to_end": end_to_end,
            "per_layer": load(name, args.seeds[0], 1)["metrics"],
        }
    entry["workloads"] = workloads
    history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    history.append(entry)
    TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n")
    print(f"appended {args.label} to {TRAJECTORY.name} ({len(history)} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
