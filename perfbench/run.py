"""beamtrack benchmark entry point.

Usage (from the repository root):

    python3 perfbench/run.py --workload static --seed 1 --seconds 30 --trace 0

Each measurement runs in a fresh ``worker.py`` subprocess with BLAS threads
pinned to 1, which imports the CLI from ``src/`` of this checkout and drives
``beamtrack.cli.main`` in-process.  ``--trace 0`` prints the end-to-end
metrics of untraced runs; ``--trace 1`` prints the per-layer metrics of a
traced run.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and the sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import outcheck
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"

SETUP_PROBES = 3  # import-only processes before each measured one, for set-up time
MEASURED_PROCESSES = 3  # untraced measured processes per run
HARD_LIMIT_S = 170.0  # the whole run, children included, ends before this

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "trial_slots_per_s": "1/s",
    **{f"{alg}.trial_slots_per_s": "1/s" for alg in workloads.ALGORITHMS},
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def spawn(spec: dict, hard_deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = {**os.environ, **workloads.THREAD_ENV}
    # every checkout reads its bytecode from the same place, filled by the
    # run's first (untimed) process, whatever __pycache__ it already holds
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    spec = {**spec, "src": src, "spawned": time.monotonic()}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, hard_deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def scaled_seconds(call: dict) -> float:
    """A call's time at the reference host speed, from the reference loop
    timed just before and just after it."""
    return hostspeed.scale(call["seconds"], statistics.fmean(call["loop_s"]))


def end_to_end(workload, setups, results) -> tuple[dict, dict]:
    """Every timing is scaled to the reference host speed (``hostspeed.py``),
    then summarised by its median over the run: set-up time over processes,
    ``wall_s`` and ``trial_slots_per_s`` over passes, and each algorithm's
    throughput over its calls."""
    passes = [p for r in results for p in r["passes"]]
    calls = [c for p in passes for c in p["calls"]]
    walls = [sum(scaled_seconds(c) for c in p["calls"]) for p in passes]
    samples = {
        "setup_s": setups,
        "wall_s": walls,
        "trial_slots_per_s": [
            sum(c["trial_slots"] for c in p["calls"]) / wall for p, wall in zip(passes, walls)
        ],
    }
    for alg in workload.trials:
        samples[f"{alg}.trial_slots_per_s"] = [
            c["trial_slots"] / scaled_seconds(c) for c in calls if c["algorithm"] == alg
        ]
    samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in results]
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["pass_frac"] = 1.0 - sum(c["failed"] for c in calls) / len(calls)
    # how fast the host ran against the reference (informational)
    samples["host_speed"] = [
        hostspeed.REFERENCE_S / statistics.fmean(c["loop_s"]) for c in calls
    ]
    return metrics, samples


def per_layer(workload, results) -> tuple[dict, dict]:
    passes = [p for r in results for p in r["passes"]]
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = {}
    for scope in ("all", *workload.trials):
        for name in tracer.METRICS:
            key = name if scope == "all" else f"{scope}.{name}"
            metrics[key] = statistics.median(p["layers"][scope][name] for p in traced)
    wall = [sum(scaled_seconds(c) for c in p["calls"]) for p in plain]
    traced_wall = [sum(scaled_seconds(c) for c in p["calls"]) for p in traced]
    # passes alternate untraced and traced, so the two sums pair up
    metrics["trace_overhead_frac"] = sum(traced_wall) / sum(wall) - 1.0
    metrics["csv_identical"] = statistics.median(
        sum(c["identical"] for c in p["calls"]) for p in passes
    )
    return metrics, {"wall_s": wall, "traced_wall_s": traced_wall}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="beamtrack benchmark")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "beamtrack" / "cli.py").is_file():
        print(f"no beamtrack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.monotonic()
    hard_deadline = start + HARD_LIMIT_S
    workload = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    base = {"workload": workload.name, "seed": args.seed, "trace": bool(args.trace)}
    processes = 1 if args.trace else MEASURED_PROCESSES

    try:
        # the first import fills the file and bytecode caches: untimed
        spawn({"setup_only": True}, hard_deadline)
        setups, results = [], []
        for k in range(processes):
            if not args.trace:
                for _ in range(SETUP_PROBES):
                    probe = spawn({"setup_only": True}, hard_deadline)
                    setups.append(hostspeed.scale(probe["setup_s"], probe["loop_s"]))
            remaining = start + args.seconds - time.monotonic()
            spec = {
                **base,
                "budget_s": max(0.0, remaining / (processes - k)),
                "work_dir": str(WORK / f"work-{os.getpid()}-{k}"),
                "spans_path": str(WORK / f"spans-{workload.name}.csv.gz"),
            }
            results.append(spawn(spec, hard_deadline))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    calls = [c for r in results for p in r["passes"] for c in p["calls"]]
    failed = [c for c in calls if c["failed"]]
    if args.trace:
        values, samples = per_layer(workload, results)
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}
        metrics["trace_overhead_frac"]["unit"] = "ratio"
    else:
        setups += [hostspeed.scale(r["setup_s"], r["loop_s"]) for r in results]
        values, samples = end_to_end(workload, setups, results)
        metrics = {k: {"value": values[k], "unit": END_TO_END_UNITS[k]} for k in values}
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "cli_seed": workloads.cli_seed(args.seed),
        "reference": outcheck.reference_path(workload.name, args.seed).exists(),
        "env": results[0]["env"],
        "samples": {k: {"n": len(v), "quartiles": quartiles(v)} for k, v in samples.items()},
        "problems": [{"algorithm": c["algorithm"], "problems": c["problems"]} for c in failed],
    }
    record = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**info, "samples": samples, "metrics": values}))
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(calls),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
