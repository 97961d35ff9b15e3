"""One fresh benchmark process, started by run.py.

Usage: python3 perfbench/worker.py '<json spec>'

It imports ``beamtrack.cli`` first, so that set-up time is measured from
process start until the CLI is ready, runs untimed warm-up calls, then
repeats passes of the workload's CLI calls (one per algorithm) until its
time budget is spent.  With tracing on it alternates untraced and traced
passes.  Every call's outputs go through the output check.  The result is
one JSON line on stdout.  Between every two timed calls, and after the
import, it times the host-speed reference loop (``hostspeed.py``) so that
``run.py`` can scale each timing to the reference speed.
"""

import sys
import time

import beamtrack.cli as cli

READY = time.monotonic()

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from beamtrack import harness, scenarios  # noqa: E402

import hostspeed  # noqa: E402
import outcheck  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "settings": {
            **{k: os.environ.get(k) for k in workloads.THREAD_ENV},
            "pycache_prefix": sys.pycache_prefix and os.path.relpath(sys.pycache_prefix),
        },
    }


def run_call(call, out_dir: Path, prefix: str, reference, trace=None) -> dict:
    """Run one CLI call, timed from outside, then check its outputs."""
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [*call.argv, "--out", str(out_dir)]
    error = None
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        context = trace if trace is not None else contextlib.nullcontext()
        with context:
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects its arguments this way
                code = exc.code
            except Exception as exc:  # a failed run is counted, not fatal
                code, error = None, repr(exc)
            seconds = time.perf_counter() - start
    if error is None and code != 0:
        error = f"exit code {code}"
    problems, identical = [], 0
    if error is None:
        problems, identical = outcheck.check_call(
            out_dir, prefix, call.algorithm, call.slots, reference
        )
    else:
        problems = [error]
    return {
        "algorithm": call.algorithm,
        "seconds": seconds,
        "trial_slots": call.trial_slots,
        "failed": bool(problems),
        "problems": problems[:3],
        "identical": identical,
    }


def run_pass(calls, work: Path, prefix: str, reference, trace=None) -> dict:
    """Run every call once; each call records the reference loop's time
    just before and just after it."""
    if trace is not None:
        trace.reset()
    results = []
    loop_before = hostspeed.loop_seconds()
    for call in calls:
        if trace is not None:
            trace.algorithm = call.algorithm
        result = run_call(call, work / call.algorithm, prefix, reference, trace)
        loop_after = hostspeed.loop_seconds()
        result["loop_s"] = (loop_before, loop_after)
        results.append(result)
        loop_before = loop_after
    out = {"traced": trace is not None, "calls": results}
    if trace is not None:
        out["layers"] = {"all": tracer.layer_metrics(trace.spans)}
        for call in calls:
            out["layers"][call.algorithm] = tracer.layer_metrics(trace.spans, call.algorithm)
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = Path(spec["src"]).resolve()
    if Path(cli.__file__).resolve().parent != src / "beamtrack":
        print(f"beamtrack imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    setup_s = READY - spec["spawned"]
    hostspeed.loop_seconds()  # first numpy calls of the process: untimed
    loop_s = hostspeed.loop_seconds()
    if spec.get("setup_only"):
        print(json.dumps({"setup_s": setup_s, "loop_s": loop_s}))
        return 0

    workload = workloads.WORKLOADS[spec["workload"]]
    seed = spec["seed"]
    prefix = workload.subcommand[0]
    reference = outcheck.load_reference(workload.name, seed)
    work = Path(spec["work_dir"])
    deadline = time.monotonic() + spec["budget_s"]
    trace = tracer.Tracer(cli, harness, scenarios) if spec["trace"] else None

    for call in workloads.warmup_calls(workload, seed):
        run_call(call, work / "warmup", prefix, None)
    calls = workloads.calls(workload, seed)
    passes = []
    while not passes or time.monotonic() < deadline:
        passes.append(run_pass(calls, work, prefix, reference))
        if trace is not None:
            passes.append(run_pass(calls, work, prefix, reference, trace))
    if trace is not None:
        trace.write(spec["spans_path"])
    shutil.rmtree(work, ignore_errors=True)

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "loop_s": loop_s,
                "peak_rss_mb": peak_kb / 1024.0,
                "passes": passes,
                "env": environment(),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
