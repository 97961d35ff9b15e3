"""Record the output-check references of the current program.

Usage (from the repository root):

    python3 perfbench/record.py --seeds 1 2

For every workload and seed it makes the workload's CLI calls once and writes
``perfbench/reference/<workload>-seed<n>.json.gz`` with the summary CSV text
of every algorithm and the SHA-256 of every CSV the calls wrote.  Re-record
only in a change whose purpose is to alter the outputs, and say so.
"""

import argparse
import gzip
import json
import os
import shutil
import sys
from pathlib import Path

import workloads

os.environ.update(workloads.THREAD_ENV)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import outcheck  # noqa: E402
import worker  # noqa: E402  (imports numpy and beamtrack.cli)


def record(workload, seed: int, work: Path) -> dict:
    prefix = workload.subcommand[0]
    ref = {"workload": workload.name, "seed": seed, "summary": {}, "sha256": {}}
    for call in workloads.calls(workload, seed):
        out = work / call.algorithm
        result = worker.run_call(call, out, prefix, None)
        if result["failed"]:
            raise SystemExit(f"{workload.name} {call.algorithm}: {result['problems']}")
        name = f"{prefix}_{call.algorithm}.csv"
        ref["summary"][name] = (out / name).read_text()
        for path in sorted(out.glob("*.csv")):
            ref["sha256"][path.name] = outcheck.sha256(path.read_bytes())
    return ref


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args()
    work = ROOT / ".perfbench" / "record"
    outcheck.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, workload in workloads.WORKLOADS.items():
        for seed in args.seeds:
            ref = record(workload, seed, work)
            path = outcheck.reference_path(name, seed)
            with gzip.GzipFile(path, "wb", mtime=0) as fh:
                fh.write(json.dumps(ref, sort_keys=True).encode())
            print(f"wrote {path.relative_to(ROOT)} ({path.stat().st_size} bytes)")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
