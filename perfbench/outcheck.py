"""Output check for the per-algorithm summary CSVs the CLI writes.

At any seed a CSV must satisfy the invariants below.  At a seed with a
recorded reference (``reference/<workload>-seed<n>.json.gz``, written by
``record.py``), every value must also match the reference to a relative
tolerance of 1e-9, and the check counts the CSVs that are byte-identical to
the recorded digests.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import json
import math
from pathlib import Path

from workloads import NUM_ANTENNAS, SNR_DB, SPACING_OVER_WAVELENGTH

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
RTOL = 1e-9
CSV_HEADER = "slot,mean_mse_h,n_mse_times_imax,mean_rate,conv_frac,crlb_h_ref"
# columns that are NaN by definition for the least-squares baseline, which
# has no direction estimate
LS_NAN_COLUMNS = ("n_mse_times_imax", "conv_frac")


def _closed_forms():
    """Paper closed forms at the benchmark's defaults (|beta| = 1)."""
    m, r = NUM_ANTENNAS, SPACING_OVER_WAVELENGTH
    rho = 10.0 ** (SNR_DB / 10.0)
    k = 2.0 * math.pi * r
    h_prime_norm_sq = k**2 * (m - 1) * m * (2 * m - 1) / 6.0
    i_max = 2.0 * m * (m - 1) ** 2 * math.pi**2 * r**2 * rho
    max_rate = math.log2(1.0 + rho * m)
    return h_prime_norm_sq, i_max, max_rate


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


def parse(text: str) -> tuple[list[str], list[list[float]]]:
    rows = list(csv.reader(text.splitlines()))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def invariants(text: str, algorithm: str, slots: int) -> list[str]:
    """Problems with a summary CSV that hold at any seed."""
    header, rows = parse(text)
    if ",".join(header) != CSV_HEADER:
        return [f"header {','.join(header)!r} != {CSV_HEADER!r}"]
    if [row[0] for row in rows] != list(range(1, slots + 1)):
        return [f"slots do not run 1..{slots}"]
    h_prime_norm_sq, i_max, max_rate = _closed_forms()
    col = {name: k for k, name in enumerate(header)}
    problems = []
    for row in rows:
        n = int(row[0])
        for name, value in zip(header, row):
            if math.isnan(value) and not (algorithm == "ls" and name in LS_NAN_COLUMNS):
                problems.append(f"slot {n}: {name} is NaN")
        crlb = h_prime_norm_sq / (n * i_max)
        if not _close(row[col["crlb_h_ref"]], crlb):
            problems.append(f"slot {n}: crlb_h_ref {row[col['crlb_h_ref']]!r} != {crlb!r}")
        if row[col["mean_rate"]] > max_rate * (1.0 + RTOL):
            problems.append(f"slot {n}: mean_rate above log2(1+rho*M)")
        conv = row[col["conv_frac"]]
        if not math.isnan(conv) and not 0.0 <= conv <= 1.0:
            problems.append(f"slot {n}: conv_frac {conv!r} outside [0, 1]")
    return problems


def against_reference(text: str, ref_text: str) -> list[str]:
    """Problems with a summary CSV relative to its recorded reference."""
    header, rows = parse(text)
    ref_header, ref_rows = parse(ref_text)
    if header != ref_header or len(rows) != len(ref_rows):
        return ["shape differs from the reference"]
    problems = []
    for row, ref in zip(rows, ref_rows):
        for name, value, expected in zip(header, row, ref):
            if not _close(value, expected):
                problems.append(
                    f"slot {int(ref[0])}: {name} {value!r} != reference {expected!r}"
                )
    return problems


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-seed{seed}.json.gz"


def load_reference(workload: str, seed: int) -> dict | None:
    path = reference_path(workload, seed)
    if not path.exists():
        return None
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_call(out_dir: Path, prefix: str, algorithm: str, slots: int, reference):
    """Check the outputs of one CLI call.  Returns (problems, identical), where
    ``identical`` counts CSVs byte-identical to the recorded digests."""
    path = out_dir / f"{prefix}_{algorithm}.csv"
    if not path.exists():
        return [f"{path.name} missing"], 0
    text = path.read_text()
    problems = invariants(text, algorithm, slots)
    identical = 0
    if reference is not None:
        ref_text = reference["summary"].get(path.name)
        if ref_text is None:
            problems.append(f"{path.name} has no reference")
        else:
            problems += against_reference(text, ref_text)
        for csv_path in sorted(out_dir.glob("*.csv")):
            identical += reference["sha256"].get(csv_path.name) == sha256(
                csv_path.read_bytes()
            )
    return problems, identical
