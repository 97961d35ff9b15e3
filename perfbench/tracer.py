"""Outside-in layer tracing of the beamtrack package.

The tracer rebinds the names that ``beamtrack.cli`` and ``beamtrack.harness``
call into (plus ``RngPlan.stream``, which the harness reaches through its
``RngPlan``) to timing wrappers, and puts every original back on exit; no
file of the program is touched.  A name that is missing (renamed or removed)
is skipped, so its layer reads zero calls.  Spans are kept in memory as
``(layer, start_ns, end_ns, parent, algorithm, count)`` tuples and written
out on request.

A layer's time is self time: span time minus the time its child spans cover.
The self times of all spans of a CLI call therefore add up to its ``cli``
span.
"""

from __future__ import annotations

import functools
import gzip
import os
import time

import numpy as np

# layer -> (time metric, call-count metric, work-count metric), report order
LAYERS = {
    "cli": ("cli.self_s", None, None),
    "harness": ("harness.self_s", None, None),
    "kernel": ("harness.kernel_s", "harness.kernel_calls", "harness.kernel_exps"),
    "csv_write": ("harness.csv_write_s", None, "harness.csv_bytes"),
    "steering": (
        "arraymodel.steering_s",
        "arraymodel.steering_calls",
        "arraymodel.steering_elems",
    ),
    "substream": ("scenarios.substream_s", "scenarios.substream_calls", None),
    "trajectory": ("scenarios.trajectory_s", "scenarios.trajectory_calls", None),
    "noise": ("scenarios.noise_s", None, "scenarios.noise_samples"),
    "trackers": ("trackers.s", "trackers.calls", None),
    "baselines": ("baselines.s", "baselines.calls", None),
}

METRICS = [name for names in LAYERS.values() for name in names if name]


def _kernel_exps(args, result):
    # _inner(phase_step, m, delta): one complex exponential per delta and antenna
    if len(args) < 3:
        return 0
    return int(np.size(args[2])) * int(args[1])


def _csv_bytes(args, result):
    return os.path.getsize(args[0])


def _result_size(args, result):
    return int(np.size(result))


def targets(cli, harness, scenarios):
    """(owner, attribute, layer, count) for every name the tracer wraps."""
    out = [
        (cli, "main", "cli", None),
        (cli, "run_experiment", "harness", None),
        (harness, "_inner", "kernel", _kernel_exps),
        (harness, "write_summary_csv", "csv_write", _csv_bytes),
        (harness, "steering_matrix", "steering", _result_size),
        (scenarios.RngPlan, "stream", "substream", None),
        (harness, "generate", "trajectory", None),
        (harness, "complex_normal", "noise", _result_size),
    ]
    for name, obj in sorted(vars(harness).items()):
        layer = {"beamtrack.trackers": "trackers", "beamtrack.baselines": "baselines"}.get(
            getattr(obj, "__module__", None)
        )
        if layer and callable(obj):
            out.append((harness, name, layer, None))
    return out


class Tracer:
    """Context manager that records spans while the wrappers are installed.

    Set ``algorithm`` before each CLI call; spans are tagged with it."""

    def __init__(self, cli, harness, scenarios):
        self._targets = targets(cli, harness, scenarios)
        self._saved = []
        self._stack = []
        self.spans = []
        self.algorithm = None

    def __enter__(self):
        for owner, name, layer, count in self._targets:
            if name not in vars(owner):
                continue
            original = vars(owner)[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(getattr(owner, name), layer, count))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
        return False

    def _wrap(self, fn, layer, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (layer, start, time.perf_counter_ns(), parent, self.algorithm, 0)
                raise
            finally:
                stack.pop()
            end = time.perf_counter_ns()
            n = count(args, result) if count else 0
            spans[idx] = (layer, start, end, parent, self.algorithm, n)
            return result

        return wrapper

    def reset(self):
        self.spans.clear()

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            fh.write("layer,start_ns,end_ns,parent,algorithm,count\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")


def self_times(spans) -> list[int]:
    """Self time in ns of every span: its duration minus its children's."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans, algorithm=None) -> dict:
    """Per-layer metrics of the spans of one algorithm (all when None)."""
    out = dict.fromkeys(METRICS, 0)
    for span, own in zip(spans, self_times(spans)):
        layer, _, _, _, alg, n = span
        if algorithm is not None and alg != algorithm:
            continue
        time_name, calls_name, count_name = LAYERS[layer]
        out[time_name] += own * 1e-9
        if calls_name:
            out[calls_name] += 1
        if count_name:
            out[count_name] += n
    return out


def root_seconds(spans, algorithm=None) -> float:
    """Total time of the outermost spans (the traced wall time)."""
    return 1e-9 * sum(
        end - start
        for _, start, end, parent, alg, _ in spans
        if parent < 0 and (algorithm is None or alg == algorithm)
    )
