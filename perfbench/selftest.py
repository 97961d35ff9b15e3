"""Tests of the benchmark's own code (not part of the package's test suite).

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py
"""

import contextlib
import math
import os
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import beamtrack.cli as cli  # noqa: E402
from beamtrack import harness, scenarios  # noqa: E402

import hostspeed  # noqa: E402
import outcheck  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


SLOTS = workloads.WORKLOADS["static"].slots


@pytest.fixture(scope="module")
def reference():
    """The recorded reference of the static workload at seed 1."""
    ref = outcheck.load_reference("static", 1)
    assert ref is not None, "no recorded reference for static seed 1"
    return ref


@pytest.fixture(scope="module")
def text(reference):
    return reference["summary"]["static_recursive.csv"]


def _edit(text, row, column, value):
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[column] = value(cells[column])
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _swap(text, i, j):
    """Swap two columns in every data row, keeping the header."""
    lines = text.splitlines()
    for k in range(1, len(lines)):
        cells = lines[k].split(",")
        cells[i], cells[j] = cells[j], cells[i]
        lines[k] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _problems(text, reference_text):
    return outcheck.invariants(text, "recursive", SLOTS) + outcheck.against_reference(
        text, reference_text
    )


def test_check_accepts_the_recorded_csv(text):
    assert _problems(text, text) == []


def test_check_flags_a_1e6_relative_perturbation(text):
    bad = _edit(text, 500, 1, lambda v: repr(float(v) * (1.0 + 1e-6)))
    assert _problems(bad, text)


def test_check_flags_a_nan(text):
    bad = _edit(text, 10, 3, lambda v: "nan")
    assert outcheck.invariants(bad, "recursive", SLOTS)
    assert _problems(bad, text)


def test_check_flags_a_swapped_column(text):
    assert _problems(_swap(text, 1, 3), text)  # mean_mse_h <-> mean_rate
    # mean_rate <-> conv_frac breaks an invariant even without a reference
    assert outcheck.invariants(_swap(text, 3, 4), "recursive", SLOTS)


def test_ls_nan_columns_are_allowed_only_for_ls(reference):
    ls_text = reference["summary"]["static_ls.csv"]
    assert outcheck.invariants(ls_text, "ls", SLOTS) == []
    assert outcheck.invariants(ls_text, "recursive", SLOTS)


def _snapshot():
    return {
        owner: dict(vars(owner))
        for owner in (cli, harness, scenarios, scenarios.RngPlan)
    }


def _tiny_call(alg, out):
    argv = ["static", "--algorithms", alg, "--trials", "3", "--slots", "5",
            "--seed", "4", "--jobs", "1", "--out", str(out)]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert cli.main(argv) == 0


def test_tracer_restores_every_attribute(tmp_path):
    before = _snapshot()
    trace = tracer.Tracer(cli, harness, scenarios)
    with trace:
        assert cli.main is not before[cli]["main"]
        assert harness._inner is not before[harness]["_inner"]
        _tiny_call("recursive", tmp_path)
    with pytest.raises(RuntimeError), trace:
        raise RuntimeError("a call that fails under tracing")
    after = _snapshot()
    for owner, attrs in before.items():
        assert set(vars(owner)) == set(attrs)
        for name, value in attrs.items():
            assert vars(owner)[name] is value, f"{owner.__name__}.{name} not restored"


def test_self_times_sum_to_the_traced_wall_time(tmp_path):
    trace = tracer.Tracer(cli, harness, scenarios)
    outside = 0.0
    for alg in ("recursive", "cs"):
        trace.algorithm = alg
        with trace:
            start = time.perf_counter()
            _tiny_call(alg, tmp_path / alg)
            outside += time.perf_counter() - start
    total = 0.0
    for alg in ("recursive", "cs"):
        metrics = tracer.layer_metrics(trace.spans, alg)
        layer_sum = sum(metrics[names[0]] for names in tracer.LAYERS.values())
        root = tracer.root_seconds(trace.spans, alg)
        assert math.isclose(layer_sum, root, rel_tol=1e-9)
        assert metrics["harness.kernel_calls"] > 0
        total += root
    everything = tracer.layer_metrics(trace.spans)
    assert math.isclose(
        sum(everything[names[0]] for names in tracer.LAYERS.values()),
        tracer.root_seconds(trace.spans),
        rel_tol=1e-9,
    )
    assert math.isclose(total, tracer.root_seconds(trace.spans), rel_tol=1e-9)
    assert total <= outside


def test_a_missing_name_reads_as_zero_calls(monkeypatch):
    monkeypatch.delattr(harness, "_inner")
    with tracer.Tracer(cli, harness, scenarios) as trace:
        pass
    assert not hasattr(harness, "_inner")
    assert tracer.layer_metrics(trace.spans)["harness.kernel_calls"] == 0


def test_same_seed_gives_the_same_cli_arguments():
    for workload in workloads.WORKLOADS.values():
        first = workloads.calls(workload, 7)
        assert first == workloads.calls(workload, 7)
        assert first != workloads.calls(workload, 8)
        assert [c.algorithm for c in first] == list(workload.trials)
        for call in first:
            assert call.argv[call.argv.index("--jobs") + 1] == "1"


def _fake_run(host_factor):
    """A measured process's result in which the host ran ``host_factor``
    times slower than the reference speed."""
    def call(alg, seconds, trial_slots):
        loop = hostspeed.REFERENCE_S * host_factor
        return {"algorithm": alg, "seconds": seconds * host_factor,
                "trial_slots": trial_slots, "failed": False, "loop_s": [loop, loop]}
    passes = [
        {"traced": False, "calls": [call("recursive", 0.5 + 0.01 * k, 250_000),
                                    call("cs", 0.3, 10_000)]}
        for k in range(5)
    ]
    return {"setup_s": 0.2 * host_factor, "loop_s": hostspeed.REFERENCE_S * host_factor,
            "peak_rss_mb": 50.0, "passes": passes}


def test_a_uniformly_slower_host_leaves_the_scaled_metrics_unchanged():
    workload = workloads.Workload("fake", ("static",), 1000, {"recursive": 1, "cs": 1})
    metrics = {}
    for factor in (1.0, 1.6):
        result = _fake_run(factor)
        setups = [hostspeed.scale(result["setup_s"], result["loop_s"])]
        metrics[factor], _ = run.end_to_end(workload, setups, [result])
    for name, value in metrics[1.0].items():
        assert math.isclose(metrics[1.6][name], value, rel_tol=1e-12), name
    assert math.isclose(metrics[1.0]["recursive.trial_slots_per_s"], 250_000 / 0.52)
    assert math.isclose(metrics[1.0]["wall_s"], 0.82)
    assert math.isclose(metrics[1.0]["setup_s"], 0.2)
