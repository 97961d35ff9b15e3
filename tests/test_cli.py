import csv
import json
import math
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamtrack import cli
from beamtrack.harness import RunConfig


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "beamtrack.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestCrlbCommand:
    def test_values_and_outputs(self, tmp_path):
        res = run_cli("crlb", "--out", str(tmp_path), "--antennas", "16", "--snr-db", "10")
        assert res.returncode == 0
        assert f"{18000 * math.pi**2:.6f}"[:8] in res.stdout.replace(",", "")
        assert "0.01061" in res.stdout
        assert "0.0688" in res.stdout
        rows = read_csv(tmp_path / "crlb.csv")
        first = rows[0]
        assert float(first["crlb_x"]) == pytest.approx(1 / (18000 * math.pi**2))
        manifest = json.loads((tmp_path / "run.json").read_text())
        assert manifest["command"] == "crlb"
        assert "crlb.csv" in manifest["outputs"]


class TestStablePointsCommand:
    def test_spacing_for_eight_antennas(self, tmp_path):
        res = run_cli(
            "analyze-stable-points", "--antennas", "8", "--x", "0.5",
            "--out", str(tmp_path),
        )
        assert res.returncode == 0
        pts = [float(r["v"]) for r in read_csv(tmp_path / "stable_points.csv")]
        np.testing.assert_allclose(np.diff(pts), 2 / 7, rtol=1e-9)
        assert 0.5 in pts
        slopes = [float(r["slope"]) for r in read_csv(tmp_path / "stable_points.csv")]
        assert all(s < 0 for s in slopes)
        assert (tmp_path / "stable_points_curve.csv").exists()
        assert (tmp_path / "stable_points.gp").exists()


class TestInitQualityCommand:
    def test_reports_hit_rates(self, tmp_path):
        res = run_cli(
            "init-quality", "--out", str(tmp_path), "--trials", "400",
            "--snr-grid", "10", "--m0-factors", "2,4", "--seed", "1",
        )
        assert res.returncode == 0
        rows = read_csv(tmp_path / "init_quality.csv")
        assert len(rows) == 2
        for row in rows:
            assert 0.9 <= float(row["hit_rate"]) <= 1.0


class TestStaticCommand:
    def test_smoke_and_determinism(self, tmp_path):
        args = [
            "static", "--trials", "10", "--slots", "30", "--seed", "4",
            "--algorithms", "recursive,ls",
        ]
        r1 = run_cli(*args, "--out", str(tmp_path / "a"), "--jobs", "1")
        r2 = run_cli(*args, "--out", str(tmp_path / "b"), "--jobs", "2")
        assert r1.returncode == 0 and r2.returncode == 0
        for name in ("static_recursive.csv", "static_ls.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()
        assert (tmp_path / "a" / "static_mse.gp").exists()
        manifest = json.loads((tmp_path / "a" / "run.json").read_text())
        assert manifest["config"]["trials"] == 10

    def test_snr_rescales_bound_column(self, tmp_path):
        args = ["static", "--trials", "2", "--slots", "5", "--seed", "0",
                "--algorithms", "recursive"]
        run_cli(*args, "--snr-db", "10", "--out", str(tmp_path / "hi"))
        run_cli(*args, "--snr-db", "0", "--out", str(tmp_path / "lo"))
        hi = read_csv(tmp_path / "hi" / "static_recursive.csv")
        lo = read_csv(tmp_path / "lo" / "static_recursive.csv")
        for row_hi, row_lo in zip(hi, lo):
            assert float(row_lo["crlb_h_ref"]) == pytest.approx(
                10 * float(row_hi["crlb_h_ref"]), rel=1e-9
            )


class TestDynamicCommand:
    def test_smoke_with_traces(self, tmp_path):
        res = run_cli(
            "dynamic", "--trials", "6", "--slots", "40", "--seed", "2",
            "--out", str(tmp_path),
        )
        assert res.returncode == 0
        for name in ("recursive", "80211ad", "ls", "cs"):
            assert (tmp_path / f"dynamic_{name}.csv").exists()
            trace = read_csv(tmp_path / f"dynamic_trace_{name}.csv")
            assert len(trace) == 40
        rec = read_csv(tmp_path / "dynamic_trace_recursive.csv")
        assert abs(float(rec[0]["x"])) <= 1.0
        assert (tmp_path / "dynamic_rate.gp").exists()

    def test_fixed_velocity_option(self, tmp_path):
        res = run_cli(
            "dynamic", "--trajectory", "fixed-velocity", "--omega", "0.05",
            "--trials", "3", "--slots", "25", "--out", str(tmp_path),
            "--algorithms", "recursive",
        )
        assert res.returncode == 0
        trace = read_csv(tmp_path / "dynamic_trace_recursive.csv")
        thetas = [float(r["theta"]) for r in trace]
        assert np.allclose(np.abs(np.diff(thetas)), 0.05, atol=1e-9)


class TestSweepSpeedCommand:
    def test_smoke(self, tmp_path):
        res = run_cli(
            "sweep-speed", "--trials", "4", "--slots", "60",
            "--omega-grid", "0.01,0.1", "--out", str(tmp_path),
            "--algorithms", "recursive,cs", "--seed", "6",
        )
        assert res.returncode == 0
        for name in ("sweep_recursive_m16.csv", "sweep_recursive_m8.csv",
                     "sweep_recursive_m4.csv", "sweep_cs.csv"):
            rows = read_csv(tmp_path / name)
            assert [float(r["omega"]) for r in rows] == [0.01, 0.1]
        assert (tmp_path / "sweep_rate.gp").exists()

    def test_track_antennas_restriction(self, tmp_path):
        res = run_cli(
            "sweep-speed", "--trials", "3", "--slots", "40",
            "--omega-grid", "0.02", "--track-antennas", "8",
            "--algorithms", "recursive", "--out", str(tmp_path),
        )
        assert res.returncode == 0
        assert (tmp_path / "sweep_recursive_m8.csv").exists()
        assert not (tmp_path / "sweep_recursive_m16.csv").exists()

    def test_track_antennas_from_config_file(self, tmp_path):
        # the baselines run on the full array, so ls may join a subarray sweep
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"track_antennas": 8}))
        res = run_cli(
            "sweep-speed", "--config", str(cfg_path), "--trials", "2",
            "--slots", "30", "--omega-grid", "0.02", "--out", str(tmp_path / "o"),
        )
        assert res.returncode == 0, res.stderr
        written = sorted(p.name for p in (tmp_path / "o").glob("sweep_*.csv"))
        assert written == [
            "sweep_80211ad.csv", "sweep_cs.csv", "sweep_ls.csv",
            "sweep_recursive_m8.csv",
        ]


class TestConfigFile:
    def test_file_values_and_flag_override(self, tmp_path):
        cfg = {
            "trials": 7,
            "snr_db": 5.0,
            "algorithms": ["recursive"],
            "seed": 11,
            "slots": 12,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        res = run_cli(
            "static", "--config", str(cfg_path), "--trials", "3",
            "--out", str(tmp_path / "o"),
        )
        assert res.returncode == 0
        manifest = json.loads((tmp_path / "o" / "run.json").read_text())
        assert manifest["config"]["trials"] == 3  # flag wins
        assert manifest["config"]["snr_db"] == 5.0
        assert manifest["config"]["seed"] == 11
        rows = read_csv(tmp_path / "o" / "static_recursive.csv")
        assert len(rows) == 12

    def test_command_default_applies_with_config_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 3}))
        res = run_cli(
            "static", "--config", str(cfg_path), "--slots", "2",
            "--algorithms", "recursive", "--jobs", "1", "--out", str(tmp_path / "o"),
        )
        assert res.returncode == 0, res.stderr
        manifest = json.loads((tmp_path / "o" / "run.json").read_text())
        assert manifest["config"]["trials"] == 10000
        assert manifest["config"]["seed"] == 3


# run setting -> (flag, values a run may take); num_antennas >= 8 >= track_antennas
_LAYERED = {
    "seed": ("--seed", st.integers(0, 2**31 - 1)),
    "trials": ("--trials", st.integers(1, 6)),
    "slots": ("--slots", st.integers(1, 5)),
    "snr_db": ("--snr-db", st.sampled_from([0.0, 5.0, 12.5])),
    "num_antennas": ("--antennas", st.integers(8, 12)),
    "track_antennas": ("--track-antennas", st.integers(2, 8)),
    "jobs": ("--jobs", st.sampled_from([1, 2])),
}
_RUNCONFIG_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


@settings(max_examples=40)
@given(
    layers=st.fixed_dictionaries(
        {
            key: st.tuples(st.none() | values, st.none() | values)
            for key, (_, values) in _LAYERED.items()
        }
    )
)
def test_flag_beats_file_beats_command_default(layers):
    """Each run setting comes from the flag if given, else the config file,
    else the command default, else RunConfig's default.  Small command
    defaults keep every run a single in-process chunk."""
    small = {"trials": 3, "slots": 4, "jobs": cli._COMMAND_DEFAULTS["static"]["jobs"]}
    file_cfg = {k: file for k, (file, _) in layers.items() if file is not None}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(
        cli._COMMAND_DEFAULTS["static"], small
    ):
        argv = ["static", "--algorithms", "recursive", "--out", tmp]
        if file_cfg:
            cfg_path = Path(tmp) / "cfg.json"
            cfg_path.write_text(json.dumps(file_cfg))
            argv += ["--config", str(cfg_path)]
        for key, (_, flag) in layers.items():
            if flag is not None:
                argv += [_LAYERED[key][0], str(flag)]
        assert cli.main(argv) == 0
        echo = json.loads((Path(tmp) / "run.json").read_text())["config"]
    echo["slots"] = echo["trajectory"]["num_slots"]
    for key, (file, flag) in layers.items():
        expected = next(
            (v for v in (flag, file) if v is not None),
            small.get(key, _RUNCONFIG_DEFAULTS.get(key)),
        )
        assert echo[key] == expected, key


class TestErrors:
    def test_unknown_flag_usage_error(self):
        res = run_cli("static", "--definitely-not-a-flag")
        assert res.returncode != 0

    def test_unknown_algorithm(self, tmp_path):
        res = run_cli(
            "static", "--algorithms", "magic", "--trials", "2", "--slots", "3",
            "--out", str(tmp_path / "o"),
        )
        assert res.returncode == 1
        assert res.stderr == "beamtrack: unknown algorithm 'magic'\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("static", "--slots", "0"),
            ("init-quality", "--trials", "0"),
            ("crlb", "--snr-db", "nan"),
            ("analyze-stable-points", "--antennas", "1"),
            ("dynamic", "--trajectory", "fixed-velocity", "--omega", "nan",
             "--trials", "2", "--slots", "5"),
            ("sweep-speed", "--omega-grid", "0.01,nan", "--trials", "2", "--slots", "5"),
            ("static", "--jobs", "0", "--trials", "2", "--slots", "5"),
            ("init-quality", "--snr-grid", "0,nan", "--trials", "5"),
            ("init-quality", "--m0-factors", "2,0", "--trials", "5"),
            ("analyze-stable-points", "--x", "1.5"),
            ("analyze-stable-points", "--x", "nan"),
            ("analyze-stable-points", "--samples", "-1"),
            ("analyze-stable-points", "--samples", "1"),
            ("static", "--seed", "-1", "--trials", "2", "--slots", "3"),
            ("init-quality", "--seed", "-5", "--trials", "10"),
        ],
    )
    def test_rejected_setting_one_line(self, tmp_path, argv):
        res = run_cli(*argv, "--out", str(tmp_path / "o"))
        assert res.returncode == 1
        assert res.stderr.startswith("beamtrack: ")
        assert res.stderr.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_rejected_spacing_in_config_one_line(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"spacing_over_wavelength": 0.6}))
        res = run_cli("crlb", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert res.returncode == 1
        assert res.stderr.startswith("beamtrack: spacing_over_wavelength")
        assert res.stderr.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_rejected_seed_in_config_one_line(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": -1, "trials": 2, "slots": 3}))
        res = run_cli("static", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert res.returncode == 1
        assert res.stderr == "beamtrack: seed must be a nonnegative integer, got -1\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"trials": 2.5}, "trials must be an integer, got 2.5"),
            ({"step_alpha": math.nan}, "alpha must be positive and finite, got nan"),
            ({"slots": 2.5}, "num_slots must be an integer, got 2.5"),
            ({"beta": [math.nan, 0]}, "beta must be finite and nonzero, got (nan+0j)"),
            ({"beta": [math.inf, 1]}, "beta must be finite and nonzero, got (inf+1j)"),
            ({"beta": [0, 0]}, "beta must be finite and nonzero, got 0j"),
        ],
        ids=["trials", "step_alpha", "slots", "beta_nan", "beta_inf", "beta_zero"],
    )
    def test_rejected_count_or_step_in_config_one_line(self, tmp_path, setting, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"trials": 2, "slots": 3, **setting}))
        res = run_cli("dynamic", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert res.returncode == 1
        assert res.stderr == f"beamtrack: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["out_dir", "out_prefix"])
    def test_output_key_in_config_is_unknown(self, tmp_path, key):
        # --out and the subcommand decide where a run writes and what
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: "elsewhere"}))
        res = run_cli("crlb", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert res.returncode == 1
        assert res.stderr == (
            f"beamtrack: unknown key(s) in config file {cfg_path}: {key}\n"
        )
        assert not (tmp_path / "o").exists()

    def test_flag_of_another_command_usage_error(self, tmp_path):
        res = run_cli("crlb", "--trials", "5", "--out", str(tmp_path))
        assert res.returncode == 2

    def test_missing_subcommand(self):
        res = run_cli()
        assert res.returncode != 0

    def test_unknown_config_key(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"num_antenas": 8, "slots": 5, "trials": 2}))
        res = run_cli(
            "static", "--config", str(cfg_path), "--algorithms", "recursive",
            "--out", str(tmp_path / "o"),
        )
        assert res.returncode != 0
        assert "num_antenas" in res.stderr
        assert not (tmp_path / "o").exists()
