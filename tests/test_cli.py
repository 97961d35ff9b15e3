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


@pytest.mark.parametrize("command", ["crlb", "analyze-stable-points", "init-quality"])
def test_analytic_commands_run_on_two_antennas(tmp_path, command, capsys):
    # they run no algorithm, so sweep-and-refine's 3-beam minimum does not apply
    trials = ("--trials", "20") if command == "init-quality" else ()
    assert cli.main([command, "--antennas", "2", *trials, "--out", str(tmp_path)]) == 0


class TestOutputDirectory:
    def test_rerun_leaves_only_its_own_files(self, tmp_path, capsys):
        out = tmp_path / "o"
        args = ["dynamic", "--trials", "2", "--slots", "20", "--seed", "3", "--jobs", "1",
                "--out", str(out)]
        assert cli.main(args) == 0
        assert len(list(out.iterdir())) == 11  # 4 summaries, 4 traces, 2 scripts, run.json
        assert cli.main([*args, "--algorithms", "recursive"]) == 0
        outputs = json.loads((out / "run.json").read_text())["outputs"]
        assert outputs == [
            "dynamic_rate.gp", "dynamic_recursive.csv", "dynamic_trace_recursive.csv",
            "dynamic_tracking.gp",
        ]
        assert sorted(p.name for p in out.iterdir()) == sorted([*outputs, "run.json"])

    def test_only_plain_names_are_removed(self, tmp_path, capsys):
        out = tmp_path / "o"
        (out / "sub").mkdir(parents=True)
        outside, nested, unlisted, stale = (
            tmp_path / "victim.txt", out / "sub" / "x.csv", out / "keep.txt", out / "old.csv"
        )
        for path in (outside, nested, unlisted, stale):
            path.write_text("x")
        listed = ["../victim.txt", str(outside), "sub/x.csv", "sub", "..", ".", "", 7, "old.csv"]
        (out / "run.json").write_text(json.dumps({"outputs": listed}))
        assert cli.main(["crlb", "--out", str(out)]) == 0
        assert not stale.exists()
        assert outside.exists() and nested.exists() and unlisted.exists()
        assert sorted(p.name for p in out.iterdir()) == ["crlb.csv", "keep.txt", "run.json", "sub"]

    def test_rejected_run_touches_nothing(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert cli.main(["crlb", "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        with pytest.raises(SystemExit):
            cli.main(["crlb", "--snr-db", "nan", "--out", str(out)])
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


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
        assert json.loads((tmp_path / "run.json").read_text())["config"]["track_antennas"] == 8

    def test_runs_only_the_given_algorithms(self, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["sweep-speed", "--algorithms", "ls", "--trials", "2", "--slots", "20",
                "--omega-grid", "0.02", "--jobs", "1", "--out", str(out)]
        assert cli.main(argv) == 0
        assert sorted(p.name for p in out.glob("sweep_*.csv")) == ["sweep_ls.csv"]
        assert json.loads((out / "run.json").read_text())["config"]["algorithms"] == ["ls"]

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
    small = {"trials": 3, "slots": 4, "jobs": cli._COMMANDS["static"].reads["jobs"]}
    file_cfg = {k: file for k, (file, _) in layers.items() if file is not None}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(
        cli._COMMANDS["static"].reads, small
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
            ({"slots": 2.5}, "slots must be an integer, got 2.5"),
            ({"seed": None}, "seed must be an integer, got None"),
            ({"num_antennas": None}, "num_antennas must be an integer, got None"),
            ({"chunk_size": None}, "chunk_size must be an integer, got None"),
            ({"snr_db": None}, "snr_db must be a real number, got None"),
            ({"omega": None}, "omega must be a real number, got None"),
            ({"step_alpha": "x"}, "step_alpha must be a real number, got 'x'"),
            ({"track_antennas": 20}, "track_antennas must be from 2 to 16, got 20"),
        ],
        ids=["trials", "step_alpha", "slots", "seed_null", "num_antennas_null",
             "chunk_size_null", "snr_db_null", "omega_null", "step_alpha_text",
             "track_antennas_range"],
    )
    def test_rejected_count_or_step_in_config_one_line(self, tmp_path, setting, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"trials": 2, "slots": 3, **setting}))
        res = run_cli("dynamic", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert res.returncode == 1
        assert res.stderr == f"beamtrack: {message}\n"
        assert not (tmp_path / "o").exists()

    # --out and the subcommand decide where a run writes and what; the
    # step schedule, the steady-state skip, the half-wavelength spacing and
    # the unit channel gain are fixed
    @pytest.mark.parametrize(
        "key",
        ["out_dir", "out_prefix", "step_kind", "step_n0", "steady_skip", "beta",
         "spacing_over_wavelength"],
    )
    def test_output_key_in_config_is_unknown(self, tmp_path, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: "elsewhere"}))
        res = run_cli("crlb", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert res.returncode == 1
        assert res.stderr == (
            f"beamtrack: unknown key(s) in config file {cfg_path}: {key}\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, key",
        [
            ("crlb", "trials"),
            ("crlb", "slots"),
            ("crlb", "trajectory"),
            ("analyze-stable-points", "snr_db"),
            ("analyze-stable-points", "seed"),
            ("init-quality", "snr_db"),
            ("init-quality", "algorithms"),
            ("init-quality", "sweep_dictionary_size"),
        ],
    )
    def test_config_key_the_command_does_not_read(self, tmp_path, command, key):
        # a setting the subcommand would ignore is rejected, not dropped
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: 1}))
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert exc.value.code == (
            f"beamtrack: key(s) that {command} does not read in config file {cfg_path}: {key}"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, setting, message",
        [
            *[
                (command, {"algorithms": []},
                 "algorithms must be a non-empty list of names, got []")
                for command in ("static", "dynamic", "sweep-speed")
            ],
            ("analyze-stable-points", {"x": 1.5}, "x must be a real number in [-1, 1], got 1.5"),
            ("analyze-stable-points", {"x": "0.3"},
             "x must be a real number in [-1, 1], got '0.3'"),
            ("analyze-stable-points", {"samples": 1},
             "samples must be an integer of at least 2, got 1"),
            ("analyze-stable-points", {"samples": 50.0},
             "samples must be an integer of at least 2, got 50.0"),
            ("sweep-speed", {"omega_grid": []},
             "omega_grid must be a non-empty list of numbers, got []"),
            ("sweep-speed", {"omega_grid": 0.1},
             "omega_grid must be a non-empty list of numbers, got 0.1"),
            ("init-quality", {"snr_grid": [0, "5"]},
             "snr_grid must be a non-empty list of numbers, got [0, '5']"),
            ("init-quality", {"m0_factors": [1.5]},
             "m0_factors must be a non-empty list of integers, got [1.5]"),
            ("dynamic", {"trajectory": "static"},
             "trajectory must be sinusoidal or fixed-velocity, got 'static'"),
        ],
        ids=["static_no_algorithms", "dynamic_no_algorithms", "sweep_speed_no_algorithms",
             "x_range", "x_text", "samples_one", "samples_float", "omega_grid_empty",
             "omega_grid_scalar", "snr_grid_text", "m0_factors_float", "dynamic_static"],
    )
    def test_rejected_cli_checked_value_in_config_one_line(
        self, tmp_path, command, setting, message
    ):
        # a config-file value gets the check its flag gets, and a simulation
        # needs at least one algorithm
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(setting))
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert exc.value.code == f"beamtrack: {message}"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "cannot read config file {path}: [Errno 2] No such file or directory: "),
            ('{"seed": 1,', "cannot read config file {path}: Expecting property name"),
            ("5", "config file {path} must hold a JSON object, got int"),
            ('["num_antennas"]', "config file {path} must hold a JSON object, got list"),
        ],
        ids=["missing", "malformed", "number", "list"],
    )
    def test_bad_config_file_one_line(self, tmp_path, content, message):
        cfg_path = tmp_path / "cfg.json"
        if content is not None:
            cfg_path.write_text(content)
        res = run_cli("crlb", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert res.returncode == 1
        assert res.stderr.startswith("beamtrack: " + message.format(path=cfg_path))
        assert res.stderr.count("\n") == 1
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
