"""Command-line benchmark driver.

Subcommands map to the benchmark experiments (static convergence, dynamic
tracking, angular-speed sweep) and to the closed-form analytics (bound
tables, drift-function analysis, initialization quality).  Every run writes
CSV files, a small gnuplot script per figure, and a ``run.json`` manifest
echoing the configuration and seed, all through one ``_Output`` per run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, harness
from .arraymodel import (
    channel_mse_limit,
    crlb_min,
    i_max,
    stable_points,
    steering_matrix,
    steering_vector,
    surrogate_f,
)
from .harness import (
    ALGORITHMS,
    RunConfig,
    initialization_hit_rate,
    run_experiment,
)
from .scenarios import Trajectory
from .trackers import alpha_star

# per-command defaults: the config file overrides them, and the flags override both
_CORES = os.cpu_count() or 1
_COMMAND_DEFAULTS = {
    "static": {"trials": 10000, "slots": 1000, "jobs": _CORES},
    "dynamic": {"trials": 1000, "slots": 1000, "jobs": _CORES},
    "sweep-speed": {"trials": 200, "slots": 2000, "jobs": _CORES},
    "crlb": {},
    "analyze-stable-points": {"num_antennas": 8},
    "init-quality": {"trials": 10000},
}


def _words(text: str) -> tuple[str, ...]:
    return tuple(text.split(","))


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


# run-setting flags; each dest is the RunConfig field (or "slots") it sets
_SETTING_FLAGS = {
    "--seed": dict(type=int, help="master seed"),
    "--trials": dict(type=int),
    "--slots": dict(type=int),
    "--snr-db": dict(type=float),
    "--antennas": dict(type=int, dest="num_antennas", metavar="ANTENNAS"),
    "--track-antennas": dict(type=int),
    "--jobs": dict(type=int, help="worker processes (default: all cores)"),
    "--algorithms": dict(type=_words, help="comma list from: " + ",".join(ALGORITHMS)),
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="beamtrack",
        description="Analog beam tracking benchmark for linear phased arrays",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, flags=tuple(_SETTING_FLAGS)):
        # a setting flag that is not given leaves no attribute behind
        sp = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        sp.add_argument("--config", type=Path, default=None,
                        help="JSON config mirroring RunConfig")
        sp.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        for flag in flags:
            sp.add_argument(flag, **_SETTING_FLAGS[flag])
        return sp

    command("static", "fixed-direction convergence benchmark")

    dp = command("dynamic", "moving-direction tracking benchmark")
    dp.add_argument(
        "--trajectory",
        choices=("sinusoidal", "fixed-velocity"),
        default="sinusoidal",
    )
    dp.add_argument("--omega", type=float, default=0.01, help="rad/slot")

    wp = command("sweep-speed", "rate/MSE versus angular velocity")
    wp.add_argument(
        "--omega-grid",
        type=_floats,
        default=list(np.geomspace(1e-3, 0.3, 20)),
        help="comma list of rad/slot values (default: 20 log-spaced from 1e-3 to 0.3)",
    )

    command("crlb", "print bound tables for a configuration", ("--antennas", "--snr-db"))

    ap = command("analyze-stable-points", "drift-function analysis", ("--antennas",))
    ap.add_argument("--x", type=float, default=0.5, help="true direction sine")
    ap.add_argument("--samples", type=int, default=2001)

    ip = command(
        "init-quality",
        "coarse-sweep hit probability",
        ("--antennas", "--trials", "--seed"),
    )
    ip.add_argument("--snr-grid", type=_floats, default="0,5,10",
                    help="comma list of dB values")
    ip.add_argument("--m0-factors", type=_ints, default="1,2,4",
                    help="dictionary size / antennas")
    return p


_FILE_KEYS = {f.name for f in fields(RunConfig)} | {"slots"}
# the subcommand decides the trajectory, whatever the file says
_SETTINGS = _FILE_KEYS - {"trajectory"}


def _load_file_config(path: Path | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        file_cfg = json.load(fh)
    unknown = ", ".join(sorted(set(file_cfg) - _FILE_KEYS))
    if unknown:
        raise SystemExit(f"beamtrack: unknown key(s) in config file {path}: {unknown}")
    return file_cfg


def _settings(args) -> dict:
    """The run settings: command default, then config file, then flag."""
    settings = dict(_COMMAND_DEFAULTS[args.command])
    for layer in (_load_file_config(args.config), vars(args)):
        settings.update((k, v) for k, v in layer.items() if k in _SETTINGS)
    return settings


def _run_config(settings: dict, trajectory=Trajectory.static, **overrides) -> RunConfig:
    """The RunConfig of ``settings`` on ``trajectory(slots)``.  A rejected
    setting ends the run with one ``beamtrack: <reason>`` line on stderr."""
    kw = {**settings, **overrides}
    try:
        if "beta" in kw:
            kw["beta"] = complex(*kw["beta"])
        kw["algorithms"] = tuple(kw.get("algorithms", ALGORITHMS))
        return RunConfig(trajectory(kw.pop("slots", 1)), **kw)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"beamtrack: {exc}") from None


def _config_dict(cfg: RunConfig) -> dict:
    d = asdict(cfg)
    d["beta"] = [cfg.beta.real, cfg.beta.imag]
    return d


def _cell(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.12g}"


class _Output:
    """The files of one run in its ``--out`` directory: CSV tables, gnuplot
    scripts and summary CSVs, then ``run.json``, whose ``outputs`` lists every
    name written.  Create it only after the run's settings are checked and its
    results computed, so that a rejected run writes nothing."""

    def __init__(self, directory: Path, command: str):
        directory.mkdir(parents=True, exist_ok=True)
        self._dir = directory
        self._command = command
        self._names: list[str] = []

    def _path(self, name: str) -> Path:
        self._names.append(name)
        return self._dir / name

    def table(self, name: str, header: str, rows) -> None:
        """A CSV table: ints as written, every other value ``.12g``."""
        with open(self._path(name), "w") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(map(_cell, row)) + "\n")

    def summary(self, name: str, summary) -> None:
        # looked up on the module, so perfbench's tracer, which rebinds the
        # harness attribute, times every summary CSV
        harness.write_summary_csv(self._path(name), summary)

    def plot(self, name: str, clauses, xlabel: str, ylabel=None, logscale=None) -> None:
        """A gnuplot script plotting ``clauses`` from the run's CSV files."""
        lines = [f"set logscale {logscale}"] if logscale else []
        lines.append(f'set xlabel "{xlabel}"')
        if ylabel:
            lines.append(f'set ylabel "{ylabel}"')
        lines += ["set datafile separator ','", "plot " + ", ".join(clauses)]
        self._path(name).write_text("\n".join(lines) + "\n")

    def manifest(self, config: dict) -> None:
        manifest = {
            "tool": "beamtrack",
            "version": __version__,
            "command": self._command,
            "seed": config.get("seed"),
            "config": config,
            "outputs": sorted(self._names),
        }
        with open(self._dir / "run.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_static(args, settings: dict) -> int:
    cfg = _run_config(settings)
    summaries = run_experiment(cfg)
    out = _Output(args.out, "static")
    for name, s in summaries.items():
        out.summary(f"static_{name}.csv", s)
        final = s.mean_mse_h[-1] * s.slots[-1]
        print(f"{name}: n*MSE_h at n={s.slots[-1]} = {final:.6g}")
    out.plot(
        "static_mse.gp",
        [
            f"'static_{name}.csv' using 1:($1*$2) with lines title '{name}'"
            for name in cfg.algorithms
        ]
        + ["'static_recursive.csv' using 1:($1*$6) with lines dt 2 title 'bound'"],
        "slot n",
        "n * MSE_h",
        logscale="xy",
    )
    out.manifest(_config_dict(cfg))
    return 0


def _theta(x: float) -> float:
    """Arrival angle of direction sine ``x``; NaN stays NaN."""
    return math.nan if math.isnan(x) else math.asin(max(-1.0, min(1.0, x)))


def _trace_rows(record):
    # rows of Python floats, which format faster than numpy scalars
    columns = (c.tolist() for c in (record.x, record.x_hat, record.rate, record.mse_h))
    for slot, (x, x_hat, rate, mse) in enumerate(zip(*columns), 1):
        yield slot, x, _theta(x), x_hat, _theta(x_hat), rate, mse


def _cmd_dynamic(args, settings: dict) -> int:
    if args.trajectory == "sinusoidal":
        traj = Trajectory.sinusoidal
    else:
        traj = partial(Trajectory.fixed_velocity, omega=args.omega)
    cfg = _run_config(settings, traj)
    summaries = run_experiment(cfg)
    out = _Output(args.out, "dynamic")
    for name, s in summaries.items():
        out.summary(f"dynamic_{name}.csv", s)
        out.table(
            f"dynamic_trace_{name}.csv",
            "slot,x,theta,x_hat,theta_hat,rate,mse_h",
            _trace_rows(s.trace),
        )
        print(f"{name}: steady mean rate = {s.steady_mean_rate:.4f} bits/s/Hz")
    out.plot(
        "dynamic_rate.gp",
        [f"'dynamic_{name}.csv' using 1:4 with lines title '{name}'" for name in cfg.algorithms],
        "slot n",
        "mean rate (bits/s/Hz)",
    )
    out.plot(
        "dynamic_tracking.gp",
        [f"'dynamic_trace_{cfg.algorithms[0]}.csv' using 1:3 with lines title 'true'"]
        + [
            f"'dynamic_trace_{name}.csv' using 1:5 with lines title '{name}'"
            for name in cfg.algorithms
            if name != "ls"
        ],
        "slot n",
        "angle (rad)",
    )
    out.manifest(_config_dict(cfg))
    return 0


def _cmd_sweep_speed(args, settings: dict) -> int:
    grid = args.omega_grid
    # recursive runs at each tracking-subarray size; estimate-based baselines
    # need (or are only meaningful with) the full array
    subset = settings.pop("track_antennas", None)

    def config(omega: float, **kw) -> RunConfig:
        return _run_config(settings, partial(Trajectory.fixed_velocity, omega=omega), **kw)

    base_cfg = config(grid[0])
    if subset is not None:
        subsets = [subset]
    else:
        subsets = [m for m in (16, 8, 4) if m <= base_cfg.num_antennas]
    runs = [
        (f"recursive_m{mt}", {"algorithms": ("recursive",), "track_antennas": mt})
        for mt in subsets
    ]
    runs += [
        (name, {"algorithms": (name,)})
        for name in base_cfg.algorithms
        if name != "recursive"
    ]
    series = [(label, [config(omega, **kw) for omega in grid]) for label, kw in runs]

    tables = {}
    for label, cfgs in series:
        rows = []
        for cfg in cfgs:
            summary = run_experiment(cfg)[cfg.algorithms[0]]
            rows.append(
                (
                    cfg.trajectory.omega,
                    summary.steady_mean_mse_h,
                    summary.steady_mean_rate,
                    summary.conv_frac[-1],
                )
            )
        tables[label] = rows
        print(f"{label}: rate at omega={grid[0]:.4g} -> {rows[0][2]:.4f}, "
              f"at omega={grid[-1]:.4g} -> {rows[-1][2]:.4f}")
    out = _Output(args.out, "sweep-speed")
    for label, rows in tables.items():
        out.table(f"sweep_{label}.csv", "omega,mean_mse_h,mean_rate,conv_frac", rows)
    for metric, col, ylabel in (("rate", 3, "mean rate"), ("mse", 2, "mean MSE_h")):
        out.plot(
            f"sweep_{metric}.gp",
            [
                f"'sweep_{label}.csv' using 1:{col} with linespoints title '{label}'"
                for label in tables
            ],
            "angular velocity (rad/slot)",
            ylabel,
            logscale="x",
        )
    cfg_echo = _config_dict(base_cfg)
    cfg_echo["omega_grid"] = list(map(float, grid))
    out.manifest(cfg_echo)
    return 0


def _cmd_crlb(args, settings: dict) -> int:
    cfg = _run_config(settings)
    geom, snr_db, rho = cfg.geometry, cfg.snr_db, cfg.rho
    sigma2 = 1.0 / rho  # unit-magnitude gain
    imax = i_max(geom, rho)
    limit = channel_mse_limit(geom, sigma2)
    astar = alpha_star(geom)
    print(f"antennas: {geom.num_antennas}, d/lambda: {geom.spacing_over_wavelength}")
    print(f"snr: {snr_db} dB (linear {rho:.6g})")
    print(f"peak Fisher information: {imax:.10g}")
    print(f"optimal step coefficient: {astar:.10g}")
    print(f"channel-MSE limit (n * MSE_h): {limit:.10g}")
    ns = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000]
    out = _Output(args.out, "crlb")
    out.table("crlb.csv", "n,crlb_x,crlb_h", [(n, crlb_min(geom, rho, n), limit / n) for n in ns])
    out.manifest(
        {
            "num_antennas": geom.num_antennas,
            "spacing_over_wavelength": geom.spacing_over_wavelength,
            "snr_db": snr_db,
            "i_max": imax,
            "alpha_star": astar,
            "channel_mse_limit": limit,
        }
    )
    return 0


def _cmd_stable_points(args, settings: dict) -> int:
    geom = _run_config(settings).geometry
    x = args.x
    if not -1.0 <= x <= 1.0:
        raise SystemExit(f"beamtrack: --x must lie in [-1, 1], got {x}")
    if args.samples < 2:
        raise SystemExit(f"beamtrack: --samples must be at least 2, got {args.samples}")
    vs = np.linspace(-1.0, 1.0, args.samples)
    m = geom.num_antennas
    inner = np.conj(steering_matrix(geom, vs)) @ steering_vector(geom, x)
    fs = -np.imag(inner) / math.sqrt(m)
    gains = np.abs(inner) / math.sqrt(m)
    pts = stable_points(geom, x)
    eps = 1e-6
    rows = []
    for v in pts:
        lo, hi = max(v - eps, -1.0), min(v + eps, 1.0)
        slope = (surrogate_f(geom, hi, x) - surrogate_f(geom, lo, x)) / (hi - lo)
        rows.append((v, surrogate_f(geom, v, x), slope))
    out = _Output(args.out, "analyze-stable-points")
    out.table("stable_points_curve.csv", "v,f,gain", zip(vs, fs, gains))
    out.table("stable_points.csv", "v,f,slope", rows)
    out.plot(
        "stable_points.gp",
        [
            "'stable_points_curve.csv' using 1:2 with lines title 'drift f(v,x)'",
            "'stable_points_curve.csv' using 1:3 with lines title 'gain'",
            "'stable_points.csv' using 1:2 with points pt 7 title 'stable points'",
        ],
        "probe direction v",
    )
    print(f"stable points for x={x}, M={m}: " + ", ".join(f"{v:.6g}" for v in pts))
    print(f"spacing: {1.0 / ((m - 1) * geom.spacing_over_wavelength):.6g}")
    out.manifest({"num_antennas": m, "x": x, "samples": args.samples})
    return 0


def _cmd_init_quality(args, settings: dict) -> int:
    cfg = _run_config(settings)
    geom, m, trials, seed = cfg.geometry, cfg.num_antennas, cfg.trials, cfg.seed
    snrs, factors = args.snr_grid, args.m0_factors
    if not all(map(math.isfinite, snrs)):
        raise SystemExit(f"beamtrack: --snr-grid values must be finite, got {snrs}")
    if min(factors) < 1:
        raise SystemExit(f"beamtrack: --m0-factors must be at least 1, got {factors}")
    rows = []
    for snr_db in snrs:
        for factor in factors:
            m0 = factor * m
            rate = initialization_hit_rate(geom, snr_db, m0, trials, seed)
            rows.append((snr_db, m0, trials, rate))
            print(f"snr {snr_db:5.1f} dB, M0={m0:4d}: hit rate {rate:.4f}")
    out = _Output(args.out, "init-quality")
    out.table("init_quality.csv", "snr_db,m0,trials,hit_rate", rows)
    out.plot(
        "init_quality.gp",
        ["'init_quality.csv' using 1:4 with points title 'hit rate'"],
        "SNR (dB)",
        "mainlobe hit rate",
    )
    out.manifest(
        {"num_antennas": m, "trials": trials, "seed": seed,
         "snr_grid": snrs, "m0_factors": factors}
    )
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "static": _cmd_static,
        "dynamic": _cmd_dynamic,
        "sweep-speed": _cmd_sweep_speed,
        "crlb": _cmd_crlb,
        "analyze-stable-points": _cmd_stable_points,
        "init-quality": _cmd_init_quality,
    }
    return handlers[args.command](args, _settings(args))


if __name__ == "__main__":
    sys.exit(main())
