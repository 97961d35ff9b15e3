"""Command-line benchmark driver.

Subcommands map to the benchmark experiments (static convergence, dynamic
tracking, angular-speed sweep) and to the closed-form analytics (bound
tables, drift-function analysis, initialization quality).  Every run writes
CSV files, a small gnuplot script per figure, and a ``run.json`` manifest
echoing the configuration and seed.
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

from . import __version__
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
# the subcommand and --out decide these, whatever the file says
_SETTINGS = _FILE_KEYS - {"trajectory", "out_dir", "out_prefix"}


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


def _run_config(
    args, settings: dict, trajectory=Trajectory.static, **overrides
) -> RunConfig:
    """The RunConfig of ``settings`` on ``trajectory(slots)``.  A rejected
    setting ends the run with one ``beamtrack: <reason>`` line on stderr."""
    kw = {"out_dir": str(args.out), **settings, **overrides}
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


def _write_manifest(out: Path, command: str, config: dict, outputs: list[str]) -> None:
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "tool": "beamtrack",
        "version": __version__,
        "command": command,
        "seed": config.get("seed"),
        "config": config,
        "outputs": sorted(outputs),
    }
    with open(out / "run.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _write_gnuplot(out: Path, name: str, lines: list[str]) -> str:
    path = out / name
    path.write_text("\n".join(lines) + "\n")
    return name


# ---------------------------------------------------------------------------
# subcommands


def _cmd_static(args, settings: dict) -> int:
    cfg = _run_config(args, settings, out_prefix="static")
    summaries = run_experiment(cfg)
    out = Path(args.out)
    outputs = [f"static_{name}.csv" for name in cfg.algorithms]
    outputs.append(
        _write_gnuplot(
            out,
            "static_mse.gp",
            [
                "set logscale xy",
                'set xlabel "slot n"',
                'set ylabel "n * MSE_h"',
                "set datafile separator ','",
                "plot "
                + ", ".join(
                    f"'static_{name}.csv' using 1:($1*$2) with lines title '{name}'"
                    for name in cfg.algorithms
                )
                + ", 'static_recursive.csv' using 1:($1*$6) with lines dt 2 title 'bound'",
            ],
        )
    )
    _write_manifest(out, "static", _config_dict(cfg), outputs)
    for name, s in summaries.items():
        final = s.mean_mse_h[-1] * s.slots[-1]
        print(f"{name}: n*MSE_h at n={s.slots[-1]} = {final:.6g}")
    return 0


def _trace_csv(path: Path, record) -> None:
    with open(path, "w") as fh:
        fh.write("slot,x,theta,x_hat,theta_hat,rate,mse_h\n")
        for k in range(len(record.x)):
            x = record.x[k]
            xh = record.x_hat[k]
            th = math.asin(max(-1.0, min(1.0, x)))
            thh = math.asin(max(-1.0, min(1.0, xh))) if not math.isnan(xh) else math.nan
            fh.write(
                f"{k + 1},{x:.12g},{th:.12g},{xh:.12g},{thh:.12g},"
                f"{record.rate[k]:.12g},{record.mse_h[k]:.12g}\n"
            )


def _cmd_dynamic(args, settings: dict) -> int:
    if args.trajectory == "sinusoidal":
        traj = Trajectory.sinusoidal
    else:
        traj = partial(Trajectory.fixed_velocity, omega=args.omega)
    cfg = _run_config(args, settings, traj, out_prefix="dynamic")
    summaries = run_experiment(cfg)
    out = Path(args.out)
    outputs = [f"dynamic_{name}.csv" for name in cfg.algorithms]
    for name, s in summaries.items():
        trace_name = f"dynamic_trace_{name}.csv"
        _trace_csv(out / trace_name, s.trace)
        outputs.append(trace_name)
    outputs.append(
        _write_gnuplot(
            out,
            "dynamic_rate.gp",
            [
                'set xlabel "slot n"',
                'set ylabel "mean rate (bits/s/Hz)"',
                "set datafile separator ','",
                "plot "
                + ", ".join(
                    f"'dynamic_{name}.csv' using 1:4 with lines title '{name}'"
                    for name in cfg.algorithms
                ),
            ],
        )
    )
    outputs.append(
        _write_gnuplot(
            out,
            "dynamic_tracking.gp",
            [
                'set xlabel "slot n"',
                'set ylabel "angle (rad)"',
                "set datafile separator ','",
                f"plot 'dynamic_trace_{cfg.algorithms[0]}.csv' using 1:3 with lines title 'true'"
                + "".join(
                    f", 'dynamic_trace_{name}.csv' using 1:5 with lines title '{name}'"
                    for name in cfg.algorithms
                    if name != "ls"
                ),
            ],
        )
    )
    _write_manifest(out, "dynamic", _config_dict(cfg), outputs)
    for name, s in summaries.items():
        print(f"{name}: steady mean rate = {s.steady_mean_rate:.4f} bits/s/Hz")
    return 0


def _cmd_sweep_speed(args, settings: dict) -> int:
    grid = args.omega_grid
    # recursive runs at each tracking-subarray size; estimate-based baselines
    # need (or are only meaningful with) the full array
    subset = settings.pop("track_antennas", None)

    def config(omega: float, **kw) -> RunConfig:
        traj = partial(Trajectory.fixed_velocity, omega=omega)
        return _run_config(args, settings, traj, out_dir=None, out_prefix="sweep", **kw)

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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    outputs = []
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
        name = f"sweep_{label}.csv"
        with open(out / name, "w") as fh:
            fh.write("omega,mean_mse_h,mean_rate,conv_frac\n")
            for row in rows:
                fh.write(",".join(f"{v:.12g}" for v in row) + "\n")
        outputs.append(name)
        print(f"{label}: rate at omega={grid[0]:.4g} -> {rows[0][2]:.4f}, "
              f"at omega={grid[-1]:.4g} -> {rows[-1][2]:.4f}")
    for metric, col, ylabel in (("rate", 3, "mean rate"), ("mse", 2, "mean MSE_h")):
        outputs.append(
            _write_gnuplot(
                out,
                f"sweep_{metric}.gp",
                [
                    "set logscale x",
                    'set xlabel "angular velocity (rad/slot)"',
                    f'set ylabel "{ylabel}"',
                    "set datafile separator ','",
                    "plot "
                    + ", ".join(
                        f"'sweep_{label}.csv' using 1:{col} with linespoints title '{label}'"
                        for label, _ in series
                    ),
                ],
            )
        )
    cfg_echo = _config_dict(base_cfg)
    cfg_echo["omega_grid"] = list(map(float, grid))
    _write_manifest(out, "sweep-speed", cfg_echo, outputs)
    return 0


def _cmd_crlb(args, settings: dict) -> int:
    cfg = _run_config(args, settings)
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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ns = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000]
    name = "crlb.csv"
    with open(out / name, "w") as fh:
        fh.write("n,crlb_x,crlb_h\n")
        for n in ns:
            fh.write(f"{n},{crlb_min(geom, rho, n):.12g},{limit / n:.12g}\n")
    cfg_echo = {
        "num_antennas": geom.num_antennas,
        "spacing_over_wavelength": geom.spacing_over_wavelength,
        "snr_db": snr_db,
        "i_max": imax,
        "alpha_star": astar,
        "channel_mse_limit": limit,
    }
    _write_manifest(out, "crlb", cfg_echo, [name])
    return 0


def _cmd_stable_points(args, settings: dict) -> int:
    geom = _run_config(args, settings).geometry
    x = args.x
    if not -1.0 <= x <= 1.0:
        raise SystemExit(f"beamtrack: --x must lie in [-1, 1], got {x}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    vs = np.linspace(-1.0, 1.0, args.samples)
    m = geom.num_antennas
    inner = np.conj(steering_matrix(geom, vs)) @ steering_vector(geom, x)
    fs = -np.imag(inner) / math.sqrt(m)
    gains = np.abs(inner) / math.sqrt(m)
    curve = "stable_points_curve.csv"
    with open(out / curve, "w") as fh:
        fh.write("v,f,gain\n")
        for v, f, g in zip(vs, fs, gains):
            fh.write(f"{v:.12g},{f:.12g},{g:.12g}\n")
    pts = stable_points(geom, x)
    eps = 1e-6
    points = "stable_points.csv"
    with open(out / points, "w") as fh:
        fh.write("v,f,slope\n")
        for v in pts:
            slope = (
                surrogate_f(geom, min(v + eps, 1.0), x)
                - surrogate_f(geom, max(v - eps, -1.0), x)
            ) / (min(v + eps, 1.0) - max(v - eps, -1.0))
            fh.write(f"{v:.12g},{surrogate_f(geom, v, x):.12g},{slope:.12g}\n")
    gp = _write_gnuplot(
        out,
        "stable_points.gp",
        [
            'set xlabel "probe direction v"',
            "set datafile separator ','",
            "plot 'stable_points_curve.csv' using 1:2 with lines title 'drift f(v,x)', "
            "'stable_points_curve.csv' using 1:3 with lines title 'gain', "
            "'stable_points.csv' using 1:2 with points pt 7 title 'stable points'",
        ],
    )
    print(f"stable points for x={x}, M={m}: " + ", ".join(f"{v:.6g}" for v in pts))
    print(f"spacing: {1.0 / ((m - 1) * geom.spacing_over_wavelength):.6g}")
    _write_manifest(
        out,
        "analyze-stable-points",
        {"num_antennas": m, "x": x, "samples": args.samples},
        [curve, points, gp],
    )
    return 0


def _cmd_init_quality(args, settings: dict) -> int:
    cfg = _run_config(args, settings)
    geom, m, trials, seed = cfg.geometry, cfg.num_antennas, cfg.trials, cfg.seed
    snrs, factors = args.snr_grid, args.m0_factors
    if not all(map(math.isfinite, snrs)):
        raise SystemExit(f"beamtrack: --snr-grid values must be finite, got {snrs}")
    if min(factors) < 1:
        raise SystemExit(f"beamtrack: --m0-factors must be at least 1, got {factors}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    name = "init_quality.csv"
    with open(out / name, "w") as fh:
        fh.write("snr_db,m0,trials,hit_rate\n")
        for snr_db in snrs:
            for factor in factors:
                m0 = factor * m
                rate = initialization_hit_rate(geom, snr_db, m0, trials, seed)
                fh.write(f"{snr_db:.12g},{m0},{trials},{rate:.12g}\n")
                print(f"snr {snr_db:5.1f} dB, M0={m0:4d}: hit rate {rate:.4f}")
    gp = _write_gnuplot(
        out,
        "init_quality.gp",
        [
            'set xlabel "SNR (dB)"',
            'set ylabel "mainlobe hit rate"',
            "set datafile separator ','",
            "plot 'init_quality.csv' using 1:4 with points title 'hit rate'",
        ],
    )
    _write_manifest(
        out,
        "init-quality",
        {"num_antennas": m, "trials": trials, "seed": seed,
         "snr_grid": snrs, "m0_factors": factors},
        [name, gp],
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
