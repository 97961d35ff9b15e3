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
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .arraymodel import (
    ArrayGeometry,
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

_DEF_TRIALS = {"static": 10000, "dynamic": 1000, "sweep-speed": 200}
_DEF_SLOTS = {"static": 1000, "dynamic": 1000, "sweep-speed": 2000}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="JSON config mirroring RunConfig")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    p.add_argument("--trials", type=int)
    p.add_argument("--slots", type=int)
    p.add_argument("--snr-db", type=float)
    p.add_argument("--antennas", type=int)
    p.add_argument("--track-antennas", type=int)
    p.add_argument("--jobs", type=int, help="worker processes (default: all cores)")
    p.add_argument("--algorithms", help="comma list from: " + ",".join(ALGORITHMS))


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="beamtrack",
        description="Analog beam tracking benchmark for linear phased arrays",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("static", help="fixed-direction convergence benchmark")
    _add_common(sp)

    dp = sub.add_parser("dynamic", help="moving-direction tracking benchmark")
    _add_common(dp)
    dp.add_argument(
        "--trajectory",
        choices=("sinusoidal", "fixed-velocity"),
        default="sinusoidal",
    )
    dp.add_argument("--omega", type=float, default=0.01, help="rad/slot")

    wp = sub.add_parser("sweep-speed", help="rate/MSE versus angular velocity")
    _add_common(wp)
    wp.add_argument("--omega-grid", help="comma list of rad/slot values")
    wp.add_argument(
        "--grid-points", type=int, default=20, help="log-spaced grid size"
    )
    wp.add_argument("--omega-min", type=float, default=1e-3)
    wp.add_argument("--omega-max", type=float, default=0.3)

    cp = sub.add_parser("crlb", help="print bound tables for a configuration")
    _add_common(cp)

    ap = sub.add_parser("analyze-stable-points", help="drift-function analysis")
    _add_common(ap)
    ap.add_argument("--x", type=float, default=0.5, help="true direction sine")
    ap.add_argument("--samples", type=int, default=2001)

    ip = sub.add_parser("init-quality", help="coarse-sweep hit probability")
    _add_common(ip)
    ip.add_argument("--snr-grid", default="0,5,10", help="comma list of dB values")
    ip.add_argument("--m0-factors", default="1,2,4", help="dictionary size / antennas")
    return p


_FILE_KEYS = {f.name for f in fields(RunConfig)} | {"slots"}


def _load_file_config(path: Path | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        file_cfg = json.load(fh)
    unknown = ", ".join(sorted(set(file_cfg) - _FILE_KEYS))
    if unknown:
        raise SystemExit(f"beamtrack: unknown key(s) in config file {path}: {unknown}")
    return file_cfg


def _config_dict(cfg: RunConfig) -> dict:
    d = asdict(cfg)
    d["beta"] = [cfg.beta.real, cfg.beta.imag]
    return d


def _build_config(
    args, file_cfg: dict, trajectory: Trajectory, out_prefix: str
) -> RunConfig:
    kw = {f.name: file_cfg[f.name] for f in fields(RunConfig) if f.name in file_cfg}
    # the subcommand and --out decide these, whatever the file says
    kw.update(trajectory=trajectory, out_dir=str(args.out), out_prefix=out_prefix)
    if "beta" in kw:
        re_im = kw["beta"]
        kw["beta"] = complex(re_im[0], re_im[1])
    if "algorithms" in kw:
        kw["algorithms"] = tuple(kw["algorithms"])
    # command-line overrides win over the config file
    if args.seed is not None:
        kw["seed"] = args.seed
    if args.trials is not None:
        kw["trials"] = args.trials
    if getattr(args, "snr_db", None) is not None:
        kw["snr_db"] = args.snr_db
    if args.antennas is not None:
        kw["num_antennas"] = args.antennas
    if args.track_antennas is not None:
        kw["track_antennas"] = args.track_antennas
    if args.jobs is not None:
        kw["jobs"] = args.jobs
    elif "jobs" not in kw:
        kw["jobs"] = os.cpu_count() or 1
    if args.algorithms:
        kw["algorithms"] = tuple(args.algorithms.split(","))
    return RunConfig(**kw)


def _slots(args, command: str, file_cfg: dict) -> int:
    if args.slots is not None:
        return args.slots
    if "slots" in file_cfg:
        return file_cfg["slots"]
    return _DEF_SLOTS[command]


def _trials_default(args, command: str) -> None:
    if args.trials is None and args.config is None:
        args.trials = _DEF_TRIALS[command]


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


def _cmd_static(args) -> int:
    file_cfg = _load_file_config(args.config)
    _trials_default(args, "static")
    traj = Trajectory.static(_slots(args, "static", file_cfg))
    cfg = _build_config(args, file_cfg, traj, out_prefix="static")
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


def _cmd_dynamic(args) -> int:
    file_cfg = _load_file_config(args.config)
    _trials_default(args, "dynamic")
    slots = _slots(args, "dynamic", file_cfg)
    if args.trajectory == "sinusoidal":
        traj = Trajectory.sinusoidal(slots)
    else:
        traj = Trajectory.fixed_velocity(slots, omega=args.omega)
    cfg = _build_config(args, file_cfg, traj, out_prefix="dynamic")
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


def _cmd_sweep_speed(args) -> int:
    file_cfg = _load_file_config(args.config)
    _trials_default(args, "sweep-speed")
    slots = _slots(args, "sweep-speed", file_cfg)
    if args.omega_grid:
        grid = [float(v) for v in args.omega_grid.split(",")]
    else:
        grid = list(
            np.geomspace(args.omega_min, args.omega_max, args.grid_points)
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    # recursive runs at each tracking-subarray size; estimate-based baselines
    # need (or are only meaningful with) the full array
    traj0 = Trajectory.fixed_velocity(slots, omega=grid[0])
    base_cfg = replace(_build_config(args, file_cfg, traj0, "sweep"), out_dir=None)
    if args.track_antennas is not None:
        subsets = [args.track_antennas]
    else:
        subsets = [m for m in (16, 8, 4) if m <= base_cfg.num_antennas]
    rec = replace(base_cfg, algorithms=("recursive",))
    series = [(f"recursive_m{mt}", replace(rec, track_antennas=mt)) for mt in subsets]
    series += [
        (name, replace(base_cfg, algorithms=(name,), track_antennas=None))
        for name in base_cfg.algorithms
        if name != "recursive"
    ]

    outputs = []
    for label, cfg in series:
        rows = []
        for omega in grid:
            traj = Trajectory.fixed_velocity(slots, omega=omega)
            summary = run_experiment(replace(cfg, trajectory=traj))[cfg.algorithms[0]]
            rows.append(
                (
                    omega,
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


def _cmd_crlb(args) -> int:
    file_cfg = _load_file_config(args.config)
    geom = ArrayGeometry(
        args.antennas or file_cfg.get("num_antennas", 16),
        file_cfg.get("spacing_over_wavelength", 0.5),
    )
    snr_db = args.snr_db if args.snr_db is not None else file_cfg.get("snr_db", 10.0)
    rho = 10.0 ** (snr_db / 10.0)
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


def _cmd_stable_points(args) -> int:
    file_cfg = _load_file_config(args.config)
    geom = ArrayGeometry(
        args.antennas or file_cfg.get("num_antennas", 8),
        file_cfg.get("spacing_over_wavelength", 0.5),
    )
    x = args.x
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


def _cmd_init_quality(args) -> int:
    file_cfg = _load_file_config(args.config)
    m = args.antennas or file_cfg.get("num_antennas", 16)
    geom = ArrayGeometry(m, file_cfg.get("spacing_over_wavelength", 0.5))
    trials = args.trials or file_cfg.get("trials", 10000)
    seed = args.seed if args.seed is not None else file_cfg.get("seed", 0)
    snrs = [float(v) for v in args.snr_grid.split(",")]
    factors = [int(v) for v in args.m0_factors.split(",")]
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
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
