"""Command-line benchmark driver.

Subcommands map to the benchmark experiments (static convergence, dynamic
tracking, angular-speed sweep) and to the closed-form analytics (bound
tables, drift-function analysis, initialization quality).

One table, ``_COMMANDS``, says what each subcommand reads: its keys, which
are the ``RunConfig`` fields it uses plus its own inputs such as
``omega_grid``, and their defaults.  The parser gives a subcommand the flag
of each of its keys that has one (``_FLAGS``).  A setting comes from its
flag, else from the ``--config`` file, else from the table.  Every run
writes CSV files, a small gnuplot script per figure, and a ``run.json``
manifest, all through one ``_Output`` per run.  The manifest's ``config``
holds the resolved value of every key the run read, so passing it back as
``--config`` replays the run.  A key that the run's ``RunConfig`` ignores
(``RunConfig.ignored_fields``) is not echoed, and a value other than the
command's default for it is rejected.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .arraymodel import (
    alpha_star,
    array_kernel_polar,
    channel_mse_limit,
    crlb_min,
    i_max,
    stable_point_spacing,
    stable_points,
    surrogate_f,
)
from .harness import (
    ALGORITHMS,
    RunConfig,
    initialization_hit_rate,
    run_experiment,
)
from .scenarios import TRAJECTORIES

_CORES = os.cpu_count() or 1
_MOVING = tuple(kind for kind in TRAJECTORIES if kind != "static")  # those of `dynamic`


def _json(value):
    """A RunConfig default as a config file spells it."""
    return list(value) if isinstance(value, tuple) else value


_FIELDS = {f.name: _json(f.default) for f in fields(RunConfig)}
# static and sweep-speed set the trajectory themselves
_SIMULATION = [name for name in _FIELDS if name not in ("trajectory", "omega")]
_GEOMETRY = ["num_antennas"]


def _reads(names, **defaults) -> dict:
    """The keys ``names`` at their RunConfig defaults, then ``defaults``."""
    return {**{name: _FIELDS[name] for name in names}, **defaults}


def _words(text: str) -> list[str]:
    return text.split(",")


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


# the flag of every key that has one
_FLAGS = {
    "seed": ("--seed", dict(type=int, help="master seed")),
    "trials": ("--trials", dict(type=int)),
    "slots": ("--slots", dict(type=int)),
    "snr_db": ("--snr-db", dict(type=float)),
    "num_antennas": ("--antennas", dict(type=int, metavar="ANTENNAS")),
    "track_antennas": ("--track-antennas", dict(type=int)),
    "jobs": ("--jobs", dict(type=int, help="worker processes (default: all cores)")),
    "algorithms": ("--algorithms", dict(type=_words,
                                        help="comma list from: " + ",".join(ALGORITHMS))),
    "trajectory": ("--trajectory", dict(choices=_MOVING)),
    "omega": ("--omega", dict(type=float, help="rad/slot")),
    "omega_grid": ("--omega-grid", dict(
        type=_floats,
        help="comma list of rad/slot values (default: 20 log-spaced from 1e-3 to 0.3)",
    )),
    "x": ("--x", dict(type=float, help="true direction sine")),
    "samples": ("--samples", dict(type=int)),
    "snr_grid": ("--snr-grid", dict(type=_floats, help="comma list of dB values")),
    "m0_factors": ("--m0-factors", dict(type=_ints, help="dictionary size / antennas")),
}


def _real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _grid(item):
    return lambda value: isinstance(value, list) and bool(value) and all(map(item, value))


# what a key's value must be, flag and config file alike, where RunConfig
# does not check it: the commands' own keys, and the algorithms a simulation
# runs and the trajectories `dynamic` runs
_CHECKS = {
    "algorithms": (_grid(lambda name: isinstance(name, str)), "a non-empty list of names"),
    "trajectory": (lambda value: value in _MOVING, " or ".join(_MOVING)),
    "x": (lambda value: _real(value) and -1.0 <= value <= 1.0, "a real number in [-1, 1]"),
    "samples": (lambda value: _int(value) and value >= 2, "an integer of at least 2"),
    "omega_grid": (_grid(_real), "a non-empty list of numbers"),
    "snr_grid": (_grid(_real), "a non-empty list of numbers"),
    "m0_factors": (_grid(lambda value: _int(value) and value >= 1),
                   "a non-empty list of positive integers"),
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="beamtrack",
        description="Analog beam tracking benchmark for linear phased arrays",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        # a flag that is not given leaves no attribute behind
        sp = sub.add_parser(name, help=command.summary, argument_default=argparse.SUPPRESS)
        sp.add_argument("--config", type=Path, default=None,
                        help="JSON object of keys the command reads, as run.json echoes them")
        sp.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        for key in command.reads:
            if key in _FLAGS:
                flag, kwargs = _FLAGS[key]
                sp.add_argument(flag, dest=key, **kwargs)
    return p


def _load_file_config(path: Path | None, command: str) -> dict:
    if path is None:
        return {}
    try:
        file_cfg = json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # unreadable, or not JSON
        raise SystemExit(f"beamtrack: cannot read config file {path}: {exc}") from None
    if not isinstance(file_cfg, dict):
        raise SystemExit(f"beamtrack: config file {path} must hold a JSON object, "
                         f"got {type(file_cfg).__name__}")
    for keys, what in ((_KNOWN, "unknown key(s)"),
                       (_COMMANDS[command].reads, f"key(s) that {command} does not read")):
        extra = ", ".join(sorted(set(file_cfg) - set(keys)))
        if extra:
            raise SystemExit(f"beamtrack: {what} in config file {path}: {extra}")
    return file_cfg


def _settings(args) -> dict:
    """The resolved value of every key the subcommand reads: its flag if
    given, else the config file's value, else the table's default."""
    reads = _COMMANDS[args.command].reads
    flags = {key: value for key, value in vars(args).items() if key in reads}
    settings = {**reads, **_load_file_config(args.config, args.command), **flags}
    for key, (valid, what) in _CHECKS.items():
        if key in settings and not valid(settings[key]):
            raise SystemExit(f"beamtrack: {key} must be {what}, got {settings[key]!r}")
    return settings


def _run_config(settings: dict, **overrides) -> RunConfig:
    """The RunConfig of the fields in ``settings`` and ``overrides``; a
    command that reads no ``algorithms`` runs none.  A rejected setting ends
    the run with one ``beamtrack: <reason>`` line on stderr."""
    kw = {k: v for k, v in {**settings, **overrides}.items() if k in _FIELDS}
    try:
        kw["algorithms"] = tuple(kw.get("algorithms", ()))
        return RunConfig(**kw)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"beamtrack: {exc}") from None


def _read(command: str, settings: dict, ignored: dict) -> dict:
    """The settings that a run reads, as ``run.json`` echoes them.
    ``ignored`` maps the keys that the run does not read to the reason.  Such
    a key is left out; a value other than the command's default for it ends
    the run with one ``beamtrack: <key> ... <reason>`` line on stderr."""
    default = _COMMANDS[command].reads
    unread = {key: why for key, why in ignored.items() if key in settings}
    for key, why in unread.items():
        if settings[key] != default[key]:
            raise SystemExit(f"beamtrack: {key} {settings[key]!r} is not read: {why}")
    return {key: value for key, value in settings.items() if key not in unread}


CSV_HEADER = "slot,mean_mse_h,n_mse_times_imax,mean_rate,conv_frac,crlb_h_ref"


class _Output:
    """The files of one run in its ``--out`` directory: CSV tables, gnuplot
    scripts and summary CSVs, then ``run.json``, whose ``outputs`` lists every
    name written.  Create it only after the run's settings are checked and its
    results computed, so that a rejected run writes nothing.  Creating it
    removes the files an earlier run's ``run.json`` lists there: plain names
    only, so nothing outside the directory is touched."""

    def __init__(self, directory: Path, command: str):
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise SystemExit(f"beamtrack: cannot create --out {directory}: {exc}") from None
        try:
            earlier = json.loads((directory / "run.json").read_text())["outputs"]
        except (OSError, ValueError, TypeError, KeyError):
            earlier = []
        for name in earlier if isinstance(earlier, list) else []:
            plain = isinstance(name, str) and os.path.basename(name) == name
            if plain and (directory / name).is_file():  # not "", "." nor ".."
                (directory / name).unlink()
        self._dir = directory
        self._command = command
        self._names: list[str] = []

    def _path(self, name: str) -> Path:
        self._names.append(name)
        return self._dir / name

    def table(self, name: str, header: str, rows) -> None:
        """A CSV table: ints as written, every other value ``.12g``, each row
        formatted by one ``%`` template."""
        with open(self._path(name), "w") as fh:
            fh.write(header + "\n")
            for row in rows:
                cells = ["%d" if isinstance(v, int) else "%.12g" for v in row]
                fh.write(",".join(cells) % tuple(row) + "\n")

    def summary(self, name: str, summary) -> None:
        """A run's summary table, one row per slot; the slots are ints."""
        columns = (summary.slots, summary.mean_mse_h, summary.n_mse_times_imax,
                   summary.mean_rate, summary.conv_frac, summary.crlb_h_ref)
        self.table(name, CSV_HEADER, zip(*(c.tolist() for c in columns)))

    def plot(self, name: str, clauses, xlabel: str, ylabel=None, logscale=None) -> None:
        """A gnuplot script plotting ``clauses`` from the run's CSV files."""
        lines = [f"set logscale {logscale}"] if logscale else []
        lines.append(f'set xlabel "{xlabel}"')
        if ylabel:
            lines.append(f'set ylabel "{ylabel}"')
        lines += ["set datafile separator ','", "plot " + ", ".join(clauses)]
        self._path(name).write_text("\n".join(lines) + "\n")

    def manifest(self, config: dict, results: dict | None = None) -> None:
        """``run.json``: the run's resolved settings as ``config``, and any
        closed-form ``results`` it printed."""
        manifest = {
            "tool": "beamtrack",
            "version": __version__,
            "command": self._command,
            "seed": config.get("seed"),
            "config": config,
            "outputs": sorted(self._names),
        }
        if results is not None:
            manifest["results"] = results
        with open(self._dir / "run.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_static(args, settings: dict) -> int:
    cfg = _run_config(settings, trajectory="static")
    settings = _read(args.command, settings, cfg.ignored_fields())
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
        # every summary CSV of the run holds the same bound column
        + [f"'static_{cfg.algorithms[0]}.csv' using 1:($1*$6) with lines dt 2 title 'bound'"],
        "slot n",
        "n * MSE_h",
        logscale="xy",
    )
    out.manifest(settings)
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
    cfg = _run_config(settings)
    settings = _read(args.command, settings, cfg.ignored_fields())
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
    out.manifest(settings)
    return 0


def _cmd_sweep_speed(args, settings: dict) -> int:
    grid = settings["omega_grid"]

    def config(omega: float, **kw) -> RunConfig:
        return _run_config(settings, trajectory="fixed-velocity", omega=omega, **kw)

    # recursive runs at each tracking-subarray size; estimate-based baselines
    # need (or are only meaningful with) the full array
    full = config(grid[0], track_antennas=None)
    subset = settings["track_antennas"]
    if subset is not None:
        subsets = [subset]
    else:
        subsets = [m for m in (16, 8, 4) if m <= full.num_antennas] or [full.num_antennas]
    runs = [
        (f"recursive_m{mt}", {"algorithms": ("recursive",), "track_antennas": mt})
        for mt in (subsets if "recursive" in full.algorithms else [])
    ]
    runs += [
        (name, {"algorithms": (name,), "track_antennas": None})
        for name in full.algorithms
        if name != "recursive"
    ]
    series = [(label, [config(omega, **kw) for omega in grid]) for label, kw in runs]
    # the baselines run on the full array whatever track_antennas says
    ignored = full.ignored_fields()
    if "recursive" not in full.algorithms:
        ignored["track_antennas"] = "sweep-speed runs only recursive on a subarray"
    settings = _read(args.command, settings, ignored)

    tables = {}
    for label, cfgs in series:
        rows = []
        for cfg in cfgs:
            summary = run_experiment(cfg)[cfg.algorithms[0]]
            rows.append(
                (
                    cfg.omega,
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
    out.manifest(settings)
    return 0


def _cmd_crlb(args, settings: dict) -> int:
    cfg = _run_config(settings)
    geom, snr_db, rho = cfg.geometry, cfg.snr_db, cfg.rho
    imax = i_max(geom, rho)
    limit = channel_mse_limit(geom, 1.0 / rho)  # unit-gain pilots: noise power 1/rho
    astar = alpha_star(geom)
    print(f"antennas: {geom.num_antennas}, d/lambda: 0.5")
    print(f"snr: {snr_db} dB (linear {rho:.6g})")
    print(f"peak Fisher information: {imax:.10g}")
    print(f"optimal step coefficient: {astar:.10g}")
    print(f"channel-MSE limit (n * MSE_h): {limit:.10g}")
    ns = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000]
    out = _Output(args.out, "crlb")
    out.table("crlb.csv", "n,crlb_x,crlb_h", [(n, crlb_min(geom, rho, n), limit / n) for n in ns])
    out.manifest(
        settings, results={"i_max": imax, "alpha_star": astar, "channel_mse_limit": limit}
    )
    return 0


def _cmd_stable_points(args, settings: dict) -> int:
    geom = _run_config(settings).geometry
    x = settings["x"]
    vs = np.linspace(-1.0, 1.0, settings["samples"])
    m = geom.num_antennas
    gains = np.abs(array_kernel_polar(geom, vs - x)[0]) / math.sqrt(m)
    pts = stable_points(geom, x)
    eps = 1e-6
    lo, hi = np.maximum(pts - eps, -1.0), np.minimum(pts + eps, 1.0)
    slopes = (surrogate_f(geom, hi, x) - surrogate_f(geom, lo, x)) / (hi - lo)
    out = _Output(args.out, "analyze-stable-points")
    out.table("stable_points_curve.csv", "v,f,gain", zip(vs, surrogate_f(geom, vs, x), gains))
    out.table("stable_points.csv", "v,f,slope", zip(pts, surrogate_f(geom, pts, x), slopes))
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
    print(f"spacing: {stable_point_spacing(geom):.6g}")
    out.manifest(settings)
    return 0


def _cmd_init_quality(args, settings: dict) -> int:
    m = _run_config(settings).num_antennas
    # every grid point's config is checked before any of them runs
    cfgs = [
        _run_config(settings, snr_db=snr_db, sweep_dictionary_size=factor * m)
        for snr_db in settings["snr_grid"]
        for factor in settings["m0_factors"]
    ]
    rows = []
    for cfg in cfgs:
        rate, m0 = initialization_hit_rate(cfg), cfg.sweep_dictionary_size
        rows.append((cfg.snr_db, m0, cfg.trials, rate))
        print(f"snr {cfg.snr_db:5.1f} dB, M0={m0:4d}: hit rate {rate:.4f}")
    out = _Output(args.out, "init-quality")
    out.table("init_quality.csv", "snr_db,m0,trials,hit_rate", rows)
    out.plot(
        "init_quality.gp",
        ["'init_quality.csv' using 1:4 with points title 'hit rate'"],
        "SNR (dB)",
        "mainlobe hit rate",
    )
    out.manifest(settings)
    return 0


class _Command(NamedTuple):
    summary: str
    run: Callable[..., int]  # run(args, settings) -> exit status
    reads: dict  # every key the subcommand reads -> its default


_COMMANDS = {
    "static": _Command("fixed-direction convergence benchmark", _cmd_static,
                       _reads(_SIMULATION, trials=10000, slots=1000, jobs=_CORES)),
    "dynamic": _Command("moving-direction tracking benchmark", _cmd_dynamic,
                        _reads(_SIMULATION, trials=1000, slots=1000, jobs=_CORES,
                               trajectory="sinusoidal", omega=0.01)),
    "sweep-speed": _Command("rate/MSE versus angular velocity", _cmd_sweep_speed,
                            _reads(_SIMULATION, trials=200, slots=2000, jobs=_CORES,
                                   omega_grid=np.geomspace(1e-3, 0.3, 20).tolist())),
    "crlb": _Command("print bound tables for a configuration", _cmd_crlb,
                     _reads([*_GEOMETRY, "snr_db"])),
    "analyze-stable-points": _Command("drift-function analysis", _cmd_stable_points,
                                      _reads(_GEOMETRY, num_antennas=8, x=0.5, samples=2001)),
    "init-quality": _Command("coarse-sweep hit probability", _cmd_init_quality,
                             _reads([*_GEOMETRY, "trials", "seed"], trials=10000,
                                    snr_grid=[0.0, 5.0, 10.0], m0_factors=[1, 2, 4])),
}
_KNOWN = set().union(*(command.reads for command in _COMMANDS.values()))


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # an --out that is, or lies under, an existing non-directory ends the run
    # before it computes
    for path in (args.out, *args.out.parents):
        if path.exists() and not path.is_dir():
            raise SystemExit(f"beamtrack: --out {args.out}: {path} is not a directory")
    try:
        return _COMMANDS[args.command].run(args, _settings(args))
    except MemoryError as exc:  # an allocation the host cannot make
        raise SystemExit(f"beamtrack: out of memory: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
