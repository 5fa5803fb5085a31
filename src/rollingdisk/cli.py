"""Command-line front end: simulate scenarios to CSV, validate the closed forms.

Exit codes: 0 success; 1 a usage or config error, an output file simulate
cannot write (after the run; "cannot write <path>: <reason>" on stderr, no
traceback), a stdout that cannot be written ("cannot write stdout:
<reason>"), or validate without numpy; 2 a run stopped at a singular
configuration, the disk at or through flat; 3 validate over
validation.THRESHOLD (an error that is not finite reads inf) or at
parameters where the model cannot be evaluated (one line on stderr, no
traceback); 4 a run stopped at a non-finite state. A run that stops early
still writes its partial CSV.

The CSV is deterministic byte for byte for a given configuration: fixed
columns, every float at 17 significant digits, no locale. --emit-plot
writes a gnuplot script, never an image, at the --out path with the suffix
.gp, so an --out that ends in .gp is a usage error there. validate sweeps
the unit disk of --g and --r (see validation), so it has no --m.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from . import validation
from .energetics import Params
from .kinematics import euler_rotation
from .simulator import (
    CONFIG_KEYS,
    NON_FINITE,
    PRESET_NAMES,
    PRESETS,
    SINGULAR,
    ScenarioConfig,
    Trajectory,
    diagnostics_summary,
    integrate,
)

CSV_COLUMNS = (
    "t",
    "c1",
    "c2",
    "c3",
    "phi",
    "theta",
    "psi",
    "dphi",
    "dtheta",
    "dpsi",
    "energy",
    "residual",
)

# Keep every step internally, write every k-th row.
EMIT_EVERY = 10

# Exit code of a simulate run that stopped early, by Trajectory.failure_reason.
ABORT_EXIT_CODES = {SINGULAR: 2, NON_FINITE: 4}


class UsageError(Exception):
    """Bad invocation or malformed configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern takes "-1e-05" for an option; no option here looks numeric.
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """Validated description of one CLI invocation: simulate sets scenario,
    out and emit_plot, validate sets samples, seed and params."""

    mode: str
    scenario: ScenarioConfig | None = None
    out: str | None = None
    emit_plot: bool = False
    samples: int | None = None
    seed: int | None = None
    params: Params | None = None


@functools.cache
def _build_parser() -> _Parser:
    # Built once: parse_args keeps its results in a fresh namespace, not the parser.
    parser = _Parser(prog="rollingdisk", description="Rolling-disk dynamics simulator")
    sub = parser.add_subparsers(dest="mode", metavar="{simulate,validate}")

    sim = sub.add_parser("simulate", help="integrate a scenario and write a CSV")
    sim.add_argument("--scenario", choices=PRESET_NAMES, help="named preset")
    sim.add_argument("--config", metavar="FILE", help="JSON run description")
    sim.add_argument("--out", metavar="FILE", help="CSV path (default <scenario>.csv)")
    sim.add_argument("--dt", type=float, help="override step size [s]")
    sim.add_argument("--t-end", dest="t_end", type=float, help="override horizon [s]")
    sim.add_argument(
        "--emit-plot",
        action="store_true",
        help="also write a gnuplot script for the top-view path",
    )
    sim.add_argument("--m", type=float, help="override mass [kg]")
    sim.add_argument("--g", type=float, help="override gravity [m/s^2]")
    sim.add_argument("--r", type=float, help="override radius [m]")
    sim.add_argument(
        "--x0",
        type=float,
        nargs=8,
        metavar=("C1", "C2", "PHI", "THETA", "PSI", "DPHI", "DTHETA", "DPSI"),
        help="override the initial state",
    )

    val = sub.add_parser("validate", help="cross-check closed forms on random states")
    val.add_argument("--samples", type=int, default=1000, help="number of random states")
    val.add_argument("--seed", type=int, default=42, help="generator seed")
    val.add_argument("--g", type=float, help="override gravity [m/s^2]")
    val.add_argument("--r", type=float, help="override radius [m]")
    return parser


def _load_config_file(path: str) -> dict:
    """The file's JSON object, unchecked: ScenarioConfig.from_values checks it once the flags merge in."""
    import json  # imported on first use, as numpy is
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as err:
        raise UsageError(f"cannot read config file {path}: {err}") from err
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise UsageError(f"config file {path} is not valid JSON: {err}") from err
    except RecursionError as err:
        raise UsageError(f"config file {path} nests too deeply to read") from err
    if not isinstance(raw, dict):
        raise UsageError(f"config file {path} must hold a single object")
    return raw


def _given(ns, names) -> dict:
    """The options among names that the command line set, by name."""
    return {k: v for k in names if (v := getattr(ns, k)) is not None}


def parse_args(argv) -> RunConfig:
    """Turn argv into a validated RunConfig or raise UsageError."""
    ns = _build_parser().parse_args(argv)
    if ns.mode is None:
        raise UsageError("a subcommand is required: simulate or validate")

    if ns.mode == "validate":
        if ns.samples < 1:
            raise UsageError("--samples must be at least 1")
        if ns.seed < 0:
            raise UsageError("--seed must be non-negative")
        try:
            params = Params(**_given(ns, ("g", "r")))
        except ValueError as err:
            raise UsageError(str(err)) from err
        return RunConfig(mode="validate", samples=ns.samples, seed=ns.seed, params=params)

    if (ns.scenario is None) == (ns.config is None):
        raise UsageError("simulate needs exactly one of --scenario or --config")
    if ns.scenario:
        name, values = ns.scenario, dict(PRESETS[ns.scenario])
    else:
        name, values = Path(ns.config).stem, _load_config_file(ns.config)

    # The flags replace the source's values first: only the merged run is checked.
    values |= _given(ns, CONFIG_KEYS)
    try:
        scenario = ScenarioConfig.from_values(name, values)
    except (OverflowError, ValueError) as err:  # OverflowError: an int too large for a float
        raise UsageError(f"config file {ns.config}: {err}" if ns.config else str(err)) from err

    out = ns.out if ns.out is not None else f"{scenario.name}.csv"
    if ns.emit_plot and Path(out).suffix == ".gp":
        raise UsageError(f"--emit-plot would overwrite the CSV {out} with its script; "
                         "--out must not end in .gp")
    return RunConfig(mode="simulate", scenario=scenario, out=out, emit_plot=ns.emit_plot)


def _emitted_indices(n: int):
    idx = list(range(0, n, EMIT_EVERY))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    return idx


def write_csv(path: str, traj: Trajectory) -> int:
    """Write the thinned trajectory; returns the number of data rows."""
    r = traj.config.params.r
    row = ",".join(["%.17g"] * len(CSV_COLUMNS))  # "%.17g" % v is format(v, ".17g")
    lines = [",".join(CSV_COLUMNS)]
    indices = _emitted_indices(len(traj.samples))
    for i in indices:
        t, (c1, c2, phi, theta, psi, dphi, dtheta, dpsi), energy, residual = traj.samples[i]
        lines.append(row % (t, c1, c2, r * math.cos(theta), phi, theta, psi, dphi, dtheta, dpsi,
                            energy, residual))
    Path(path).write_text("\n".join(lines) + "\n")
    return len(indices)


# Points on the rim outline of the plot script; the polyline closes with one more.
OUTLINE_POINTS = 64


def _disk_outline(x0, p: Params):
    """Top-view projection of the rim at the initial state."""
    rot = euler_rotation(x0[2:5])
    points = []
    for k in range(OUTLINE_POINTS + 1):
        u = 2.0 * math.pi * k / OUTLINE_POINTS
        rim_body = (0.0, p.r * math.cos(u), p.r * math.sin(u))
        wx = x0.c1 + rot[0][1] * rim_body[1] + rot[0][2] * rim_body[2]
        wy = x0.c2 + rot[1][1] * rim_body[1] + rot[1][2] * rim_body[2]
        points.append((wx, wy))
    return points

def write_plot_script(path: str, csv_name: str, traj: Trajectory) -> None:
    """Write a gnuplot script: center path from the CSV, rim outline inline."""
    outline = _disk_outline(traj.samples[0].state, traj.config.params)
    outline_block = "\n".join(f"{x:.6f},{y:.6f}" for x, y in outline)
    quoted_csv = csv_name.replace("'", "''")  # gnuplot's single-quoted strings double a quote
    script = (
        "# Top view of the rolling-disk center path with the disk outline at t=0.\n"
        f"# Render with: gnuplot -persist {Path(path).name}\n"
        "set datafile separator ','\n"
        "set size ratio -1\n"
        "set xlabel 'c1 [m]'\n"
        "set ylabel 'c2 [m]'\n"
        "set grid\n"
        "$outline << EOD\n"
        f"{outline_block}\n"
        "EOD\n"
        f"plot '{quoted_csv}' using 2:3 with lines lw 2 lc rgb '#c0392b' title 'center path', \\\n"
        "     $outline using 1:2 with lines lw 2 lc rgb '#2980b9' title 'disk at t=0'\n"
    )
    Path(path).write_text(script)


def run_simulate(cfg: RunConfig) -> int:
    """Integrate, write artifacts, report; exit 2 or 4 on an early stop, 1
    when an artifact cannot be written.

    Raises UsageError, naming x0, m, g and r, after the run and without
    writing, when the initial energy or contact residual is not finite.
    """
    traj = integrate(cfg.scenario)
    first, p = traj.samples[0], cfg.scenario.params
    if not (math.isfinite(first.energy) and math.isfinite(first.residual)):
        raise UsageError(
            f"x0 gives initial energy {first.energy:g} and contact residual "
            f"{first.residual:g} for m={p.m:g}, g={p.g:g}, r={p.r:g}; both must be finite"
        )
    path = cfg.out
    try:
        wrote = f"wrote {path} ({write_csv(path, traj)} rows)"
        if cfg.emit_plot:
            path = str(Path(cfg.out).with_suffix(".gp"))
            write_plot_script(path, Path(cfg.out).name, traj)
            wrote += f" and {path}"
    except OSError as err:
        print(f"cannot write {path}: {err.strerror or err}", file=sys.stderr)
        return 1
    summary = diagnostics_summary(traj)
    print(
        f"scenario {traj.config.name}: {len(traj.samples)} samples to "
        f"t={traj.samples[-1].t:g} s, dt={traj.config.dt:g}, rk4"
    )
    print(
        f"  energy drift max {summary.max_energy_drift:.3e} "
        f"(mean {summary.mean_energy_drift:.3e}), "
        f"contact residual max {summary.max_residual:.3e}"
    )
    fs = traj.samples[-1].state
    print(
        f"  min |cos theta| {summary.min_abs_cos_theta:.6f}, "
        f"final (c1, c2) = ({fs.c1:.6f}, {fs.c2:.6f})"
    )
    print(wrote)
    if traj.failed:
        sys.stdout.flush()  # the report before the reason, and an unwritable stdout reported alone
        print(
            f"run aborted: {traj.failure_reason} at t={traj.samples[-1].t:g} s; "
            "partial trajectory written",
            file=sys.stderr,
        )
        return ABORT_EXIT_CODES[traj.failure_reason]
    return 0


def run_validate(cfg: RunConfig) -> int:
    """Random-state cross-check sweep; exit 3 when an error is over its
    threshold, or when the model cannot be evaluated at the parameters, and
    1 when numpy cannot be imported."""
    p = cfg.params
    try:
        worst = validation.validation_sweep(p, cfg.samples, cfg.seed)
    except (ArithmeticError, ValueError) as err:
        print(f"validate: cannot evaluate the model at g={p.g:g}, r={p.r:g}: "
              f"{type(err).__name__}: {err}", file=sys.stderr)
        return 3
    except ImportError as err:
        print(f"validate needs numpy, which cannot be imported: {err}", file=sys.stderr)
        return 1
    print(f"validate: {cfg.samples} samples, seed {cfg.seed}")
    failed = False
    for route, (err, (q, v)) in worst.items():
        print(f"  closed form vs {route}: max rel err {err:.3e} (threshold {validation.THRESHOLD:g})")
        if err >= validation.THRESHOLD:
            print(f"  FAIL vs {route} at q={q}, v={v}", file=sys.stderr)
            failed = True
    if failed:
        return 3
    print("  PASS")
    return 0


def main(argv=None) -> int:
    try:
        cfg = parse_args(argv if argv is not None else sys.argv[1:])
        code = run_simulate(cfg) if cfg.mode == "simulate" else run_validate(cfg)
        sys.stdout.flush()
        return code
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except OSError as err:  # a print or the flush: run_simulate reports its own files
        print(f"cannot write stdout: {err.strerror or err}", file=sys.stderr)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # what is left unwritten goes there, not to an error at exit
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
