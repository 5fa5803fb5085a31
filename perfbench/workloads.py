"""The benchmark workloads: seeded inputs, one timed unit, output checks.

Every workload draws a fixed list of distinct inputs from its seed and runs
them in order as a closed loop with one caller, cycling back to the start
once the list is used up, so later units repeat earlier inputs and must
reproduce their output digest exactly.

Each unit is checked after its timed call. The four accuracy figures are
measured on the trajectory that unit produced: energy drift and contact
residual over every sample from the program's own summary (`simulate`
prints it, `diagnostics_summary` returns it for `integrate_10dim`), and the
closed form against the 7x7 solve and the finite-difference oracle at
states spread along the trajectory.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import random
import re
import struct
from dataclasses import dataclass, replace
from pathlib import Path

from rollingdisk import cli, simulator, validation
from rollingdisk.constraints import consistent_velocity
from rollingdisk.dynamics import State

PRESET = simulator.scenario_preset("precession")
DT = PRESET.dt
# Energy drift allowed over a run: the bar of the precession acceptance test.
ENERGY_DRIFT_BAR = 1e-6
# Route checks made along each trajectory.
ROUTE_CHECK_STATES = 12

SIMULATE_T_END = 1.0
UNREDUCED_T_END = 0.25


@dataclass
class UnitResult:
    """Outcome of one checked unit."""

    items: int
    wall_s: float
    ok: bool = True
    reason: str = ""
    digest: str = ""
    accuracy: dict | None = None
    csv_bytes: int = 0
    csv_rows: int = 0


def precession_inputs(rng: random.Random, count: int):
    """Initial states in a small box around the precession preset, far from flat.

    Position, spin and heading range widely: the motion does not depend on
    them, so they vary the outputs without varying the accuracy. The stand
    angle and the rates, which set the motion and hence the size of the RK4
    energy error, stay close to the preset, so that the median accuracy over
    one run's inputs changes little from seed to seed.
    """
    c1, c2, _, theta, _, dphi, _, _ = PRESET.x0.as_tuple()
    return [
        (
            c1 + rng.uniform(-0.5, 0.5),
            c2 + rng.uniform(-0.5, 0.5),
            rng.uniform(-math.pi, math.pi),
            theta + rng.uniform(-0.01, 0.01),
            rng.uniform(-math.pi, math.pi),
            dphi + rng.uniform(-0.05, 0.05),
            rng.uniform(-0.02, 0.02),
            rng.uniform(-0.02, 0.02),
        )
        for _ in range(count)
    ]


def route_errors(states) -> tuple[float, float]:
    """Worst closed form vs 7x7 solve and vs oracle errors over rolling states."""
    p = PRESET.params
    worst_solve = worst_oracle = 0.0
    for x in states:
        q = x.coords()
        v = consistent_velocity(q, x.rates(), p)
        closed = validation.closed_form_seven(q, x.rates(), p)
        worst_solve = max(worst_solve, validation.max_rel_diff(closed, validation.solve_seven(q, v, p)))
        worst_oracle = max(worst_oracle, validation.max_rel_diff(closed, validation.oracle_seven(q, v, p)))
    return worst_solve, worst_oracle


def _spread(seq, count: int):
    step = max(1, (len(seq) - 1) // (count - 1))
    return [seq[i] for i in range(0, len(seq), step)][:count]


def _trajectory_accuracy(drift: float, residual: float, states) -> dict:
    err_solve, err_oracle = route_errors(_spread(states, ROUTE_CHECK_STATES))
    return {
        "energy_drift_max": drift,
        "residual_max": residual,
        "err_solve_max": err_solve,
        "err_oracle_max": err_oracle,
    }


def _check_drift(drift: float, result: UnitResult) -> None:
    if not drift <= ENERGY_DRIFT_BAR:
        result.ok, result.reason = False, f"energy drift {drift:.3e}"


def _csv_rows(n_samples: int) -> int:
    """Data rows the CLI writes for n samples: every EMIT_EVERY-th plus the last."""
    rows = len(range(0, n_samples, cli.EMIT_EVERY))
    return rows + (1 if (n_samples - 1) % cli.EMIT_EVERY else 0)


class Workload:
    """One workload: `inputs` from a seed, a timed `run`, and `check`."""

    name = ""
    distinct_inputs = 0
    items = 0

    def inputs(self, seed: int) -> list:
        raise NotImplementedError

    def run(self, inp, workdir: Path):
        raise NotImplementedError

    def check(self, inp, output, result: UnitResult, first: bool) -> None:
        raise NotImplementedError

    def expected_calls(self, units: int) -> dict:
        raise NotImplementedError

    def warm_up(self, workdir: Path) -> int:
        """One tiny call of the workload's entry point; returns an exit code."""
        raise NotImplementedError


class SimulatePrecession(Workload):
    """`rollingdisk simulate --scenario precession --x0 ... --out FILE`."""

    name = "simulate_precession"
    distinct_inputs = 128
    steps = round(SIMULATE_T_END / DT)
    items = steps

    def inputs(self, seed):
        return precession_inputs(random.Random(seed), self.distinct_inputs)

    _summary = re.compile(r"energy drift max (\S+) .*contact residual max (\S+)")

    def run(self, inp, workdir):
        out = workdir / "unit.csv"
        # Plain decimals: argparse takes "-1e-05" for an option, not a value.
        x0 = [format(v, ".15f") for v in inp]
        argv = ["simulate", "--scenario", "precession", "--x0", *x0,
                "--t-end", repr(SIMULATE_T_END), "--out", str(out)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, out, buf.getvalue()

    def check(self, inp, output, result, first):
        code, path, text = output
        if code != 0:
            result.ok, result.reason = False, f"exit code {code}"
            return
        data = path.read_bytes()
        result.digest = hashlib.sha256(data).hexdigest()
        result.csv_bytes = len(data)
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        result.csv_rows = len(rows)
        if len(rows) != _csv_rows(self.steps + 1):
            result.ok, result.reason = False, f"{len(rows)} CSV rows"
            return
        # Drift and residual over every sample, as the command reports them;
        # the CSV keeps only every EMIT_EVERY-th.
        summary = self._summary.search(text)
        if summary is None:
            result.ok, result.reason = False, "no energy drift in the simulate report"
            return
        drift, residual = (float(v) for v in summary.groups())
        if first:
            # Route checks need states; only the CSV carries them, at full precision.
            states = [State.from_iterable(float(r[k]) for k in
                      ("c1", "c2", "phi", "theta", "psi", "dphi", "dtheta", "dpsi"))
                      for r in rows]
            result.accuracy = _trajectory_accuracy(drift, residual, states)
        _check_drift(drift, result)

    def warm_up(self, workdir):
        argv = ["simulate", "--scenario", "precession", "--t-end", "0.01",
                "--out", str(workdir / "warm.csv")]
        return cli.main(argv)

    def expected_calls(self, units):
        s, n = self.steps * units, (self.steps + 1) * units
        return {
            "dynamics.state_derivative": 4 * s,
            "dynamics.closed_form_accels": 4 * s,
            "simulator.step_rk4": s,
            "simulator.integrate": units,
            "simulator.diagnostics_summary": units,
            "constraints.consistent_velocity": 5 * s + units,
            "constraints.constraint_residual": n,
            "energetics.kinetic_energy": n,
            "energetics.potential_energy": n,
            "kinematics.rotation_vector": n,
            "cli.parse_args": units,
            "cli.write_csv": units,
        }


class Unreduced10Dim(Workload):
    """`simulator.integrate_10dim` on the seeded precession inputs."""

    name = "unreduced_10dim"
    distinct_inputs = 128
    steps = round(UNREDUCED_T_END / DT)
    items = steps

    def inputs(self, seed):
        return precession_inputs(random.Random(seed), self.distinct_inputs)

    def run(self, inp, workdir):
        cfg = replace(PRESET, x0=State.from_iterable(inp), t_end=UNREDUCED_T_END)
        return simulator.integrate_10dim(cfg)

    def check(self, inp, traj, result, first):
        packed = struct.pack(f"{9 * len(traj.samples)}d", *(
            v for s in traj.samples for v in (*s.state.as_tuple(), s.energy)))
        result.digest = hashlib.sha256(packed).hexdigest()
        if traj.failed or len(traj.samples) != self.steps + 1:
            result.ok, result.reason = False, f"{len(traj.samples)} samples, failed={traj.failed}"
            return
        summary = simulator.diagnostics_summary(traj)
        if first:
            result.accuracy = _trajectory_accuracy(
                summary.max_energy_drift, summary.max_residual, [s.state for s in traj.samples])
        _check_drift(summary.max_energy_drift, result)

    def warm_up(self, workdir):
        cfg = replace(PRESET, t_end=0.01)
        return 1 if simulator.integrate_10dim(cfg).failed else 0

    def expected_calls(self, units):
        s, n = self.steps * units, (self.steps + 1) * units
        return {
            "simulator.integrate_10dim": units,
            "assembly.solve_system": 4 * s,
            "assembly.assemble_system": 4 * s,
            "constraints.consistent_velocity": units,
            "constraints.constraint_residual": n,
            "energetics.kinetic_energy": n,
            "energetics.potential_energy": n,
            "kinematics.rotation_vector": n,
        }


WORKLOADS = {w.name: w for w in (SimulatePrecession(), Unreduced10Dim())}
