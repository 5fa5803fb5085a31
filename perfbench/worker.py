"""One workload run in its own process; prints one JSON line for run.py.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Runs units of the workload as a closed loop with one caller until `--seconds`
have passed and every distinct input has run at least once, then a few more
so that some inputs repeat. A program too slow to cover its inputs within
`--seconds` + INPUT_FLOOR_CAP_S is cut there; the run is then reported as
incomplete, with the units it did run. With `--trace 1` it then runs the
first TRACED_UNITS inputs again under the tracer, checks the traced call
counts against the workload's arithmetic, and times the isolated
microbenchmarks.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Units run again under the tracer; fixed, so per-layer totals compare.
TRACED_UNITS = 3
# Repeats beyond one pass over the distinct inputs, for the digest check.
REPEATS_MIN = 4
# Seconds past --seconds that the loop may run to cover every distinct input.
INPUT_FLOOR_CAP_S = 60.0
MICRO_REPEAT = 7
MICRO_TARGET_S = 0.02


def _import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import rollingdisk

    if Path(rollingdisk.__file__).resolve().parent != (src / "rollingdisk").resolve():
        raise SystemExit(f"rollingdisk imported from {rollingdisk.__file__}, not {src}")


def run_unit(workload, inp, workdir, digests, tracer=None):
    from workloads import UnitResult

    start = time.perf_counter()
    try:
        if tracer is not None:
            tracer.active = True
        output = workload.run(inp, workdir)
    except Exception as err:  # a unit that raises is a failed unit, not a crashed run
        return UnitResult(workload.items, time.perf_counter() - start, False, repr(err))
    finally:
        if tracer is not None:
            tracer.active = False
    result = UnitResult(workload.items, time.perf_counter() - start)
    key = repr(inp)
    first = key not in digests
    try:
        workload.check(inp, output, result, first)
    except Exception as err:
        result.ok, result.reason = False, f"check raised {err!r}"
    if first:
        digests[key] = result.digest
    elif digests[key] != result.digest and result.ok:
        result.ok, result.reason = False, "output differs from an earlier unit with the same input"
    return result


def microbenchmarks() -> dict:
    """Median ns per call of the baseline cases on fixed inputs, untraced."""
    from rollingdisk import assembly, dynamics, energetics, simulator
    from rollingdisk.constraints import consistent_velocity
    from rollingdisk.dynamics import State

    p = energetics.Params()
    x = State(2.0, 0.0, 0.3, 0.1, 0.2, 2.5, 0.1, 0.3)
    q, rates = x.coords(), x.rates()
    v = consistent_velocity(q, rates, p)
    env = {"q": q, "rates": rates, "v": v, "x": x, "p": p}
    cases = {
        "dynamics.closed_form_accels": (dynamics.closed_form_accels, "f(q, rates, p)"),
        "dynamics.state_derivative": (dynamics.state_derivative, "f(x, p)"),
        "simulator.step_rk4": (simulator.step_rk4, "f(x, 1e-3, p)"),
        "energetics.kinetic_energy": (energetics.kinetic_energy, "f(q, v, p)"),
        "energetics.lagrangian": (energetics.lagrangian, "f(q, v, p)"),
        "assembly.solve_system": (assembly.solve_system, "f(q, v, p)"),
        "assembly.solve_oracle_system": (assembly.solve_oracle_system, "f(q, v, p)"),
    }
    out = {}
    for name, (func, stmt) in cases.items():
        timer = timeit.Timer(stmt, globals={**env, "f": func})
        once = min(timer.repeat(repeat=3, number=1))
        number = max(1, int(MICRO_TARGET_S / max(once, 1e-9)))
        per_call = [t / number for t in timer.repeat(repeat=MICRO_REPEAT, number=number)]
        out[name] = statistics.median(per_call) * 1e9
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_package()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    try:
        digests = {}
        results = []
        start = time.perf_counter()
        deadline = start + args.seconds
        cap = deadline + INPUT_FLOOR_CAP_S
        min_units = len(inputs) + REPEATS_MIN
        while time.perf_counter() < cap and (
                time.perf_counter() < deadline or len(results) < min_units):
            inp = inputs[len(results) % len(inputs)]
            results.append(run_unit(workload, inp, workdir, digests))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        complete = len(results) >= min_units
        failures = sorted({r.reason for r in results if not r.ok})
        if not complete:
            failures.append(f"cut at {time.perf_counter() - start:.0f} s after {len(results)} units, "
                            f"before every one of {len(inputs)} inputs ran and {REPEATS_MIN} repeated")
        report = {
            "complete": complete,
            "attempted": len(results),
            "failed": sum(not r.ok for r in results),
            "failures": failures,
            # 10th percentile, not median: see "items_per_s" in README.md. A
            # failed unit delivered nothing, so it counts as zero throughput.
            "items_per_s": statistics.quantiles(
                (r.items / r.wall_s if r.ok else 0.0 for r in results), n=10)[0],
            "peak_rss_mb": peak_rss_mb,
            "accuracy": {},
        }
        # Mean, not median, over the distinct inputs: per-input figures at
        # rounding level take a few discrete values, and a median jumps
        # between them from seed to seed.
        first = [r.accuracy for r in results if r.accuracy is not None]
        if first:
            for key in first[0]:
                report["accuracy"][key] = statistics.fmean(a[key] for a in first)

        if args.trace:
            report["trace"] = traced_run(workload, inputs, results, workdir, digests, args)
            report["micro_ns"] = microbenchmarks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


def traced_run(workload, inputs, results, workdir, digests, args) -> dict:
    from tracer import Tracer, traced_functions

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = Tracer(traced_functions(m["name"] for m in spec["per_layer"]))
    tracer.install()
    traced = []
    try:
        for i in range(TRACED_UNITS):
            traced.append(run_unit(workload, inputs[i], workdir, digests, tracer))
    finally:
        tracer.uninstall()
    untraced_s = sum(
        statistics.median(r.wall_s for j, r in enumerate(results) if j % len(inputs) == i)
        for i in range(TRACED_UNITS)
    )
    traced_s = sum(r.wall_s for r in traced)
    expected = workload.expected_calls(TRACED_UNITS)
    mismatches = {
        name: (tracer.calls[name], expected.get(name, 0))
        for name in tracer.targets
        if tracer.calls[name] != expected.get(name, 0)
    }
    spans_path = ROOT / ".perfbench_out" / f"spans-{workload.name}-{args.seed}.csv.gz"
    tracer.write_spans(spans_path)
    return {
        "calls": tracer.calls,
        "self_s": tracer.self_s,
        "count_mismatches": mismatches,
        "units": len(traced),
        "failed": sum(not r.ok for r in traced),
        "failures": sorted({r.reason for r in traced if not r.ok}),
        "overhead_ratio": (traced_s - untraced_s) / untraced_s,
        "spans": tracer.span_count(),
        "csv_bytes": sum(r.csv_bytes for r in traced),
        "csv_rows": sum(r.csv_rows for r in traced),
    }


if __name__ == "__main__":
    sys.exit(main())
