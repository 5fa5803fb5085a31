"""rollingdisk benchmark: one command that measures a workload and checks it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/`, nothing needs installing. Workloads: simulate_precession and
unreduced_10dim (see perfbench/workloads.py and README.md).

With `--trace 0` it prints the end-to-end metrics: set-up time from fresh
processes, then the workload's throughput, memory and accuracy, measured by
perfbench/worker.py in one fresh process with tracing off. With `--trace 1`
it prints the per-layer metrics: call counts and self times from a traced
rerun, isolated ns-per-call microbenchmarks, per-module import times from
`python -X importtime`, and host context. Every metric is printed with its
unit; the last line is one JSON object for machines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The workloads, metric names and units are those of BENCHMARK.json.
SPEC_PATH = ROOT / "BENCHMARK.json"
RUN_LIMIT_S = 170.0
SECONDS_MAX = 60
SETUP_REPEATS = 21
IMPORTTIME_REPEATS = 3
REF_LOOP_REPEATS = 5

# Run in a fresh process: the import that set-up time covers, then the
# workload's tiny warm-up call. argv: workload name, scratch directory.
WARM_UP = (
    "import sys\n"
    "from pathlib import Path\n"
    "sys.path.insert(0, 'perfbench')\n"
    "from workloads import WORKLOADS\n"
    "sys.exit(WORKLOADS[sys.argv[1]].warm_up(Path(sys.argv[2])))"
)


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(cmd, deadline: float, **kwargs) -> subprocess.CompletedProcess:
    """Run a child to completion in the checkout; kill it at the deadline."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("run time limit reached")
    try:
        return subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=timeout, **kwargs)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{cmd[1:3]} timed out") from err


def setup_seconds(workload: str, deadline: float) -> float:
    """Median wall time of fresh processes importing rollingdisk.cli, through the
    benchmark's workloads module, plus the workload's warm-up call.

    One unmeasured process first writes the bytecode cache, as an install would.
    """
    times = []
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as tmp:
        cmd = [sys.executable, "-c", WARM_UP, workload, tmp]
        for i in range(SETUP_REPEATS + 1):
            start = time.perf_counter()
            proc = run_child(cmd, deadline, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            elapsed = time.perf_counter() - start
            if proc.returncode != 0:
                raise BenchError(f"set-up probe failed:\n{proc.stderr}")
            if i:
                times.append(elapsed)
    return statistics.median(times)


_IMPORT_LINE = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s+(\S+)")


def import_seconds(modules, deadline: float) -> dict:
    """Median cumulative import time of each package module, from -X importtime."""
    samples = {m: [] for m in modules}
    for _ in range(IMPORTTIME_REPEATS):
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import rollingdisk.cli"],
                         deadline, capture_output=True, text=True)
        if proc.returncode != 0:
            raise BenchError(f"import failed:\n{proc.stderr}")
        seen = {}
        for cumulative_us, module in _IMPORT_LINE.findall(proc.stderr):
            if module == "rollingdisk" or module.startswith("rollingdisk."):
                seen[module.rsplit(".", 1)[-1]] = int(cumulative_us) * 1e-6
        for m in modules:
            samples[m].append(seen.get(m, 0.0))
    return {f"{m}.import_s": statistics.median(v) for m, v in samples.items()}


def ref_loop_seconds() -> float:
    """A fixed pure-Python loop: context for the host's speed, never used to scale."""
    times = []
    for _ in range(REF_LOOP_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def host_context() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "ref_loop_s": ref_loop_seconds(),
    }


def run_worker(args, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = run_child(cmd, deadline, capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as err:
        raise BenchError(f"worker printed no report:\n{proc.stdout}\n{proc.stderr}") from err


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    setup_s = setup_seconds(args.workload, deadline)
    report = run_worker(args, deadline)
    if not report["accuracy"]:
        raise BenchError(f"no unit passed its checks: {report['failures']}")
    values = {"setup_s": setup_s, "items_per_s": report["items_per_s"],
              "peak_rss_mb": report["peak_rss_mb"], **report["accuracy"]}
    return report, values


def per_layer(args, deadline: float, names, host: dict) -> tuple[dict, dict]:
    """Every per-layer value the traced run yields, by metric name."""
    modules = [n.removesuffix(".import_s") for n in names if n.endswith(".import_s")]
    report = run_worker(args, deadline)
    trace = report["trace"]
    values = import_seconds(modules, deadline)
    for stat in ("calls", "self_s"):
        values.update({f"{func}.{stat}": v for func, v in trace[stat].items()})
    values.update({f"{func}.ns_per_call": v for func, v in report["micro_ns"].items()})
    values["cli.write_csv.bytes"] = trace["csv_bytes"]
    values["cli.write_csv.rows"] = trace["csv_rows"]
    values["trace.overhead_ratio"] = trace["overhead_ratio"]
    values["trace.spans"] = trace["spans"]
    values["host.ref_loop_s"] = host["ref_loop_s"]
    values["host.nproc"] = host["nproc"]
    values["failed_ratio"] = ((report["failed"] + trace["failed"])
                              / (report["attempted"] + trace["units"]))
    return report, values


def main(argv=None) -> int:
    try:
        spec = json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as err:
        print(f"cannot read {SPEC_PATH.name}: {err}", file=sys.stderr)
        return 2
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= SECONDS_MAX:
        ap.error(f"--seconds must be from 1 to {SECONDS_MAX}")

    deadline = time.perf_counter() + RUN_LIMIT_S
    if not (ROOT / "src" / "rollingdisk" / "__init__.py").is_file():
        print(f"no rollingdisk package under {ROOT / 'src'}: run from a source checkout",
              file=sys.stderr)
        return 2
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    host = host_context()
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    try:
        if args.trace:
            report, values = per_layer(args, deadline, units, host)
        else:
            report, values = end_to_end(args, deadline)
        missing = [name for name in units if name not in values]
        if missing:
            raise BenchError(f"no value for {', '.join(missing)}")
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1

    failed = report["failed"]
    attempted = report["attempted"]
    failures = list(report["failures"])
    correct = failed == 0 and report["complete"]
    if args.trace:
        trace = report["trace"]
        attempted += trace["units"]
        failed += trace["failed"]
        failures += trace["failures"]
        for name, (got, want) in trace["count_mismatches"].items():
            failures.append(f"traced {name} calls {got}, expected {want}")
        correct = correct and trace["failed"] == 0 and not trace["count_mismatches"]

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}: "
          f"{attempted} units, {failed} failed")
    print("host: " + ", ".join(f"{k} {v}" for k, v in host.items()))
    for reason in failures:
        print(f"FAILED: {reason}")
    for name, unit in units.items():
        print(f"  {name:42s} {values[name]:<14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
