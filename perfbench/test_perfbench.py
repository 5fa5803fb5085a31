"""Self-tests of the benchmark: call-site-correct tracing and the output checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import worker  # noqa: E402
from tracer import Tracer, _package_modules, traced_functions  # noqa: E402
from workloads import WORKLOADS, UnitResult  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TARGETS = traced_functions(m["name"] for m in SPEC["per_layer"])


def traced_unit(name, tmp_path, tracer):
    workload = WORKLOADS[name]
    inp = workload.inputs(7)[0]
    tracer.install()
    try:
        result = worker.run_unit(workload, inp, tmp_path, {}, tracer)
    finally:
        tracer.uninstall()
    assert result.ok, result.reason
    return workload


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_match_arithmetic(name, tmp_path):
    tracer = Tracer(TARGETS)
    workload = traced_unit(name, tmp_path, tracer)
    expected = workload.expected_calls(1)
    assert {k: tracer.calls[k] for k in tracer.targets} == {
        k: expected.get(k, 0) for k in tracer.targets
    }
    if name == "simulate_precession":
        assert tracer.calls["dynamics.state_derivative"] == 4 * workload.steps
        assert tracer.calls["constraints.consistent_velocity"] == 5 * workload.steps + 1
    else:
        assert tracer.calls["assembly.solve_system"] == 4 * workload.steps
    assert tracer.span_count() == sum(tracer.calls.values())


def test_self_time_never_exceeds_total(tmp_path):
    tracer = Tracer(TARGETS)
    traced_unit("simulate_precession", tmp_path, tracer)
    total = dict.fromkeys(tracer.targets, 0.0)
    for i, start in enumerate(tracer._start):
        total[tracer.targets[tracer._name[i]]] += tracer._end[i] - start
    for name in tracer.targets:
        assert 0.0 <= tracer.self_s[name] <= total[name] + 1e-9
    # integrate encloses every step, so its children take most of its time
    assert tracer.self_s["simulator.integrate"] < total["simulator.integrate"]


def test_missed_call_site_shows_in_counts(tmp_path):
    """A wrapper missing at the name a caller looks up leaves calls uncounted."""
    from rollingdisk import dynamics, simulator

    tracer = Tracer(TARGETS)
    workload = WORKLOADS["simulate_precession"]
    tracer.install()
    try:
        simulator.state_derivative = dynamics.state_derivative.__wrapped__
        worker.run_unit(workload, workload.inputs(7)[0], tmp_path, {}, tracer)
    finally:
        tracer.uninstall()
    assert tracer.calls["dynamics.state_derivative"] == 0
    assert tracer.calls["dynamics.state_derivative"] != workload.expected_calls(1)[
        "dynamics.state_derivative"]


def test_uninstall_restores_every_reference():
    def snapshot():
        refs = {}
        for module in _package_modules():
            for key, value in vars(module).items():
                refs[(module.__name__, key)] = value
                if type(value) is dict and key != "__builtins__":
                    for k, v in value.items():
                        refs[(module.__name__, key, k)] = v
        return refs

    before = snapshot()
    tracer = Tracer(TARGETS)
    tracer.install()
    # state_derivative alone is bound in dynamics, simulator and the package
    assert len(tracer._patched) > len(tracer.targets)
    tracer.uninstall()
    after = snapshot()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)


def test_repeated_input_must_reproduce_output(tmp_path):
    workload = WORKLOADS["unreduced_10dim"]
    inp = workload.inputs(3)[0]
    digests = {}
    assert worker.run_unit(workload, inp, tmp_path, digests).ok
    digests[repr(inp)] = "0" * 64
    result = worker.run_unit(workload, inp, tmp_path, digests)
    assert not result.ok and "differs" in result.reason


def test_simulate_drift_check_reads_the_report(tmp_path):
    """Drift and residual come from the command's summary over every sample."""
    workload = WORKLOADS["simulate_precession"]
    inp = workload.inputs(3)[0]
    code, path, text = workload.run(inp, tmp_path)
    assert code == 0 and "energy drift max" in text
    result = worker.run_unit(workload, inp, tmp_path, {})
    assert result.ok and 0.0 < result.accuracy["energy_drift_max"] < 1e-6
    drifting = text.replace("energy drift max ", "energy drift max 2.000e-06 was ")
    result = UnitResult(workload.items, 1.0)
    workload.check(inp, (code, path, drifting), result, True)
    assert not result.ok and "energy drift 2.000e-06" in result.reason


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "unreduced_10dim",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_slow_run_is_cut_and_reported(monkeypatch, capsys):
    """A run that cannot cover its inputs in time still reports, as incomplete."""
    monkeypatch.setattr(worker, "INPUT_FLOOR_CAP_S", 0.0)
    assert worker.main(["--workload", "unreduced_10dim", "--seed", "1",
                        "--seconds", "1", "--trace", "0"]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not report["complete"]
    assert 0 < report["attempted"] < len(WORKLOADS["unreduced_10dim"].inputs(1))
    assert any(reason.startswith("cut at") for reason in report["failures"])
    assert report["accuracy"]
