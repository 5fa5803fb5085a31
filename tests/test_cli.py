import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rollingdisk.dynamics
from rollingdisk import cli
from rollingdisk.cli import CSV_COLUMNS, UsageError, main, parse_args


def test_parse_simulate_preset():
    cfg = parse_args(["simulate", "--scenario", "circle", "--out", "x.csv", "--dt", "0.002"])
    assert cfg.mode == "simulate"
    assert cfg.scenario.name == "circle"
    assert cfg.scenario.dt == 0.002
    assert cfg.out == "x.csv"
    assert not cfg.emit_plot


def test_parse_default_out_follows_scenario():
    cfg = parse_args(["simulate", "--scenario", "spin"])
    assert cfg.out == "spin.csv"


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["simulate"],
        ["simulate", "--scenario", "spin", "--config", "x.json"],
        ["simulate", "--scenario", "nosuch"],
        ["simulate", "--scenario", "spin", "--dt", "0"],
        ["simulate", "--scenario", "spin", "--t-end", "-1"],
        ["simulate", "--scenario", "spin", "--m", "-2"],
        ["validate", "--samples", "0"],
    ],
)
def test_usage_errors(argv):
    with pytest.raises(UsageError):
        parse_args(argv)


def test_usage_errors_exit_code_1(capsys):
    assert main([]) == 1
    assert "usage error" in capsys.readouterr().err


def test_simulate_writes_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(["simulate", "--scenario", "precession", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    # 10^4 steps thinned by 10, plus the initial row
    assert len(lines) == 1 + 1001
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 2.0  # c1
    assert float(first[4]) == 0.0  # phi
    out_text = capsys.readouterr().out
    assert "energy drift" in out_text


def test_csv_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--scenario", "circle", "--t-end", "0.5", "--out", str(a)]) == 0
    assert main(["simulate", "--scenario", "circle", "--t-end", "0.5", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_csv_full_precision_round_trip(tmp_path):
    from rollingdisk.simulator import integrate, scenario_preset
    from dataclasses import replace

    cfg = replace(scenario_preset("precession"), t_end=0.1)
    traj = integrate(cfg)
    out = tmp_path / "p.csv"
    assert main(["simulate", "--scenario", "precession", "--t-end", "0.1", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    emitted = [traj.samples[i] for i in range(0, len(traj.samples), 10)]
    assert len(rows) == len(emitted)
    for row, sample in zip(rows, emitted):
        cells = [float(c) for c in row.split(",")]
        x = sample.state
        assert cells[0] == sample.t
        assert cells[1] == x.c1 and cells[2] == x.c2
        assert cells[3] == cfg.params.r * math.cos(x.theta)
        assert cells[4:10] == [x.phi, x.theta, x.psi, x.dphi, x.dtheta, x.dpsi]
        assert cells[10] == sample.energy
        assert cells[11] == sample.residual


def test_config_file_run(tmp_path):
    config = {
        "m": 2.0,
        "g": 9.81,
        "r": 0.5,
        "x0": [0.0, 0.0, 0.0, 0.2, 0.0, 3.0, 0.0, 0.0],
        "t_end": 0.1,
        "dt": 0.01,
    }
    path = tmp_path / "myrun.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "myrun.csv"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    # 10 steps: rows at indices 0 and 10
    assert len(lines) == 3
    assert float(lines[1].split(",")[5]) == 0.2  # theta from the file


def test_config_default_out_uses_file_stem(tmp_path, monkeypatch):
    config = {
        "m": 5.0,
        "g": 9.81,
        "r": 1.0,
        "x0": [0.0, 0.0, 0.0, 0.1, 0.0, 2.5, 0.0, 0.0],
        "t_end": 0.05,
        "dt": 0.01,
    }
    path = tmp_path / "tilted.json"
    path.write_text(json.dumps(config))
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", str(path)]) == 0
    assert (tmp_path / "tilted.csv").exists()


def test_config_flag_overrides_file(tmp_path):
    config = {
        "m": 5.0,
        "g": 9.81,
        "r": 1.0,
        "x0": [0.0, 0.0, 0.0, 0.1, 0.0, 2.5, 0.0, 0.0],
        "t_end": 0.1,
        "dt": 0.01,
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "c.csv"
    assert main(["simulate", "--config", str(path), "--dt", "0.005", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    # 20 steps of 0.005: emitted at 0, 10, 20
    assert len(lines) == 4
    assert float(lines[2].split(",")[0]) == pytest.approx(0.05, abs=1e-12)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda c: c.pop("dt"),
        lambda c: c.update(extra=1.0),
        lambda c: c.update(x0=[1.0, 2.0]),
        lambda c: c.update(m=-1.0),
        lambda c: c.update(dt=0.0),
    ],
)
def test_config_file_errors(tmp_path, mutate):
    config = {
        "m": 5.0,
        "g": 9.81,
        "r": 1.0,
        "x0": [0.0, 0.0, 0.0, 0.1, 0.0, 2.5, 0.0, 0.0],
        "t_end": 0.1,
        "dt": 0.01,
    }
    mutate(config)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(path)]) == 1


def test_config_file_not_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("dt = 0.01")
    assert main(["simulate", "--config", str(path)]) == 1


def test_x0_override_and_singular_abort(tmp_path, capsys):
    out = tmp_path / "abort.csv"
    code = main(
        [
            "simulate",
            "--scenario",
            "precession",
            "--out",
            str(out),
            "--x0",
            "2", "0", "0", "1.5707963", "0", "2.5", "0", "0",
        ]
    )
    assert code == 2
    # header plus the initial sample survived the abort
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert float(lines[1].split(",")[5]) == 1.5707963
    assert "singular" in capsys.readouterr().err.lower()


def test_emit_plot_writes_script(tmp_path):
    out = tmp_path / "circle.csv"
    code = main(
        ["simulate", "--scenario", "circle", "--t-end", "0.2", "--out", str(out), "--emit-plot"]
    )
    assert code == 0
    script = (tmp_path / "circle.gp").read_text()
    assert script.startswith("#")
    assert "circle.csv" in script
    assert "$outline" in script
    assert "plot" in script
    # outline data: n+1 closed polyline points, two columns each
    data_lines = [
        ln for ln in script.splitlines() if ln and ln[0] in "-0123456789" and "," in ln
    ]
    assert len(data_lines) == 65
    for ln in data_lines[:3]:
        assert len(ln.split(",")) == 2


def test_validate_passes(capsys):
    assert main(["validate", "--samples", "50", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "seed 7" in out
    assert "PASS" in out


@pytest.mark.parametrize("seed", ["1072734275", "1310526364"])
def test_validate_oracle_has_margin_on_hard_seeds(seed, capsys):
    # These seeds draw stand angles near 1.19, where the oracle once read
    # 1.03e-5 and 1.55e-5 against its 1e-5 bar.
    assert main(["validate", "--samples", "25", "--seed", seed]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_imports_without_scipy():
    src = str(Path(rollingdisk.dynamics.__file__).parents[1])
    path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    code = "import sys, rollingdisk.cli; assert 'scipy' not in sys.modules, 'scipy imported'"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_validate_catches_injected_fault(monkeypatch, capsys):
    true_accels = rollingdisk.dynamics.closed_form_accels

    def warped(q, rates, p):
        ddphi, ddtheta, ddpsi = true_accels(q, rates, p)
        return ddphi + 1e-6, ddtheta, ddpsi

    monkeypatch.setattr(rollingdisk.dynamics, "closed_form_accels", warped)
    assert main(["validate", "--samples", "20", "--seed", "3"]) == 3
    err = capsys.readouterr().err
    assert "FAIL" in err
    assert "GenCoords" in err  # offending state is reported
