import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import rollingdisk.dynamics
from rollingdisk import cli
from rollingdisk.cli import CSV_COLUMNS, UsageError, main, parse_args
from rollingdisk.simulator import scenario_preset


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
        ["validate", "--seed", "-1"],
        # the plot script would take the CSV's path and overwrite it
        ["simulate", "--scenario", "straight", "--out", "run.gp", "--emit-plot"],
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
    assert out_text.startswith("scenario precession: 10001 samples to t=10 s, dt=0.001, rk4\n")
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


def test_overrides_are_validated_together(tmp_path):
    # --dt 0.5 alone exceeds the file's t_end 0.1; with --t-end 1.0 the pair is valid.
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
    argv = ["simulate", "--config", str(path), "--dt", "0.5", "--t-end", "1.0", "--out", str(out)]
    assert main(argv) == 0
    # 2 steps of 0.5: rows at indices 0 and 2
    assert [float(ln.split(",")[0]) for ln in out.read_text().splitlines()[1:]] == [0.0, 1.0]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda c: c.pop("dt"),
        lambda c: c.update(extra=1.0),
        lambda c: c.update(x0=[1.0, 2.0]),
        lambda c: c.update(m=-1.0),
        lambda c: c.update(dt=0.0),
        # json reads NaN; the run would write an all-NaN CSV
        lambda c: c.update(x0=[2.0, 0.0, 0.0, float("nan"), 0.0, 2.5, 0.0, 0.0]),
        # 1.0 is no whole number of 0.3 s steps; the run would stop at t=0.9
        lambda c: c.update(t_end=1.0, dt=0.3),
        # float() would take each of these and run
        lambda c: c.update(m=True),
        lambda c: c.update(m="5"),
        lambda c: c.update(g="9.81"),
        lambda c: c.update(r=True),
        lambda c: c.update(t_end="0.1"),
        lambda c: c.update(dt="0.01"),
        lambda c: c.update(x0=[2.0, 0.0, 0.0, 0.1, 0.0, 2.5, 0.0, True]),
        lambda c: c.update(x0=[2.0, 0.0, 0.0, 0.1, 0.0, "2.5", 0.0, 0.0]),
        # null, which float() refuses too
        lambda c: c.update(g=None),
        # an int no float holds
        lambda c: c.update(m=10**400),
        # bytes that are not UTF-8 replace the whole file
        lambda c: b"\xff\xfe",
    ],
)
def test_config_file_errors(tmp_path, capsys, mutate):
    config = {
        "m": 5.0,
        "g": 9.81,
        "r": 1.0,
        "x0": [0.0, 0.0, 0.0, 0.1, 0.0, 2.5, 0.0, 0.0],
        "t_end": 0.1,
        "dt": 0.01,
    }
    raw = mutate(config)
    path = tmp_path / "bad.json"
    path.write_bytes(raw if isinstance(raw, bytes) else json.dumps(config).encode())
    out = tmp_path / "bad.csv"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1, err


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


def test_abort_reports_the_last_sample_time(tmp_path, capsys):
    # Nearly flat and tipping on, the disk reaches the flat band in step 2639.
    out = tmp_path / "tipping.csv"
    x0 = ["2", "0", "0", "1.5706", "0", "0", "0.01", "0"]
    argv = ["simulate", "--scenario", "precession", "--x0", *x0, "--t-end", "3", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "run aborted: singular configuration at t=2.638 s; partial trajectory written\n"
    assert float(out.read_text().splitlines()[-1].split(",")[0]) == 2638 * 1e-3


def test_overflowing_rates_exit_4_with_partial_csv(tmp_path, capsys):
    out = tmp_path / "huge.csv"
    x0 = ["2", "0", "0", "0.1", "0", "0", "0", "1e100"]
    argv = ["simulate", "--scenario", "spin", "--x0", *x0, "--t-end", "0.002", "--out", str(out)]
    assert main(argv) == 4
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert float(lines[1].split(",")[CSV_COLUMNS.index("dpsi")]) == 1e100
    assert "run aborted: non-finite state at t=0 s" in capsys.readouterr().err


def test_overflowing_initial_energy_is_a_usage_error(tmp_path, capsys):
    # The rates are finite but the energy at x0 is not: rejected before the
    # run, with no CSV and no numpy warning.
    out = tmp_path / "huge.csv"
    x0 = ["2", "0", "0", "0.1", "0", "1e160", "0", "1e160"]
    argv = ["simulate", "--scenario", "spin", "--x0", *x0, "--t-end", "0.01", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: x0 gives initial energy inf")
    assert not out.exists()


def test_parser_is_built_once_and_keeps_no_options():
    x0 = ["1", "2", "0", "0.1", "0", "0", "0", "3"]
    plain = parse_args(["simulate", "--scenario", "spin"])
    given = parse_args(["simulate", "--scenario", "spin", "--x0", *x0])
    again = parse_args(["simulate", "--scenario", "spin"])
    preset = scenario_preset("spin").x0
    assert plain.scenario.x0 == again.scenario.x0 == preset
    assert given.scenario.x0 == tuple(float(v) for v in x0)
    assert cli._build_parser() is cli._build_parser()


def test_x0_takes_negative_numbers_in_exponent_form(tmp_path):
    out = tmp_path / "spin.csv"
    x0 = ["2", "0", "0", "0", "0", "0", "-1e-05", "1"]
    argv = ["simulate", "--scenario", "spin", "--x0", *x0, "--t-end", "0.01", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_text().splitlines()[1].split(",")
    assert float(first[CSV_COLUMNS.index("dtheta")]) == -1e-05


def test_overflowing_step_count_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "spin.csv"
    argv = ["simulate", "--scenario", "spin", "--t-end", "1e300", "--dt", "1e-300", "--out", str(out)]
    assert main(argv) == 1
    assert "overflows the step count" in capsys.readouterr().err
    assert not out.exists()


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
    # the rim outline at t = 0 is centered on the start's (c1, c2) = (2, 0)
    points = [[float(c) for c in ln.split(",")] for ln in data_lines[:-1]]
    assert np.allclose(np.mean(points, axis=0), [2.0, 0.0], atol=1e-6)


def test_plot_script_doubles_quotes_in_the_csv_name(tmp_path):
    # gnuplot ends a single-quoted string at a lone quote; '' stands for one.
    out = tmp_path / "it's.csv"
    argv = ["simulate", "--scenario", "straight", "--t-end", "0.01", "--out", str(out), "--emit-plot"]
    assert main(argv) == 0
    plot = [ln for ln in (tmp_path / "it's.gp").read_text().splitlines() if ln.startswith("plot ")]
    assert plot == ["plot 'it''s.csv' using 2:3 with lines lw 2 lc rgb '#c0392b' title 'center path', \\"]


@pytest.mark.parametrize(
    "out, emit_plot, blocked, reason",
    [
        ("missing/x.csv", False, "missing/x.csv", "No such file or directory"),
        ("", False, "", "Is a directory"),
        ("run.csv", True, "run.gp", "Is a directory"),
    ],
    ids=["missing-dir", "out-is-dir", "plot-is-dir"],
)
def test_unwritable_output_exits_1_in_one_line(tmp_path, capsys, out, emit_plot, blocked, reason):
    # The run completes; the failed write is reported without a traceback.
    (tmp_path / "run.gp").mkdir()
    argv = ["simulate", "--scenario", "straight", "--t-end", "0.01", "--out", str(tmp_path / out)]
    assert main(argv + ["--emit-plot"] * emit_plot) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cannot write {tmp_path / blocked}: {reason}\n"


def test_validate_passes(capsys):
    assert main(["validate", "--samples", "50", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("validate: 50 samples, seed 7\n")
    assert "PASS" in out


@pytest.mark.parametrize("argv", [
    # These seeds draw stand angles near 1.19, where the oracle once read
    # 1.03e-5 and 1.55e-5 against its 1e-5 bar.
    ["--samples", "25", "--seed", "1072734275"],
    ["--samples", "25", "--seed", "1310526364"],
    # A small disk: with steps not scaled to r the oracle read 1.56e-5.
    ["--r", "0.01"],
    # Disk sizes no finite-difference step rule in r fitted: 2.05e-5,
    # 6.16e-5 and 2.6e-4 there, against 1e-5.
    ["--r", "0.001"],
    ["--r", "1000"],
    ["--r", "1e-4"],
    # Both routes solve the unit disk's system, and the oracle reads G at
    # rest: before that these failed, with the oracle at 1.1e-3 (r = 1e6)
    # and 1.6e-5 (r = 1e-8), and "exactly singular" (g = 1e300).
    ["--r", "1e6"],
    ["--r", "1e-8"],
    # The sweep runs on the unit disk, where the sampled center rates enter
    # L unscaled: as dc/r their square overflowed and the oracle read inf.
    ["--r", "1e-160"],
    ["--g", "1e300"],
], ids=["1072734275", "1310526364", "r0.01", "r0.001", "r1000", "r1e-4", "r1e6", "r1e-8", "r1e-160", "g1e300"])
def test_validate_oracle_has_margin_on_hard_seeds(argv, capsys):
    assert main(["validate", *argv]) == 0
    assert "PASS" in capsys.readouterr().out


def test_validate_fails_on_a_non_finite_error(capsys):
    # g/r = 1.6e308 overflows the oracle; an error that cannot be measured fails.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", "--samples", "3", "--g", "1e308", "--r", "0.6"]) == 3
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert "max rel err inf" in captured.out
    assert "FAIL vs complex step at q=GenCoords(" in captured.err
    assert "v=GenVel(" in captured.err


@pytest.mark.parametrize("params, reason", [
    (["--g", "1e300", "--r", "1e-10"], "ValueError: g/r = 1e+300/1e-10 rounds to inf, not a positive finite number"),
    (["--g", "1e-300", "--r", "1e100"], "ValueError: g/r = 1e-300/1e+100 rounds to 0.0, not a positive finite number"),
], ids=["g-over-r-overflows", "g-over-r-underflows"])
def test_validate_reports_degenerate_parameters_in_one_line(params, reason, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", "--samples", "3", *params]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("validate: cannot evaluate the model at g=")
    assert reason in err
    assert "horizontal" not in err


@pytest.mark.parametrize("params, code", [
    (["--r", "1e200"], 0),
    (["--r", "1e-100"], 0),
    # On the unit disk the center rates enter L unscaled: no overflow.
    (["--r", "1e-170"], 0),
], ids=["r1e200", "r1e-100", "r1e-170"])
def test_validate_evaluates_extreme_disks(params, code, capsys):
    # These once stopped before the sweep: M was exactly singular, or L overflowed.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", "--samples", "3", *params]) == code
    captured = capsys.readouterr()
    assert captured.out.startswith("validate: 3 samples, seed 42\n")
    assert ("  PASS\n" in captured.out) == (code == 0)
    assert ("complex step: max rel err inf" in captured.out) == (code == 3)
    assert "cannot evaluate" not in captured.err


def _python(*args) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's package."""
    src = str(Path(rollingdisk.dynamics.__file__).parents[1])
    path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_cli_imports_without_scipy():
    code = "import sys, rollingdisk.cli; assert 'scipy' not in sys.modules, 'scipy imported'"
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_cli_module_runs_as_a_script(tmp_path):
    out = tmp_path / "m.csv"
    proc = _python("-m", "rollingdisk.cli", "simulate", "--scenario", "straight",
                   "--t-end", "0.01", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert f"wrote {out} (2 rows)" in proc.stdout
    assert out.read_text().startswith(",".join(CSV_COLUMNS) + "\n")


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


def test_validate_catches_a_center_fault_on_a_tiny_disk(monkeypatch, capsys):
    # Compared in disk units, ddc = r y[2:4] vanished beside the angle
    # accelerations: at r = 1e-12 this 1 % error read 5.0e-14 and passed.
    true_center = rollingdisk.dynamics.closed_form_center_accels

    def warped(q, rates, p):
        ddc1, ddc2 = true_center(q, rates, p)
        return 1.01 * ddc1, ddc2

    monkeypatch.setattr(rollingdisk.dynamics, "closed_form_center_accels", warped)
    assert main(["validate", "--samples", "20", "--r", "1e-12"]) == 3
    err = capsys.readouterr().err
    assert "FAIL vs linear solve" in err
    assert "FAIL vs complex step" in err


def test_validate_has_no_mass_option(capsys):
    # The sweep runs on the unit disk of g/r, where m cannot change a result.
    assert main(["validate", "--m", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("usage error:")
