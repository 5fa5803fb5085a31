"""Check that the working tree writes the same bytes as a base commit.

python tools/same_bytes.py --against REV: subprocesses of this interpreter write 17 files from REV's src
(via git archive) and the working tree's; prints equal or DIFF each, and under a digest file's DIFF the lines
that differ; exits nonzero on a difference or failure.
"""

import argparse
import filecmp
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CLI = ["-m", "rollingdisk.cli"]
# Every sample of both routes and presets, which the thinned CSV does not show.
SAMPLES = '''import hashlib
from rollingdisk.simulator import PRESET_NAMES, integrate, integrate_10dim, scenario_preset
for route in (integrate, integrate_10dim):
    for name in PRESET_NAMES:
        print(route.__name__, name, hashlib.sha256(route(scenario_preset(name)).columns).hexdigest())
'''
# Per disk over 500 states: both 7x7 systems, their solves, the closed forms and what they rest on. struct
# packs an array's entries and a tuple's alike, so a kernel may return either but keeps every bit of its values.
SYSTEMS = '''import hashlib, struct
import numpy as np
from rollingdisk.assembly import assemble_system, oracle_system, solve_oracle_system, solve_system
from rollingdisk.constraints import constraint_residual
from rollingdisk.dynamics import closed_form_solution
from rollingdisk.energetics import Params, kinetic_energy, potential_energy
from rollingdisk.kinematics import euler_rotation, rotation_vector
from rollingdisk.validation import max_rel_diff, sample_state
for p in (Params(), Params(m=100, r=0.01), Params(g=1e308, r=1)):
    digest, rng = hashlib.sha256(), np.random.default_rng(42)
    for _ in range(500):
        q, v = sample_state(rng)
        for M, b in (assemble_system(q[3], q[4], v[2:5], p.g / p.r), oracle_system(q, v, p)):
            digest.update(struct.pack("56d", *np.ravel(M), *b))
        solve, oracle, closed = solve_system(q, v, p), solve_oracle_system(q, v, p), closed_form_solution(q, v[2:5], p)
        digest.update(struct.pack("21d", *solve, *oracle, *closed))
        digest.update(struct.pack("7d", kinetic_energy(q, v, p), potential_energy(q, p),
                                  *constraint_residual(q, v, p), *rotation_vector(q[2:5], v[2:5])))
        digest.update(struct.pack("11d", *(x for row in euler_rotation(q[2:5]) for x in row),
                                  max_rel_diff(closed, solve), max_rel_diff(closed, oracle)))
    print(p, digest.hexdigest())
'''
OTHERS = {
    "validate.stdout": [*CLI, "validate", "--samples", "1000", "--seed", "42"],
    "validate-r.stdout": [*CLI, "validate", "--samples", "200", "--r", "1e-4"],
    "validate-g.stdout": [*CLI, "validate", "--samples", "200", "--g", "1e308", "--r", "1"],
    "samples.sha256": ["-c", SAMPLES],
    "systems.sha256": ["-c", SYSTEMS],
}


def _run(src, out, args, name=None):
    """Run this interpreter on args in out, with src alone on PYTHONPATH and stdout into out/name. A
    numpy RuntimeWarning fails the run, as in the tests, even where it leaves stdout's bytes alone."""
    with open(out / name if name else os.devnull, "wb") as f:
        argv = [sys.executable, "-W", "error::RuntimeWarning", *args]
        code = subprocess.run(argv, cwd=out, stdout=f, env=dict(os.environ, PYTHONPATH=str(src))).returncode
    if code:
        sys.exit(f"{name or 'the import check'} from {src}: exit {code}")


def write_presets(src, out):
    """The four presets' CSV, plot script and stdout: 12 files that only the program and libm fix."""
    for s in ("precession", "circle", "straight", "spin"):
        _run(src, out, [*CLI, "simulate", "--scenario", s, "--out", f"{s}.csv", "--emit-plot"], f"{s}.stdout")


def write_all(src, out):
    """All 17 files into a new directory out, from src's package, not an installed one."""
    out.mkdir()
    _run(src, out, ["-c", "import sys, rollingdisk as r; sys.exit(not r.__file__.startswith(sys.argv[1]))", str(src)])
    write_presets(src, out)
    for name, args in OTHERS.items():
        _run(src, out, args, name)


def _lines(path):
    return path.read_text().splitlines() if path.exists() else []


def compare(base, head):
    """Print equal or DIFF for each file in either directory, and under a DIFF of a *.sha256 file its lines
    that differ, base's as "- line" and head's as "+ line", so each names its route and preset or disk;
    1 if any differs."""
    names = sorted({p.name for p in base.iterdir()} | {p.name for p in head.iterdir()})
    equal = filecmp.cmpfiles(base, head, names, shallow=False)[0]
    for name in names:
        print("equal" if name in equal else "DIFF", name)
        if name not in equal and name.endswith(".sha256"):
            old, new = _lines(base / name), _lines(head / name)
            for sign, lines, other in (("-", old, new), ("+", new, old)):
                for line in lines:
                    if line not in other:
                        print(f"  {sign} {line}")
    return int(len(equal) < len(names))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--against", required=True, metavar="REV", help="the base commit, unpacked with git archive")
    rev = parser.parse_args(argv).against
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if subprocess.run(["git", "archive", "-o", tmp / "base.tar", rev], cwd=ROOT).returncode:
            sys.exit(f"cannot archive {rev}")
        with tarfile.open(tmp / "base.tar") as tar:
            tar.extractall(tmp / "base-tree", filter="data")
        write_all(tmp / "base-tree" / "src", tmp / "base")
        write_all(ROOT / "src", tmp / "head")
        return compare(tmp / "base", tmp / "head")


if __name__ == "__main__":
    sys.exit(main())
