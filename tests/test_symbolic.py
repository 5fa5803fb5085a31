"""The paper's own route: the rolling disk derived once with sympy.

The module fixture builds the model from its definitions alone, in this
order:

- R = Rz(psi) Ry(theta) Rx(phi), and omega as the axial vector of R^T dR/dt;
- L = 1/2 omega . I omega + 1/2 m |dc/dt|^2 - m g r cos(theta), with
  I = diag(m r^2/2, m r^2/4, m r^2/4) and c = (c1, c2, r cos(theta));
- the contact rows A from no slip: the rim point touching the plane lies at
  rho = -r (e_z - n_z n) / cos(theta) from the center, n = R e_x, and its
  velocity dc/dt + (R omega) x rho is zero;
- the drift (dA/dt) qdot, then G and f from the Euler-Lagrange equations
  d/dt(dL/dqdot) - dL/dq = G qddot - f, and the 7 x 7 matrix M.

Each sine and cosine is a symbol of its own, differentiated by the chain
rule, so every derived quantity is a rational function of them. An identity
holds exactly when the numerator of the difference reduces to zero modulo
sin^2 + cos^2 = 1 of each angle; that reduction is a normal form, and it is
the test of every exact assertion below. The package's entry helpers are
plain arithmetic, so they are called with the symbols themselves, and their
float coefficients are read as the exact binary fractions they are. The
functions that call math are compared with the lambdified derivation at
sample_state draws instead, and closed_form_solution with the derived system
solved in 50-digit mpmath, down to the flat-disk cutoff.
"""

import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
import sympy as sp

from rollingdisk.assembly import (
    _drift_entries, _force_entries, _mass_entries, oracle_lhs, solve_oracle_system, solve_system)
from rollingdisk.constraints import _constraint_entries, consistent_velocity
from rollingdisk.dynamics import circular_spin, closed_form_accels, closed_form_center_accels, closed_form_solution
from rollingdisk.energetics import Params, kinetic_energy, lagrangian, potential_energy
from rollingdisk.kinematics import euler_rotation, rotation_vector
from rollingdisk.validation import max_rel_diff, sample_state

m, g, r = PARAMS = sp.symbols("m g r", positive=True)
c1, c2, phi, theta, psi = Q = sp.symbols("c1 c2 phi theta psi", real=True)
DQ = sp.symbols("dc1 dc2 dphi dtheta dpsi", real=True)
DDQ = sp.symbols("ddc1 ddc2 ddphi ddtheta ddpsi", real=True)
TRIG = {angle: sp.symbols(f"s_{angle} c_{angle}", real=True) for angle in (phi, theta, psi)}
(s_phi, c_phi), (s_th, c_th), (s_psi, c_psi) = TRIG.values()
# Lexicographic order with the cosines first makes cos^2 the leading term of
# each identity, so reduction replaces it by 1 - sin^2.
GENERATORS = (c_phi, c_th, c_psi, s_phi, s_th, s_psi)
PYTHAGORAS = [s * s + c * c - 1 for s, c in TRIG.values()]
UNTRIG = {x: f(angle) for angle, pair in TRIG.items() for x, f in zip(pair, (sp.sin, sp.cos))}

# Bar for the functions that call math, relative to the largest derived value
# over the draws.
LAMBDIFIED_BAR = 1e-13
# Step of the complex-step derivatives taken here, as small as the oracle's.
COMPLEX_STEP = 1e-30


def canonical(expr):
    """Normal form of a polynomial in the sines and cosines."""
    return sp.reduced(sp.expand(expr), PYTHAGORAS, *GENERATORS)[1]


def vanishes(expr) -> bool:
    """True when expr is exactly zero wherever its denominator is nonzero."""
    numerator, _ = sp.fraction(sp.together(expr))
    return canonical(numerator) == 0


def cleared(expr):
    """expr with cos(theta)^k cleared from its denominator, using
    1 / cos^k = cos^k / (1 - sin^2)^k; a polynomial wherever expr equals one."""
    numerator, denominator = sp.fraction(sp.together(expr))
    k = sp.degree(denominator, c_th)
    return sp.cancel(canonical(numerator * c_th**k) / (denominator / c_th**k * (1 - s_th**2) ** k))


def exact(value):
    """A helper's output with every float read as the binary fraction it holds."""
    return sp.sympify(value).replace(lambda e: e.is_Float, sp.Rational)


def partial(expr, x):
    """d expr / dx for a coordinate x; an angle enters only through its sine and cosine."""
    if x in TRIG:
        s, c = TRIG[x]
        return sp.diff(expr, s) * c - sp.diff(expr, c) * s
    return sp.diff(expr, x)


def rate(expr):
    """Time derivative of expr(q, qdot) along (qdot, qddot)."""
    return (sum(partial(expr, x) * dx for x, dx in zip(Q, DQ))
            + sum(sp.diff(expr, dx) * ddx for dx, ddx in zip(DQ, DDQ)))


@pytest.fixture(scope="module")
def model():
    rx = sp.Matrix([[1, 0, 0], [0, c_phi, -s_phi], [0, s_phi, c_phi]])
    ry = sp.Matrix([[c_th, 0, s_th], [0, 1, 0], [-s_th, 0, c_th]])
    rz = sp.Matrix([[c_psi, -s_psi, 0], [s_psi, c_psi, 0], [0, 0, 1]])
    R = rz * ry * rx
    W = (R.T * R.applyfunc(rate)).applyfunc(canonical)
    omega = sp.Matrix([W[2, 1], W[0, 2], W[1, 0]])

    inertia = sp.diag(m * r**2 / 2, m * r**2 / 4, m * r**2 / 4)
    center_rate = sp.Matrix([c1, c2, r * c_th]).applyfunc(rate)
    L = canonical((omega.T * inertia * omega)[0] / 2
                  + m * center_rate.dot(center_rate) / 2 - m * g * r * c_th)

    n = R[:, 0]
    rho = -r * (sp.Matrix([0, 0, 1]) - n[2] * n) / c_th
    slip = center_rate + (R * omega).cross(rho)
    A = sp.Matrix(2, 5, lambda i, j: cleared(sp.diff(slip[i], DQ[j])))
    drift = sp.Matrix([sum(rate(A[i, j]) * DQ[j] for j in range(5)) for i in range(2)]).applyfunc(canonical)

    lhs = sp.Matrix([rate(sp.diff(L, dx)) - partial(L, x) for x, dx in zip(Q, DQ)])
    G = lhs.jacobian(DDQ)
    f = -lhs.subs(dict.fromkeys(DDQ, 0))

    M = sp.zeros(7, 7)
    M[0:2, 2:7] = A
    M[2:7, 0:2] = -A.T
    M[2:7, 2:7] = G
    b = sp.Matrix([-drift[0], -drift[1], *f])
    center_rates = A[:, :2].LUsolve(-A[:, 2:] * sp.Matrix(DQ[2:]))
    return SimpleNamespace(R=R, W=W, omega=omega, L=L, slip=slip, A=A, drift=drift,
                           lhs=lhs, G=G, f=f, M=M, b=b, center_rates=center_rates)


def complex_step_gradient(f, x):
    """Im f(x + ih e_i) / h for each of the arguments x, f taking a list."""
    gradient = []
    for i in range(len(x)):
        probe = list(x)
        probe[i] = complex(x[i], COMPLEX_STEP)
        gradient.append(f(probe).imag / COMPLEX_STEP)
    return gradient


def residual(model, accels, rates) -> sp.Matrix:
    """M x - b on rolling velocities, for x holding the angle accelerations
    accels and the multipliers and center accelerations that the contact and
    center rows give them; zero exactly when accels solve the system."""
    center_rates = model.center_rates.xreplace(dict(zip(DQ[2:], rates)))
    v = dict(zip(DQ, (*center_rates, *rates)))
    accels = sp.Matrix(accels)
    A_center, A_angles = model.A[:, :2], model.A[:, 2:]
    center_accels = A_center.LUsolve(-model.drift.xreplace(v) - A_angles * accels)
    multipliers = A_center.T.LUsolve(
        model.G[:2, :2] * center_accels + model.G[:2, 2:] * accels - model.f[:2, :].xreplace(v)
    )
    return model.M * sp.Matrix([*multipliers, *center_accels, *accels]) - model.b.xreplace(v)


def circular_rates(spin=None):
    """(dphi, 0, dpsi): no stand rate, and the spin rate of the steady circle
    from the docstring of dynamics.circular_spin unless spin is given."""
    dpsi = DQ[4]
    if spin is None:
        spin = 2 * g * (s_th / c_th) / (3 * r * dpsi) + sp.Rational(5, 6) * dpsi * s_th
    return (spin, 0, dpsi)


def test_rotation_rate_is_skew_and_contact_stays_on_the_plane(model):
    assert all(vanishes(x) for x in model.W + model.W.T)
    # c3 = r cos(theta) is the height at which the rolling rim point has no vertical velocity.
    assert vanishes(model.slip[2])


def test_constraint_entries_are_the_no_slip_rows(model):
    entries = _constraint_entries(r, s_th, c_th, s_psi, c_psi)
    assert all(vanishes(exact(x) - a) for x, a in zip(entries, model.A))


# The assembly helpers build the unit disk's system; there g stands for g/r.
UNIT_DISK = {m: 1, r: 1}


def test_drift_entries_are_the_rate_of_the_contact_rows(model):
    entries = _drift_entries(s_th, c_th, s_psi, c_psi, DQ[2:5])
    assert all(vanishes(exact(x) - d) for x, d in zip(entries, model.drift.xreplace(UNIT_DISK)))


def test_mass_entries_are_the_mass_of_the_euler_lagrange_equations(model):
    entries = _mass_entries(s_th)
    assert all(vanishes(exact(x) - e) for x, e in zip(entries, model.G.xreplace(UNIT_DISK)))


def test_force_entries_are_the_force_of_the_euler_lagrange_equations(model):
    # The helper takes sin(2 theta) as an argument of its own.
    entries = _force_entries(g, s_th, c_th, 2 * s_th * c_th, DQ[2:5])
    assert all(vanishes(exact(x) - e) for x, e in zip(entries, model.f.xreplace(UNIT_DISK)))


def test_the_disk_solves_the_unit_disks_system_scaled_back(model):
    # The disk's M x = b is the unit disk's M1 y = b1 (m = r = 1, gravity g/r,
    # center rates dc/r) with x = S y, lambda = m r y[0:2] and ddc = r y[2:4],
    # and each row times r (contact), m r (center) or m r^2 (angles).
    unit = {**UNIT_DISK, g: g / r, DQ[0]: DQ[0] / r, DQ[1]: DQ[1] / r}
    S = sp.diag(m * r, m * r, r, r, 1, 1, 1)
    rows = sp.diag(r, r, m * r, m * r, m * r**2, m * r**2, m * r**2)
    assert all(vanishes(x) for x in model.M * S - rows * model.M.xreplace(unit))
    assert all(vanishes(x) for x in model.b - rows * model.b.xreplace(unit))


def test_determinant_of_the_augmented_matrix(model):
    # M is polynomial in the sines and cosines (A's denominators are cleared),
    # so its determinant reduces as it stands.
    det = model.M.det(method="berkowitz")
    assert canonical(det - sp.Rational(15, 32) * m**3 * r**6 * c_th**2) == 0


def closed_form_angle_accels():
    """(ddphi, ddtheta, ddpsi) as the docstring of dynamics writes them."""
    dphi, dtheta, dpsi = DQ[2:]
    return (
        2 * dphi * dtheta * s_th / c_th + sp.Rational(5, 3) * dtheta * dpsi * c_th,
        sp.Rational(4, 5) * g * s_th / r - sp.Rational(6, 5) * dphi * dpsi * c_th
        + dpsi**2 * s_th * c_th,
        2 * dphi * dtheta / c_th,
    )


def test_closed_forms_of_the_dynamics_docstring_solve_the_derived_system(model):
    assert all(vanishes(x) for x in residual(model, closed_form_angle_accels(), DQ[2:]))


def test_the_rates_follow_a_hypergeometric_equation_in_the_sine_of_the_stand_angle():
    # ddphi and ddpsi are both proportional to dtheta, so along any motion
    # (dphi, dpsi) solves a linear ODE in theta. Put dpsi = y(x), x = sin(theta),
    # with y0, y1, y2 = y, y', y''; then d/dtheta = cos(theta) d/dx.
    dphi, dtheta, dpsi = DQ[2:]
    ddphi, _, ddpsi = closed_form_angle_accels()
    dphi_dtheta, dpsi_dtheta = sp.cancel(ddphi / dtheta), sp.cancel(ddpsi / dtheta)
    assert dtheta not in dphi_dtheta.free_symbols | dpsi_dtheta.free_symbols
    y0, y1, y2, x = sp.symbols("y0 y1 y2 x", real=True)
    # dpsi/dtheta = cos(theta) y1 fixes dphi; then dphi/dtheta along theta, by the chain rule.
    (dphi_of_y,) = sp.solve(c_th * y1 - dpsi_dtheta, dphi)
    along = partial(dphi_of_y, theta) + sp.diff(dphi_of_y, y0) * c_th * y1 + sp.diff(dphi_of_y, y1) * c_th * y2
    ode = (1 - x**2) * y2 - 4 * x * y1 - sp.Rational(10, 3) * y0
    assert vanishes(along - dphi_dtheta.subs({dphi: dphi_of_y, dpsi: y0}) - c_th / 2 * ode.subs(x, s_th))

    # With z = (1 -+ x)/2 that is Gauss's equation with c = 2, a + b = 3 and
    # ab = 10/3, solved by F(a, b; 2; z); d^n F/dz^n is (a)_n (b)_n / (2)_n
    # F(a + n, b + n; 2 + n; z) (DLMF 15.5.2) and dz/dx = -+1/2. The residual
    # read at most 1.1e-30 of the equation's largest term.
    solves = sp.lambdify([x, y0, y1, y2], ode, "mpmath")
    with mpmath.workdps(30):
        a = mpmath.mpf(3) / 2 + 1j * mpmath.sqrt(mpmath.mpf(13) / 12)
        b = mpmath.conj(a)
        for sign in (-1, 1):
            for at in map(mpmath.mpf, ("-0.9", "-0.4", "0", "0.3", "0.8")):
                z = (1 + sign * at) / 2
                y = [mpmath.rf(a, n) * mpmath.rf(b, n) / mpmath.rf(2, n) * (sign / mpmath.mpf(2)) ** n
                     * mpmath.hyp2f1(a + n, b + n, 2 + n, z) for n in range(3)]
                largest = max(abs((1 - at**2) * y[2]), abs(4 * at * y[1]), abs(10 * y[0] / 3))
                assert abs(solves(at, *y)) <= mpmath.mpf("1e-25") * largest, (sign, at)


def test_circular_spin_keeps_the_stand_angle_steady(model):
    # No angle accelerates at the spin of dynamics.circular_spin: det M is
    # nonzero, so that is the solution, and theta stays put.
    assert all(vanishes(x) for x in residual(model, (0, 0, 0), circular_rates()))

@pytest.fixture(scope="module")
def lambdified_errors(model):
    """Largest difference between each math-calling function and its
    lambdified derivation over sample_state draws at two disks, relative to
    the largest derived value."""
    def numeric(args, expr):
        return sp.lambdify(args, expr.xreplace(UNTRIG), "numpy")

    # The spin at which nothing accelerates, with no stand rate, solved from the theta row.
    stand_row = residual(model, (0, 0, 0), circular_rates(DQ[2]))[5]
    (spin,) = sp.solve(canonical(sp.fraction(sp.together(stand_row))[0]), DQ[2])
    rotation = numeric([Q[2:]], model.R)
    omega = numeric([Q[2:], DQ[2:]], model.omega)
    L = numeric([Q, DQ, PARAMS], model.L)
    potential = m * g * r * c_th
    kinetic, gravity = numeric([Q, DQ, PARAMS], model.L + potential), numeric([Q, PARAMS], potential)
    kinetic_gradient = numeric([Q, DQ, PARAMS], sp.Matrix(
        [partial(model.L + potential, x) for x in Q] + [sp.diff(model.L, dx) for dx in DQ]))
    center_rates = numeric([Q, DQ[2:], PARAMS], model.center_rates)
    lhs = numeric([Q, DQ, DDQ, PARAMS], model.lhs)
    steady_spin = numeric([theta, DQ[4], PARAMS], spin)
    matrix, vector = numeric([Q, PARAMS], model.M), numeric([Q, DQ, PARAMS], model.b)

    def pairs(q, v, a, p):
        params, angles, rates = (p.m, p.g, p.r), q[2:], v[2:]
        solution = np.linalg.solve(matrix(q, params), np.ravel(vector(q, v, params)))
        return {
            "euler_rotation": (euler_rotation(angles), rotation(angles)),
            "rotation_vector": (rotation_vector(angles, rates), omega(angles, rates)),
            "lagrangian": (lagrangian(q, v, p), L(q, v, params)),
            "kinetic_energy": (kinetic_energy(q, v, p), kinetic(q, v, params)),
            "kinetic_energy_gradient": (
                complex_step_gradient(lambda x: kinetic_energy(x[:5], x[5:], p), [*q, *v]),
                kinetic_gradient(q, v, params)),
            "potential_energy": (potential_energy(q, p), gravity(q, params)),
            "consistent_velocity": (consistent_velocity(q, rates, p)[:2], center_rates(q, rates, params)),
            "closed_form_accels": (closed_form_accels(q, rates, p), solution[4:7]),
            "closed_form_center_accels": (closed_form_center_accels(q, rates, p), solution[2:4]),
            "circular_spin": (circular_spin(q[3], v[4], p), steady_spin(q[3], v[4], params)),
            "oracle_lhs": (oracle_lhs(q, v, a, p), lhs(q, v, a, params)),
        }

    rng = np.random.default_rng(2311)
    got, want = {}, {}
    for p in (Params(), Params(m=2.0, r=0.37)):
        for _ in range(200):
            q, v = sample_state(rng)
            for name, (x, y) in pairs(q, v, rng.uniform(-3.0, 3.0, 5), p).items():
                got.setdefault(name, []).append(np.ravel(np.asarray(x, dtype=float)))
                want.setdefault(name, []).append(np.ravel(np.asarray(y, dtype=float)))
    return {name: float(np.max(np.abs(np.subtract(got[name], want[name])))
                        / np.max(np.abs(want[name]))) for name in got}


@pytest.mark.parametrize("name", [
    "lagrangian", "kinetic_energy", "kinetic_energy_gradient", "potential_energy", "rotation_vector", "euler_rotation",
    "consistent_velocity", "closed_form_accels", "closed_form_center_accels", "circular_spin", "oracle_lhs",
])
def test_math_calling_function_matches_the_lambdified_derivation(lambdified_errors, name):
    assert lambdified_errors[name] <= LAMBDIFIED_BAR, f"{name}: {lambdified_errors[name]:.3e}"


# |cos theta| from validate's edge, |theta| = 1.2, down to just outside the
# flat-disk cutoff of rollingdisk.singularity.
BAND_ROWS = (0.36, 1e-2, 1e-3, 1e-4, 1e-5, 2e-6, 1.1e-6)


def test_closed_forms_hold_to_the_extended_precision_solve_down_to_the_cutoff(model):
    # The derived M x = b solved at 50 digits on the float inputs is the
    # reference; the closed forms are not written out again for it. On the
    # unit disk (m = 1, g/r = 9.81), with theta = +-acos|cos theta| in turn,
    # the rows' worst read 2.0e-16 to 3.3e-16 (at 1.1e-6). The two linear
    # routes solve a float M whose condition grows as 1/cos^2(theta); times
    # cos^2(theta), their worst over the rows reads 1.94e-15 (solve_system)
    # and 1.95e-15 (solve_oracle_system), a tenth of the bar.
    matrix = sp.lambdify([Q, PARAMS], model.M.xreplace(UNTRIG), "mpmath")
    vector = sp.lambdify([Q, DQ, PARAMS], model.b.xreplace(UNTRIG), "mpmath")
    p = Params(m=1.0)
    params = (p.m, p.g, p.r)
    rng = np.random.default_rng(7)
    worst, scaled = {}, {}
    for cos_theta in BAND_ROWS:
        for k in range(20):
            q, v = sample_state(rng)
            q = (*q[:3], math.copysign(math.acos(cos_theta), 0.5 - k % 2), q[4])
            v = consistent_velocity(q, v[2:], p)
            with mpmath.workdps(50):
                want = [float(x) for x in mpmath.lu_solve(matrix(q, params), vector(q, v, params))]
            error = max_rel_diff(closed_form_solution(q, v[2:], p), want)
            worst[cos_theta] = max(worst.get(cos_theta, 0.0), error)
            for route in (solve_system, solve_oracle_system):
                key = (route.__name__, cos_theta)
                scaled[key] = max(scaled.get(key, 0.0), max_rel_diff(route(q, v, p), want) * cos_theta**2)
    assert max(worst.values()) <= 1e-14, worst
    assert max(scaled.values()) <= 2e-14, scaled
