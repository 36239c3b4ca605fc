"""The verification oracles: the one implementation of each, behind the
``check`` command and called by the acceptance gate and the unit tests.

Projection is checked against an independent bisection solver for the
threshold; gradient and curvature against central differences; the adjoint
against the transpose identity on the configured problem; the time stepper
against manufactured solutions.  Difference-quotient tolerances are
calibrated on fixed internal grids, so those checks run on canonical
problems; the adjoint identity is exact by construction and runs on the
user's configured problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (SpaceGrid, TimeGrid, field_per_interval, isotropic,
                   l2_inner, l2_norm, like)
from .l1ball import project_slice
from .nonlinearity import NonlinearitySpec
from .objective import eval_J, eval_curvature, eval_gradient
from .pde import NewtonError, solve_adjoint, solve_linearized, solve_state
from .presets import spatial_preset, target_preset
from .problem import ProblemSpec


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def bisect_threshold(v: np.ndarray, w: float, gamma: float,
                     iterations: int = 200) -> float:
    """Oracle for the projection threshold: bisection on
    g(lam) = w * sum max(|v|-lam, 0) - gamma over [0, max|v|]."""
    d = np.abs(np.asarray(v, dtype=float))
    if w * float(np.sum(d)) <= gamma:
        return 0.0
    lo, hi = 0.0, float(np.max(d))
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if w * float(np.sum(np.maximum(d - mid, 0.0))) > gamma:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def random_slice(rng):
    """Draw (v, w, gamma): up to 50 nodes, magnitudes over two decades, and
    a budget from a tenth of the slice's weighted l1 norm to twice it."""
    n = int(rng.integers(1, 51))
    v = rng.standard_normal(n) * 10.0 ** rng.uniform(-1, 1)
    w = float(10.0 ** rng.uniform(-1, 0.5))
    total = w * float(np.sum(np.abs(v)))
    gamma = float(total * 10.0 ** rng.uniform(-1.0, 0.3)) + 1e-12
    return v, w, gamma


def check_projection_oracle(rng, n_slices: int = 300) -> CheckResult:
    worst = 0.0
    for _ in range(n_slices):
        v, w, gamma = random_slice(rng)
        res = project_slice(v, w, gamma)
        lam = bisect_threshold(v, w, gamma)
        oracle = np.sign(v) * np.maximum(np.abs(v) - lam, 0.0)
        worst = max(worst, float(np.max(np.abs(res.values - oracle))))
        again = project_slice(res.values, w, gamma)
        if not np.array_equal(again.values, res.values):
            return CheckResult("projection-oracle", False,
                               "re-projection changed a projected slice")
    passed = worst <= 1e-10
    return CheckResult("projection-oracle", passed,
                       f"max deviation from bisection {worst:.2e} (<= 1e-10)")


def check_nonexpansive(rng, n_pairs: int = 300) -> CheckResult:
    worst = 0.0
    for _ in range(n_pairs):
        v, w, gamma = random_slice(rng)
        b = v + rng.standard_normal(v.size)
        pa = project_slice(v, w, gamma).values
        pb = project_slice(b, w, gamma).values
        lhs = np.sqrt(w * np.sum((pa - pb) ** 2))
        rhs = np.sqrt(w * np.sum((v - b) ** 2))
        worst = max(worst, float(lhs - rhs))
    passed = worst <= 1e-12
    return CheckResult("projection-nonexpansive", passed,
                       f"max norm growth {worst:.2e} (<= 1e-12)")


def _canonical_fd_spec() -> ProblemSpec:
    grid = SpaceGrid(2, 8)
    tgrid = TimeGrid(1.0, 10)
    return ProblemSpec(
        kappa=0.1, gamma=1.0, grid=grid, tgrid=tgrid,
        diffusion=isotropic(2, 1.0),
        nonlinearity=NonlinearitySpec("schloegl", (-1.0, 0.0, 1.0)),
        y0=spatial_preset("one-mode", grid),
        yd=target_preset("bump", grid, tgrid))


def _random_control(rng, spec) -> np.ndarray:
    return rng.standard_normal((spec.tgrid.n_t, spec.grid.n_nodes))


def check_adjoint_identity(spec: ProblemSpec, rng,
                           n_pairs: int = 5) -> CheckResult:
    """The transpose identity on n_pairs random (u, v) draws.  A draw whose
    state, linearized or adjoint solve fails (NewtonError, which a singular
    step matrix raises too) fails the check, by number; the other draws
    still run, so the generator advances as it would have."""
    worst = 0.0
    failed, error = [], None
    for draw in range(1, n_pairs + 1):
        u = field_per_interval(spec.grid, spec.tgrid, _random_control(rng, spec))
        v = field_per_interval(spec.grid, spec.tgrid, _random_control(rng, spec))
        try:
            y = solve_state(spec, u)
            z = solve_linearized(spec, y, v)
            phi = solve_adjoint(spec, y)
        except NewtonError as exc:     # it names the sweep and the step
            failed.append(draw)
            error = exc
            continue
        lhs = l2_inner(like(y, y.values - spec.yd.values), z)
        rhs = l2_inner(phi, v)
        scale = max(abs(lhs), abs(rhs), 1e-30)
        worst = max(worst, abs(lhs - rhs) / scale)
    if failed:
        return CheckResult(
            "adjoint-identity", False,
            f"failed on draw {', '.join(map(str, failed))} of "
            f"{n_pairs}: {error}")
    passed = worst <= 1e-10
    return CheckResult("adjoint-identity", passed,
                       f"max relative defect {worst:.2e} (<= 1e-10)")


def check_gradient_fd(rng, n_pairs: int = 3) -> CheckResult:
    spec = _canonical_fd_spec()
    eps = 1e-4
    worst = 0.0
    for _ in range(n_pairs):
        u = field_per_interval(spec.grid, spec.tgrid, _random_control(rng, spec))
        v = field_per_interval(spec.grid, spec.tgrid, _random_control(rng, spec))
        g = eval_gradient(spec, u)
        plus = eval_J(spec, like(u, u.values + eps * v.values))
        minus = eval_J(spec, like(u, u.values - eps * v.values))
        fd = (plus - minus) / (2.0 * eps)
        exact = l2_inner(g, v)
        worst = max(worst, abs(fd - exact) / max(abs(exact), 1e-30))
    passed = worst <= 1e-6
    return CheckResult("gradient-fd", passed,
                       f"max relative error {worst:.2e} (<= 1e-6) at eps={eps}")


def check_curvature_fd(rng, n_dirs: int = 3) -> CheckResult:
    spec = _canonical_fd_spec()
    eps = 1e-3
    worst = 0.0
    for _ in range(n_dirs):
        u = field_per_interval(spec.grid, spec.tgrid, _random_control(rng, spec))
        v = field_per_interval(spec.grid, spec.tgrid, _random_control(rng, spec))
        middle = eval_J(spec, u)
        plus = eval_J(spec, like(u, u.values + eps * v.values))
        minus = eval_J(spec, like(u, u.values - eps * v.values))
        fd = (plus - 2.0 * middle + minus) / eps**2
        exact = eval_curvature(spec, u, v)
        worst = max(worst, abs(fd - exact) / max(abs(exact), 1e-30))
    passed = worst <= 1e-4
    return CheckResult("curvature-fd", passed,
                       f"max relative error {worst:.2e} (<= 1e-4) at eps={eps}")


def _mms_error(n: int, n_t: int, T: float, profile) -> float:
    """Error of the stepper against y* = exp(-t) s(x) under the matching
    analytic forcing, where profile(x) gives s and -Laplace(s) at the nodes
    x of the 2D grid with n nodes per axis."""
    grid, tgrid = SpaceGrid(2, n), TimeGrid(T, n_t)
    shape, neg_laplace = profile(grid.coords())
    exact = np.exp(-tgrid.node_times())[:, None] * shape[None, :]
    decay = np.exp(-tgrid.interval_times())[:, None]
    at_right = decay * shape[None, :]
    forcing = -at_right + decay * neg_laplace[None, :] + (at_right**3 - at_right)
    spec = ProblemSpec(
        kappa=1.0, gamma=1e9, grid=grid, tgrid=tgrid,
        diffusion=isotropic(2, 1.0),
        nonlinearity=NonlinearitySpec("schloegl", (-1.0, 0.0, 1.0)),
        y0=shape, yd=target_preset("zero", grid, tgrid))
    y = solve_state(spec, field_per_interval(grid, tgrid, forcing))
    return l2_norm(like(y, y.values - exact))


def _sine(x):
    shape = np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
    return shape, 2.0 * np.pi**2 * shape


def _quadratic(x):
    q1, q2 = x[:, 0] * (1.0 - x[:, 0]), x[:, 1] * (1.0 - x[:, 1])
    return q1 * q2, 2.0 * (q1 + q2)


def mms_sine_error(n: int, n_t: int, T: float) -> float:
    """Error against y* = exp(-t) sin(pi x1) sin(pi x2); O(dt + h^2)."""
    return _mms_error(n, n_t, T, _sine)


def mms_quadratic_error(n: int, n_t: int, T: float) -> float:
    """Error against y* = exp(-t) x1(1-x1) x2(1-x2); the stencil is exact on
    quadratics, so this isolates the time discretization error."""
    return _mms_error(n, n_t, T, _quadratic)


def observed_order(errors, steps) -> list:
    return [float(np.log(errors[i] / errors[i + 1])
                  / np.log(steps[i] / steps[i + 1]))
            for i in range(len(errors) - 1)]


def check_mms_convergence() -> CheckResult:
    dt_errors = [mms_quadratic_error(8, n_t, 1.0) for n_t in (2, 4, 8)]
    dt_orders = observed_order(dt_errors, [1.0 / 2, 1.0 / 4, 1.0 / 8])
    ns = (4, 8, 16)
    h_errors = [mms_sine_error(n, 400, 0.2) for n in ns]
    h_orders = observed_order(h_errors, [1.0 / (n + 1) for n in ns])
    passed = all(o >= 0.9 for o in dt_orders) and all(o >= 1.9 for o in h_orders)
    return CheckResult(
        "mms-convergence", passed,
        f"dt orders {[f'{o:.2f}' for o in dt_orders]} (>= 0.9), "
        f"h orders {[f'{o:.2f}' for o in h_orders]} (>= 1.9)")


def run_checks(spec: ProblemSpec, seed: int) -> list[CheckResult]:
    """Run the property suite, all draws from one generator seeded with
    seed."""
    rng = np.random.default_rng(seed)
    return [
        check_projection_oracle(rng),
        check_nonexpansive(rng),
        check_adjoint_identity(spec, rng),
        check_gradient_fd(rng),
        check_curvature_fd(rng),
        check_mms_convergence(),
    ]
