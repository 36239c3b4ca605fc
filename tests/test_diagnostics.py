from dataclasses import replace

import numpy as np
import pytest

import sparsecontrol as sc
from sparsecontrol.grid import like

from conftest import (linear_1d_spec, random_control, schloegl_spec,
                      with_clamp)


def make_pair(grid, tgrid, u_values, mu_values):
    u = sc.field_per_interval(grid, tgrid, u_values)
    mu = sc.field_per_interval(grid, tgrid, mu_values)
    return u, mu


@pytest.mark.parametrize("n_dim, n, n_t", [(2, 32, 4), (1, 200, 200),
                                           (2, 12, 24), (2, 10, 4)])
def test_classify_matches_per_slice_norms(n_dim, n, n_t):
    # the row reductions equal per-slice loops bit for bit
    grid = sc.SpaceGrid(n_dim, n)
    tgrid = sc.TimeGrid(1.0, n_t)
    rng = np.random.default_rng(n)
    shape = (n_t, grid.n_nodes)
    mu_values = rng.standard_normal(shape) * (rng.random(shape) < 0.3)
    mu_values[::2] = 0.0
    u, mu = make_pair(grid, tgrid, rng.standard_normal(shape), mu_values)
    w = grid.cell_weight
    l1 = np.array([w * np.sum(np.abs(u.values[m])) for m in range(n_t)])
    mu_inf = np.array([np.max(np.abs(mu.values[m])) for m in range(n_t)])
    gamma = float(np.median(l1))
    act = sc.classify_slices(u, mu, gamma)
    assert np.array_equal(act.l1_norms, l1)
    binding = np.abs(l1 - gamma) <= act.tol
    assert np.array_equal(act.multiplier_active, binding & (mu_inf > act.tol))


def test_classify_trivial_regimes():
    grid = sc.SpaceGrid(1, 4)
    tgrid = sc.TimeGrid(1.0, 3)
    w = grid.cell_weight
    gamma = 1.0
    binding_slice = np.full(4, gamma / (4 * w))
    u_values = np.stack([np.zeros(4), binding_slice, binding_slice])
    mu_values = np.stack([np.zeros(4), np.zeros(4), np.full(4, 0.3)])
    u, mu = make_pair(grid, tgrid, u_values, mu_values)
    act = sc.classify_slices(u, mu, gamma)
    assert list(act.binding) == [False, True, True]
    assert list(act.multiplier_active) == [False, False, True]
    assert act.n_multiplier_active == 1
    # multiplier-active implies binding by construction
    assert np.all(act.binding[act.multiplier_active])


def test_classify_huge_budget_never_binds():
    spec = schloegl_spec()
    rng = np.random.default_rng(3)
    u = random_control(spec, rng)
    mu = like(u, np.zeros_like(u.values))
    act = sc.classify_slices(u, mu, 1e9)
    assert not act.binding.any()


def test_classify_idempotent_and_pure(active_solve):
    spec, report = active_solve
    one = sc.classify_slices(report.u, report.mu, spec.gamma)
    two = sc.classify_slices(report.u, report.mu, spec.gamma)
    assert np.array_equal(one.binding, two.binding)
    assert np.array_equal(one.multiplier_active, two.multiplier_active)
    assert np.array_equal(one.l1_norms, two.l1_norms)


def test_solver_activity_support_structure(active_solve):
    # on multiplier-active slices the control support sits where |mu| peaks
    spec, report = active_solve
    for m in range(report.u.n_slices):
        if not report.activity.multiplier_active[m]:
            continue
        mu_slice = np.abs(report.mu.values[m])
        peak = mu_slice.max()
        support = np.abs(report.u.values[m]) > 0
        assert np.all(mu_slice[support] >= peak - 1e-7)


def test_coercivity_probe_impulse_direction(active_solve):
    # a single-node impulse: the quotient is kappa plus the tracking
    # curvature along the linearized response, evaluated directly
    spec, report = active_solve
    values = np.zeros_like(report.u.values)
    values[3, 17] = 1.0
    v = like(report.u, values)
    norm = sc.l2_norm(v)
    v = like(v, v.values / norm)
    q = sc.eval_curvature(spec, report.u, v)
    y = sc.solve_state(spec, report.u)
    phi = sc.solve_adjoint(spec, y)
    z = sc.solve_linearized(spec, y, v)
    weight = 1.0 - sc.eval_ayy(spec.nonlinearity, y.values[1:]) * phi.values
    dt, w = spec.tgrid.dt, spec.grid.cell_weight
    tracking = dt * w * float(np.sum(weight * z.values[1:] ** 2))
    assert q == pytest.approx(spec.kappa + tracking, rel=1e-12)


def test_quotient_sign_symmetric(active_solve):
    # Q is quadratic, so v and -v give the same Rayleigh quotient
    spec, report = active_solve
    rng = np.random.default_rng(13)
    v = random_control(spec, rng)
    v = like(v, v.values / sc.l2_norm(v))
    assert sc.eval_curvature(spec, report.u, v) == pytest.approx(
        sc.eval_curvature(spec, report.u, like(v, -v.values)), rel=1e-13)


def one_mode_family(n, gamma):
    """The y0 = 2 x one-mode Schloegl family: a negative curvature weight
    at the solution."""
    spec = schloegl_spec(n=n, n_t=6, diff=0.1, gamma=gamma, yd="zero")
    spec = replace(spec, y0=2.0 * spec.y0)
    report = sc.solve(spec, sc.OptimizerConfig(tol=1e-10, max_iter=400))
    assert report.converged and report.truncation_inactive
    return spec, report


def exact_subspace_minimum(spec, report):
    """Smallest eigenvalue of the dense reduced Hessian on the linear hull
    of the critical cone, built column by column, independently of the
    bound's projection."""
    u = report.u.values
    n = u.size
    columns = [sc.hessian_vector(spec, report.y, report.phi,
                                 like(report.u, e.reshape(u.shape))).values
               for e in np.eye(n)]
    hessian = np.array([c.ravel() for c in columns]).T
    active = report.activity.multiplier_active
    free = np.ones(u.shape, dtype=bool)
    free[active] = u[active] != 0.0
    basis = np.eye(n)[:, free.ravel()]
    constraints = [np.where(np.arange(u.shape[0])[:, None] == m, np.sign(u),
                            0.0).ravel() for m in np.flatnonzero(active)]
    if constraints:
        _, sigma, vt = np.linalg.svd(np.array(constraints) @ basis)
        basis = basis @ vt[int(np.sum(sigma > 1e-12)):].T
    reduced = basis.T @ hessian @ basis
    return np.linalg.eigvalsh(0.5 * (reduced + reduced.T))[0]


@pytest.mark.parametrize("n, gamma", [(3, 0.05), (4, 0.05), (4, 0.2),
                                      (5, 0.1)])
def test_second_order_bound_below_the_exact_subspace_minimum(n, gamma):
    spec, report = one_mode_family(n, gamma)
    assert sc.curvature_weight(spec, report.y, report.phi).min() < 0.0
    bound = sc.second_order_bound(spec, report)
    exact = exact_subspace_minimum(spec, report)
    assert 0.95 * exact <= bound <= exact
    held = list(report.factors)
    assert sc.second_order_bound(spec, report) == bound
    # the report's held factors are not replaced
    assert all(a is b for a, b in zip(report.factors, held))


def test_second_order_bound_is_kappa_where_the_weight_is_nonnegative(
        active_solve, splu_calls):
    # the canonical active instance has weight >= 1 everywhere: the closed
    # form needs no sweep and no factorization
    spec, report = active_solve
    assert sc.curvature_weight(spec, report.y, report.phi).min() >= 0.0
    assert sc.second_order_bound(spec, report) == spec.kappa
    linear = linear_1d_spec(gamma=0.05)
    solved = sc.solve(linear, sc.OptimizerConfig(tol=1e-10))
    del splu_calls[:]
    assert sc.second_order_bound(linear, solved) == linear.kappa
    assert not splu_calls


@pytest.mark.parametrize("kappa, gamma, dimension", [(0.1, 0.05, 0),
                                                     (1.0, 10.0, 1)])
def test_second_order_bound_on_one_unknown(kappa, gamma, dimension):
    # one node and one step, negative weight: ARPACK cannot run on one
    # unknown, so the bound comes from the dense 1 x 1 operator.  The hull
    # is empty on the multiplier-active slice and the whole line otherwise
    grid, tgrid = sc.SpaceGrid(1, 1), sc.TimeGrid(1.0, 1)
    spec = sc.ProblemSpec(
        kappa=kappa, gamma=gamma, grid=grid, tgrid=tgrid,
        diffusion=sc.isotropic(1, 0.1),
        nonlinearity=sc.NonlinearitySpec("schloegl", (-1.0, 0.0, 1.0)),
        y0=sc.spatial_preset("constant(2)", grid),
        yd=sc.target_preset("zero", grid, tgrid))
    report = sc.solve(spec, sc.OptimizerConfig())
    assert report.converged
    assert sc.curvature_weight(spec, report.y, report.phi).min() < 0.0
    assert report.activity.n_multiplier_active == 1 - dimension
    bound = sc.second_order_bound(spec, report)
    if dimension == 0:
        assert bound == kappa
    else:
        v = like(report.u, np.ones((1, 1)))
        quotient = (sc.curvature_with_state(spec, report.y, report.phi, v)
                    / sc.l2_inner(v, v))
        assert np.isfinite(bound) and bound <= quotient * (1.0 + 1e-12)
        assert bound < kappa


@pytest.mark.filterwarnings("ignore::sparsecontrol.pde.TruncationActiveWarning")
def test_second_order_bound_refuses_an_engaged_clamp():
    spec = with_clamp(schloegl_spec(), 0.05)
    report = sc.solve(spec, sc.OptimizerConfig(max_iter=3))
    assert not report.truncation_inactive
    with pytest.raises(ValueError, match="clamp level 0.05"):
        sc.second_order_bound(spec, report)
