import warnings

import numpy as np
import pytest

import sparsecontrol as sc
from sparsecontrol.grid import like
from sparsecontrol import optimizer
from sparsecontrol.l1ball import project_field, recover_multiplier
from sparsecontrol.pde import NewtonError, TruncationActiveWarning

from conftest import (Y0_ONLY_CLAMP_LEVEL, active_schloegl_spec,
                      linear_1d_spec, random_control, schloegl_spec,
                      with_clamp)


def test_config_validation():
    with pytest.raises(ValueError):
        sc.OptimizerConfig(tol=-1.0)
    with pytest.raises(ValueError):
        sc.OptimizerConfig(max_iter=-1)


def test_initial_state_failure_propagates(monkeypatch):
    # only line-search trials are rejected on a Newton failure
    def failing_state(spec, u):
        raise NewtonError("no implicit step solution")

    monkeypatch.setattr(optimizer, "solve_state", failing_state)
    with pytest.raises(NewtonError):
        sc.solve(schloegl_spec())


def test_stationary_start_stops_immediately():
    spec = schloegl_spec()
    y = sc.solve_state(spec, sc.field_per_interval(spec.grid, spec.tgrid))
    matched = sc.ProblemSpec(
        kappa=spec.kappa, gamma=spec.gamma, grid=spec.grid, tgrid=spec.tgrid,
        diffusion=spec.diffusion, nonlinearity=spec.nonlinearity,
        y0=spec.y0, yd=y)
    report = sc.solve(matched, sc.OptimizerConfig(tol=1e-10))
    assert report.converged
    assert report.iterations <= 1
    assert np.all(report.u.values == 0.0)


def test_tiny_budget_forces_zero_control():
    spec = active_schloegl_spec(gamma=1e-12)
    report = sc.solve(spec, sc.OptimizerConfig(tol=1e-8, max_iter=200))
    assert report.converged
    zero = sc.field_per_interval(spec.grid, spec.tgrid)
    j_zero = sc.eval_J(spec, zero)
    assert sc.l2_norm(report.u) <= 1e-9
    assert report.objective == pytest.approx(j_zero, rel=1e-6)


def test_iteration_cap_reports_nonconvergence():
    spec = active_schloegl_spec()
    report = sc.solve(spec, sc.OptimizerConfig(tol=1e-11, max_iter=1))
    assert not report.converged
    assert "cap" in report.message
    assert report.kkt is not None


def test_low_kappa_converges():
    # kappa 1e-4 scales J badly; the spectral step converges in about a
    # dozen iterations, so the cap of 50 catches a step rule that stalls
    spec = schloegl_spec(n=10, n_t=8, kappa=1e-4, gamma=0.05, diff=0.3,
                         y0="zero", yd="bump")
    report = sc.solve(spec, sc.OptimizerConfig(tol=1e-8, max_iter=50))
    assert report.converged
    assert report.kkt.max() <= 1e-6
    assert report.kkt.identity_gap <= 1e-7


def test_descent_is_monotone(active_solve):
    _, report = active_solve
    j = np.array(report.j_history)
    assert np.all(np.diff(j) <= 1e-12 * np.maximum(1.0, np.abs(j[:-1])))


def test_converged_kkt_residuals_small(active_solve):
    _, report = active_solve
    assert report.kkt.max() <= 10.0 * 1e-11 * max(1.0, sc.l2_norm(report.u)) \
        or report.kkt.max() <= 1e-9


def test_slice_dichotomy(active_solve):
    spec, report = active_solve
    for m in range(report.u.n_slices):
        l1 = report.activity.l1_norms[m]
        lam = report.thresholds[m]
        assert (l1 >= spec.gamma - 1e-8 and lam > 0.0) or lam == 0.0


def test_sparsity_characterization_nodewise(active_solve):
    spec, report = active_solve
    tol = 1e-7
    mu_infs = np.max(np.abs(report.mu.values), axis=1)
    for m, mu_inf in enumerate(mu_infs):
        phi_abs = np.abs(report.phi.values[m])
        zero = report.u.values[m] == 0.0
        assert np.all(phi_abs[zero] <= mu_inf + tol)
        assert np.all(phi_abs[~zero] >= mu_inf - tol)


def test_active_threshold_identity(active_solve):
    spec, report = active_solve
    mu_infs = np.max(np.abs(report.mu.values), axis=1)
    for lam, mu_inf in zip(report.thresholds, mu_infs):
        if lam > 0.0:
            assert spec.kappa * lam == pytest.approx(mu_inf, rel=1e-8)


def test_multiplier_active_slices_have_thresholds(active_solve):
    _, report = active_solve
    active = report.activity.multiplier_active
    assert np.all(report.thresholds[active] > 0.0)


def test_kkt_residuals_on_constructed_fixed_point():
    spec = active_schloegl_spec()
    rng = np.random.default_rng(41)
    phi = sc.field_per_interval(spec.grid, spec.tgrid,
                                rng.standard_normal((spec.tgrid.n_t,
                                                     spec.grid.n_nodes)))
    u, _ = project_field(like(phi, -phi.values / spec.kappa), spec.gamma)
    mu = recover_multiplier(u, phi, spec.kappa)
    y = sc.solve_state(spec, u)
    bundle = sc.kkt_residuals(spec, u, y, phi, mu)
    assert bundle.max() <= 1e-10


def test_kkt_residuals_interior_point():
    spec = schloegl_spec(gamma=1e9)
    rng = np.random.default_rng(43)
    phi = random_control(spec, rng)
    u = like(phi, -phi.values / spec.kappa)
    mu = like(u, np.zeros_like(u.values))
    y = sc.solve_state(spec, u)
    bundle = sc.kkt_residuals(spec, u, y, phi, mu)
    # zero up to the rounding of kappa * (phi/kappa)
    assert bundle.max() <= 1e-14


def test_huge_budget_kkt_at_roundoff():
    # acceptance criterion 6's unconstrained instance: slack_gap is relative
    # to gamma, so a budget that never binds reads roundoff there
    report = sc.solve(linear_1d_spec(gamma=1e9),
                      sc.OptimizerConfig(tol=1e-12, max_iter=3000))
    assert report.converged
    assert report.kkt.max() <= 1e-10


def test_kkt_feasible_but_not_stationary():
    spec = active_schloegl_spec()
    rng = np.random.default_rng(45)
    raw = random_control(spec, rng)
    u, _ = project_field(raw, spec.gamma)
    y = sc.solve_state(spec, u)
    phi = sc.solve_adjoint(spec, y)
    mu = recover_multiplier(u, phi, spec.kappa)
    bundle = sc.kkt_residuals(spec, u, y, phi, mu)
    assert bundle.feasibility <= 1e-12
    assert bundle.stationarity > 1e-3


def test_truncation_inactive_flag(active_solve):
    _, report = active_solve
    assert report.truncation_inactive


def test_truncation_inactive_ignores_initial_state():
    spec = with_clamp(schloegl_spec(), Y0_ONLY_CLAMP_LEVEL)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationActiveWarning)
        report = sc.solve(spec, sc.OptimizerConfig(tol=1e-8, max_iter=200))
    assert report.converged
    assert report.truncation_inactive
