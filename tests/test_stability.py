import numpy as np
import pytest

import sparsecontrol as sc
from sparsecontrol import pde
from sparsecontrol.grid import like
from sparsecontrol.stability import fit_rate, rescale_into_ball

from conftest import active_schloegl_spec, schloegl_spec


def test_fit_rate_exact_linear():
    deltas = np.array([0.01, 0.03, 0.1, 0.4])
    exponent, constant = fit_rate(list(zip(deltas, 2.0 * deltas)))
    assert exponent == pytest.approx(1.0, abs=1e-12)
    assert constant == pytest.approx(2.0, rel=1e-12)


def test_fit_rate_exact_square_root():
    deltas = np.array([0.01, 0.05, 0.2, 1.0])
    exponent, constant = fit_rate(list(zip(deltas, 3.0 * np.sqrt(deltas))))
    assert exponent == pytest.approx(0.5, abs=1e-12)
    assert constant == pytest.approx(3.0, rel=1e-12)


def test_fit_rate_noisy_synthetic():
    rng = np.random.default_rng(19)
    deltas = np.logspace(-3, -1, 8)
    noise = 1.0 + 0.01 * rng.standard_normal(8)
    exponent, _ = fit_rate(list(zip(deltas, 0.7 * np.sqrt(deltas) * noise)))
    assert abs(exponent - 0.5) <= 0.02


def test_fit_rate_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_rate([(0.1, 0.2), (0.2, 0.3)])
    with pytest.raises(ValueError):
        fit_rate([(0.1, 0.2), (0.2, 0.0), (0.3, 0.4)])


def test_rescale_into_ball():
    grid = sc.SpaceGrid(1, 3)
    tgrid = sc.TimeGrid(1.0, 2)
    u = sc.field_per_interval(grid, tgrid, np.full((2, 3), 2.0))
    shrunk = rescale_into_ball(u, 1.0, 0.25)
    assert np.allclose(shrunk.values, 0.5)
    kept = rescale_into_ball(u, 1.0, 4.0)
    assert np.array_equal(kept.values, u.values)


def test_self_distance_zero(active_solve):
    spec, _ = active_solve
    cfg = sc.OptimizerConfig(tol=1e-11, max_iter=400)
    report = sc.gamma_sweep(spec, [spec.gamma], cfg)
    assert report.converged
    assert report.distances == [0.0]


def test_warm_start_agrees_with_cold_start(active_solve):
    spec, base = active_solve
    cfg = sc.OptimizerConfig(tol=1e-11, max_iter=400)
    for gamma in (0.045, 0.04):
        target = active_schloegl_spec(gamma=gamma)
        cold = sc.solve(target, cfg)
        warm_start = rescale_into_ball(base.u, spec.gamma, gamma)
        warm = sc.solve(target, sc.OptimizerConfig(tol=1e-11, max_iter=400,
                                                   u0=warm_start))
        assert cold.converged and warm.converged
        gap = sc.l2_norm(like(cold.u, cold.u.values - warm.u.values))
        assert gap <= 1e-9


def test_inactive_regime_sweep(active_solve):
    spec = active_schloegl_spec(gamma=1e6)
    cfg = sc.OptimizerConfig(tol=1e-10, max_iter=400)
    report = sc.gamma_sweep(spec, [1e6, 9e5, 1.2e6], cfg)
    assert report.converged
    assert report.regime == "inactive"
    assert all(d <= 10.0 * cfg.tol for d in report.distances)
    assert report.exponent is None
    assert any("fit skipped" in w for w in report.warnings)


def test_active_sweep_distances_monotone(active_solve):
    spec, _ = active_solve
    cfg = sc.OptimizerConfig(tol=1e-11, max_iter=400)
    gammas = [spec.gamma - d for d in (0.002, 0.006, 0.018)]
    report = sc.gamma_sweep(spec, gammas, cfg)
    assert report.converged
    assert report.regime == "active"
    deltas = np.abs(np.array(report.gammas) - spec.gamma)
    order = np.argsort(deltas)
    dists = np.array(report.distances)[order]
    assert np.all(np.diff(dists) >= -1e-9)
    assert not any("monotone" in w for w in report.warnings)
    # three points over under 1.5 decades: fit is skipped by policy
    assert report.exponent is None


def test_sweep_builds_one_step_system(monkeypatch):
    # every budget shares the base problem's step system
    built = []
    init = pde.StepSystem.__init__

    def counting_init(self, spec):
        built.append(spec.gamma)
        init(self, spec)

    monkeypatch.setattr(pde.StepSystem, "__init__", counting_init)
    spec = schloegl_spec(n=6, n_t=6, gamma=0.05)
    report = sc.gamma_sweep(spec, [0.05, 0.045, 0.04],
                            sc.OptimizerConfig(tol=1e-8, max_iter=400))
    assert report.converged
    assert built == [0.05]
