import numpy as np
import pytest

import sparsecontrol as sc
from sparsecontrol.grid import like
from sparsecontrol.l1ball import l1_directional_derivative

from conftest import linear_1d_spec, random_control, schloegl_spec


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


def test_cone_zero_direction_is_member(active_solve):
    spec, report = active_solve
    v = like(report.u, np.zeros_like(report.u.values))
    cone = sc.cone_membership(spec, report.u, report.phi, report.mu, v, 0.0)
    assert cone.member
    assert cone.first_order_change == 0.0


def test_cone_gradient_kernel_unconstrained():
    spec = linear_1d_spec(gamma=1e9)
    report = sc.solve(spec, sc.OptimizerConfig(tol=1e-12, max_iter=2000))
    assert report.converged
    rng = np.random.default_rng(5)
    raw = random_control(spec, rng)
    g = like(report.u, report.phi.values + spec.kappa * report.u.values)
    g_norm = sc.l2_inner(g, g)
    coef = sc.l2_inner(g, raw) / g_norm if g_norm > 0 else 0.0
    v = like(raw, raw.values - coef * g.values)
    cone = sc.cone_membership(spec, report.u, report.phi, report.mu, v,
                              tau=1e-9)
    assert cone.member


def test_cone_verdict_matches_direct_transcription(active_solve):
    spec, report = active_solve
    rng = np.random.default_rng(7)
    w = spec.grid.cell_weight
    tau = 0.1
    for _ in range(5):
        v = random_control(spec, rng)
        cone = sc.cone_membership(spec, report.u, report.phi, report.mu, v, tau)
        # independent re-implementation of the three inequalities
        bound = tau * sc.l2_norm(v)
        change = sc.l2_inner(
            like(v, report.phi.values + spec.kappa * report.u.values), v)
        verdict = abs(change) <= bound
        for m in range(report.u.n_slices):
            l1 = w * np.sum(np.abs(report.u.values[m]))
            if abs(l1 - spec.gamma) > 1e-8 * spec.gamma:
                continue
            jp = l1_directional_derivative(report.u.values[m], v.values[m], w)
            mu_inf = np.max(np.abs(report.mu.values[m]))
            if mu_inf > 1e-8 * spec.gamma:
                verdict = verdict and abs(jp) <= bound
            else:
                verdict = verdict and jp <= bound
        assert cone.member == verdict


def test_coercivity_probe_without_reaction():
    spec = linear_1d_spec(gamma=1e6)
    report = sc.solve(spec, sc.OptimizerConfig(tol=1e-10, max_iter=2000))
    probe = sc.coercivity_probe(spec, report.u, sample_count=12, tau=1e3,
                                seed=11)
    assert probe.accepted > 0
    assert probe.min_quotient >= spec.kappa - 1e-10


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


def test_probe_is_reproducible(active_solve):
    spec, report = active_solve
    a = sc.coercivity_probe(spec, report.u, sample_count=6, tau=1e3, seed=13)
    b = sc.coercivity_probe(spec, report.u, sample_count=6, tau=1e3, seed=13)
    assert a.quotients == b.quotients
    assert a.sampling == b.sampling


def test_probe_reports_empty_filter(active_solve):
    spec, report = active_solve
    probe = sc.coercivity_probe(spec, report.u, sample_count=3, tau=0.0,
                                seed=17)
    # tau = 0 rejects every sampled direction; reported, not fatal
    assert probe.min_quotient is None
    assert probe.accepted == 0
    assert probe.sampled > 0
