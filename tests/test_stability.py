from dataclasses import replace

import numpy as np
import pytest

import sparsecontrol as sc
from sparsecontrol import pde, stability
from sparsecontrol.grid import like
from sparsecontrol.runconfig import parse_config
from sparsecontrol.stability import fit_rate

from conftest import active_schloegl_spec, factorizations, schloegl_spec


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
        warm_start = like(base.u, (gamma / spec.gamma) * base.u.values)
        warm = sc.solve(target, cfg, warm_start)
        assert cold.converged and warm.converged
        gap = sc.l2_norm(like(cold.u, cold.u.values - warm.u.values))
        assert gap <= 1e-9


def test_accepted_start_agrees_with_cold_start(active_solve):
    # a solve handed the base budget's state and adjoint, on a step system
    # that holds the base solve's factors, reaches the control of a cold
    # solve, on a copy of the problem that holds none.  The twin holds the
    # shared fixture's factors in a list of its own and leaves them alone
    spec, base = active_solve
    cfg = sc.OptimizerConfig(tol=1e-11, max_iter=400)
    held = list(spec.steps._slots)
    twin = replace(spec)
    twin.steps._slots = list(held)
    for gamma in (0.045, 0.04):
        cold = sc.solve(replace(spec, gamma=gamma), cfg)
        target = twin.with_budget(gamma)
        assert target.steps is twin.steps
        warm = sc.solve(target, cfg,
                        like(base.u, (gamma / spec.gamma) * base.u.values),
                        (base.y, base.phi))
        assert cold.converged and warm.converged
        gap = sc.l2_norm(like(cold.u, cold.u.values - warm.u.values))
        assert gap <= 1e-9
    assert all(a is b for a, b in zip(held, spec.steps._slots))


def test_sweep_factors_no_more_than_its_base_solve():
    # every budget refines on its neighbor's held factors and refactors
    # only where that fails; here it never does, so a sweep over six
    # budgets factors exactly what its base solve alone does
    cfg = sc.OptimizerConfig(tol=1e-8, max_iter=400)
    base, swept = (schloegl_spec(n=6, n_t=6, gamma=0.05) for _ in range(2))
    sc.solve(base, cfg)
    report = sc.gamma_sweep(swept, [0.06, 0.055, 0.05, 0.045, 0.04, 0.035],
                            cfg)
    assert report.converged
    assert factorizations(swept.steps) == factorizations(base.steps)


# a sweep over budgets on both sides of the base whose curvature weight is
# negative, so the second-order bound runs Lanczos
TWO_SIDED_GAMMAS = [0.08, 0.065, 0.055, 0.05, 0.045, 0.04, 0.03]


def two_sided_spec():
    return schloegl_spec(n=8, n_t=6, kappa=0.01, gamma=0.05, diff=0.1,
                         y0="constant(1.5)", yd="bump")


def test_two_sided_sweep_factors_at_most_its_count():
    # both chains start from the factors the base solve and the bound's
    # Lanczos products leave in the shared step system: 72 factorizations
    # (a bound computed after the chains refactors up to n_t more steps)
    spec = two_sided_spec()
    report = sc.gamma_sweep(spec, TWO_SIDED_GAMMAS,
                            sc.OptimizerConfig(tol=1e-8, max_iter=400))
    assert report.converged
    assert report.gammas == sorted(TWO_SIDED_GAMMAS)
    assert report.iterations == [5, 5, 6, 9, 6, 6, 7]
    assert 0.0 < report.second_order_bound < 0.01
    assert factorizations(spec.steps).total() <= 72


def test_sweep_bound_is_the_base_solves_bound_bitwise():
    # the bound is computed right after the base solve, before either chain
    # moves the shared step system away from the base state
    cfg = sc.OptimizerConfig(tol=1e-8, max_iter=400)
    spec = two_sided_spec()
    base = sc.solve(spec, cfg)
    bound = sc.second_order_bound(spec, base)
    assert bound < spec.kappa
    report = sc.gamma_sweep(two_sided_spec(), TWO_SIDED_GAMMAS, cfg)
    assert report.second_order_bound == bound


def test_first_budget_on_each_side_starts_from_the_projected_base(
        monkeypatch):
    # with only the base behind it, the secant is flat: the start is
    # -phi/kappa at the base adjoint projected onto the budget's ball, above
    # and below, with the base solve's last step as the first step
    starts = {}
    solve = stability.solve

    def recording_solve(spec, cfg, u0=None, near=None, step=None):
        run = solve(spec, cfg, u0, near, step)
        starts[spec.gamma] = (u0, step, run)
        return run

    monkeypatch.setattr(stability, "solve", recording_solve)
    spec = schloegl_spec(n=6, n_t=6, gamma=0.05)
    report = sc.gamma_sweep(spec, [0.06, 0.055, 0.05, 0.045, 0.04],
                            sc.OptimizerConfig(tol=1e-8, max_iter=400))
    assert report.converged
    first, first_step, base = starts[0.05]
    assert first is None and first_step is None
    for g in (0.055, 0.045):
        projected, _ = sc.project_field(
            like(base.phi, -base.phi.values / spec.kappa), g)
        assert np.array_equal(starts[g][0].values, projected.values)
        assert starts[g][1] == base.step_history[-1]


def test_a_base_that_takes_no_step_hands_on_solves_default(monkeypatch):
    # at a budget of 1e-9 the zero control is a fixed point to tol, so the
    # base solve converges at iteration 0 with no step taken: the first
    # budget is handed step None and takes solve's default 1/kappa first,
    # and the next one the last step that budget accepted
    calls = []
    solve = stability.solve

    def recording_solve(spec, cfg, u0=None, near=None, step=None):
        calls.append((spec.gamma, step, solve(spec, cfg, u0, near, step)))
        return calls[-1][-1]

    monkeypatch.setattr(stability, "solve", recording_solve)
    spec = schloegl_spec(n=6, n_t=6, gamma=1e-9)
    report = sc.gamma_sweep(spec, [1e-9, 0.05, 0.06],
                            sc.OptimizerConfig(tol=1e-8, max_iter=400))
    assert report.converged
    (_, _, base), (g, step, run), (_, next_step, _) = calls
    assert base.iterations == 0 and base.step_history == []
    assert g == 0.05 and step is None
    assert run.step_history[0] == 1.0 / spec.kappa
    assert next_step == run.step_history[-1]


# CI's two-sided sweep of a default problem
TWO_YAML = "problem: {yd: bump, gamma: 0.05}\n"
TWO_YAML_GAMMAS = [0.06, 0.055, 0.05, 0.045, 0.04]


def test_warm_start_is_the_projected_secant_adjoint_and_carried_step(
        monkeypatch):
    # every budget off the base starts at proj(-phi/kappa) of the secant
    # adjoint it is handed, and takes as its first step the last step its
    # neighbor accepted (or was handed, if it took none); the base budget
    # is a plain solve, bitwise
    calls = []
    solve = stability.solve

    def recording_solve(spec, cfg, u0=None, near=None, step=None):
        calls.append((spec, u0, near, step, solve(spec, cfg, u0, near, step)))
        return calls[-1][-1]

    monkeypatch.setattr(stability, "solve", recording_solve)
    cfg = sc.OptimizerConfig(tol=1e-8, max_iter=400)
    report = sc.gamma_sweep(two_sided_spec(), TWO_SIDED_GAMMAS, cfg)
    assert report.converged
    (base_spec, u0, near, step, base), *chains = calls
    assert u0 is None and near is None and step is None
    plain = sc.solve(two_sided_spec(), cfg)
    for name in ("u", "y", "phi", "mu"):
        assert (getattr(plain, name).values.tobytes()
                == getattr(base, name).values.tobytes())
    assert (plain.j_history, plain.residual_history, plain.step_history) == (
        base.j_history, base.residual_history, base.step_history)

    assert [spec.gamma for spec, *_ in chains] == [0.055, 0.065, 0.08,
                                                    0.045, 0.04, 0.03]
    for i, (spec, u0, (y, phi), step, run) in enumerate(chains):
        if i in (0, 3):     # each chain starts from the base, on a flat secant
            neighbor, neighbor_gamma, handed, slope = (
                base, base_spec.gamma, None, 0.0)
        delta = spec.gamma - neighbor_gamma
        secant = neighbor.phi.values + delta * slope
        assert phi.values.tobytes() == secant.tobytes()
        projected, _ = sc.project_field(
            like(phi, -phi.values / spec.kappa), spec.gamma)
        assert u0.values.tobytes() == projected.values.tobytes()
        assert step == (neighbor.step_history or [handed])[-1]
        slope = (run.phi.values - neighbor.phi.values) / delta
        neighbor, neighbor_gamma, handed = run, spec.gamma, step

    runconfig = parse_config(TWO_YAML)
    two = sc.gamma_sweep(runconfig.problem_spec(), TWO_YAML_GAMMAS,
                         runconfig.optimizer_config())
    assert two.converged and two.gammas == sorted(TWO_YAML_GAMMAS)
    assert sum(two.iterations) <= 10


def test_repeated_budget_is_solved_once():
    # a zero-width secant would divide by zero
    report = sc.gamma_sweep(schloegl_spec(n=6, n_t=6, gamma=0.05),
                            [0.05, 0.045, 0.045, 0.04],
                            sc.OptimizerConfig(tol=1e-8, max_iter=400))
    assert report.converged
    assert report.gammas == [0.04, 0.045, 0.05]
    assert len(report.iterations) == len(report.distances) == 3


# criterion 7's budgets below the base budget 0.05, which are also those
# of `sweep` at that budget
CRITERION_7_GAMMAS = [0.05] + [0.05 - d for d in
                               0.0005 * 10.0 ** np.linspace(0.0, 1.5, 5)]


def _iterations_against_rescaled_starts(monkeypatch, spec, cfg):
    """Sweep spec over CRITERION_7_GAMMAS; for every budget after the
    first, the sweep's solve and a solve from its neighbor rescaled into
    the ball."""
    gammas = CRITERION_7_GAMMAS
    runs = []
    solve = stability.solve

    def recording_solve(spec, cfg, *starts):
        runs.append((spec.gamma, solve(spec, cfg, *starts)))
        return runs[-1][1]

    monkeypatch.setattr(stability, "solve", recording_solve)
    report = sc.gamma_sweep(spec, gammas, cfg)
    assert report.converged
    assert [g for g, _ in runs[1:]] == sorted(gammas[1:], reverse=True)
    pairs = []
    for (g_prev, prev), (g, run) in zip(runs[1:], runs[2:]):
        rescaled = solve(spec.with_budget(g), cfg,
                         like(prev.u, (g / g_prev) * prev.u.values))
        assert rescaled.converged
        pairs.append((run, rescaled))
    return pairs


def test_secant_start_saves_iterations_on_a_linear_path(monkeypatch):
    # the benchmark's low-kappa sweep instance, on which the solution is
    # linear in gamma to 7 digits
    spec = schloegl_spec(n=10, n_t=4, kappa=2e-3, gamma=0.05, diff=0.3,
                         y0="zero", yd="bump")
    pairs = _iterations_against_rescaled_starts(
        monkeypatch, spec, sc.OptimizerConfig(tol=1e-8, max_iter=2000))
    assert len(pairs) == 4
    for run, rescaled in pairs:
        assert run.iterations < rescaled.iterations


def test_secant_start_is_closer_on_criterion_7_budgets(monkeypatch,
                                                         active_solve):
    # the support moves along this path, but the adjoint is smooth in
    # gamma: the projected predicted adjoint is 850-5000x closer than a
    # rescaled start, and takes fewer iterations
    spec, _ = active_solve
    pairs = _iterations_against_rescaled_starts(
        monkeypatch, spec, sc.OptimizerConfig(tol=1e-11, max_iter=400))
    assert len(pairs) == 4
    for run, rescaled in pairs:
        assert run.residual_history[0] < 1e-2 * rescaled.residual_history[0]
        assert run.iterations < rescaled.iterations


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


def test_sweep_does_not_resolve_the_base_budget(monkeypatch):
    # the base budget's row is the base solve itself: one solve per
    # distinct budget, and a distance of exactly 0.0
    solved = []
    solve = stability.solve

    def counting_solve(spec, cfg, *starts):
        solved.append(spec.gamma)
        return solve(spec, cfg, *starts)

    monkeypatch.setattr(stability, "solve", counting_solve)
    spec = schloegl_spec(n=6, n_t=6, gamma=0.05)
    report = sc.gamma_sweep(spec, [0.05, 0.045, 0.04],
                            sc.OptimizerConfig(tol=1e-8, max_iter=400))
    assert report.converged
    assert solved == [0.05, 0.045, 0.04]
    assert report.distances[report.gammas.index(0.05)] == 0.0
