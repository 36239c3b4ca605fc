"""Empirical budget-stability study: how far the optimal control moves when
the l1 budget gamma changes, and the fitted power of that distance.

Solves the problem over a list of budgets around the base gamma, outward on
each side, then fits log(distance) against log(|gamma' - gamma|).  Each
solve starts from the secant through its solved neighbors' states and
adjoints (gamma_sweep), as the adjoint is smooth in the budget where the
control's support has kinks.  Every budget shares the base problem's step
system and clamp level (ProblemSpec.with_budget).  A warning names the
budgets that reach the clamp.  The report also carries the certified
second-order bound at the base budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diagnostics import second_order_bound
from .grid import l2_norm, like
from .l1ball import project_field
from .optimizer import OptimizerConfig, solve
from .problem import ProblemSpec


@dataclass
class StabilityReport:
    base_gamma: float
    gammas: list
    distances: list
    exponent: float | None
    constant: float | None
    regime: str                      # "active" or "inactive" at the base budget
    converged: bool
    warnings: list = field(default_factory=list)
    iterations: list = field(default_factory=list)   # per budget, as gammas
    # diagnostics.second_order_bound at the base budget; None when the base
    # solve did not converge or reached the clamp, or ARPACK did not
    # converge
    second_order_bound: float | None = None


def fit_rate(pairs) -> tuple[float, float]:
    """Least-squares exponent and constant of distance ~ L * delta^p.

    pairs are (delta, distance) with delta > 0 and distance > 0; zero
    distances must be excluded by the caller.  Needs at least 3 pairs.
    """
    pairs = [(float(d), float(r)) for d, r in pairs]
    if len(pairs) < 3:
        raise ValueError(f"need at least 3 pairs to fit a rate, got {len(pairs)}")
    if any(d <= 0 or r <= 0 for d, r in pairs):
        raise ValueError("rate fit needs strictly positive deltas and distances")
    log_d = np.log([d for d, _ in pairs])
    log_r = np.log([r for _, r in pairs])
    slope, intercept = np.polyfit(log_d, log_r, 1)
    return float(slope), float(np.exp(intercept))


def gamma_sweep(spec: ProblemSpec, gammas, cfg: OptimizerConfig) -> StabilityReport:
    """Solve for every budget in gammas and report distances to the base
    solution at spec.gamma.

    Budgets are processed outward from the base on each side so every solve
    warm-starts from its nearest already-solved neighbor k.  The secant
    z_k + (g - g_k)(z_k - z_{k-1})/(g_k - g_{k-1}) of the states and of the
    adjoints (flat while only the base is behind) gives the nearby point
    (y, phi) that the solve's first state and adjoint sweeps start from
    (optimizer.solve); the start control is project_field(-phi/kappa, g),
    the first-order map at the predicted adjoint, and the first trial step
    is neighbor k's last accepted step, or the step k was handed if it took
    none (None, solve's own default, at the base).  The second-order
    bound is computed right after the base solve, before either chain
    moves the shared step system away from the base state.  A repeated
    budget is solved once.  A nonconvergent solve aborts the sweep; the
    partial report is returned.
    """
    gammas = sorted({float(g) for g in gammas})
    base = solve(spec, cfg)
    regime = "active" if base.activity.n_multiplier_active > 0 else "inactive"
    report = StabilityReport(spec.gamma, [], [], None, None, regime,
                             base.converged)
    if not base.converged:
        report.warnings.append("base solve did not converge; sweep aborted")
        return report
    if base.truncation_inactive:
        report.second_order_bound = second_order_bound(spec, base)
        if report.second_order_bound is None:
            report.warnings.append(
                "second_order_bound: ARPACK's Lanczos run did not converge; "
                "no bound")

    below = [g for g in gammas if g < spec.gamma]
    above = [g for g in gammas if g > spec.gamma]
    # the base budget is the base solve itself, at distance 0
    results = {spec.gamma: 0.0} if spec.gamma in gammas else {}
    iterations = {spec.gamma: base.iterations}
    clamped = set() if base.truncation_inactive else {spec.gamma}
    for chain in (above, below[::-1]):
        # step: the first step the base was handed, solve's default
        warm, warm_gamma, slopes, step = base, spec.gamma, (0.0, 0.0), None
        for g in chain:
            step = (warm.step_history or [step])[-1]
            y, phi = (like(f, f.values + (g - warm_gamma) * slope)
                      for f, slope in zip((warm.y, warm.phi), slopes))
            start, _ = project_field(like(phi, phi.values / -spec.kappa), g)
            run = solve(spec.with_budget(g), cfg, start, (y, phi), step)
            if not run.truncation_inactive:
                clamped.add(g)
            if not run.converged:
                report.warnings.append(f"solve at gamma'={g} did not converge; "
                                       "sweep aborted")
                report.converged = False
                break
            results[g] = l2_norm(like(base.u, run.u.values - base.u.values))
            iterations[g] = run.iterations
            slopes = [(new.values - old.values) / (g - warm_gamma)
                      for new, old in zip((run.y, run.phi),
                                          (warm.y, warm.phi))]
            warm, warm_gamma = run, g
        if not report.converged:
            break
    if clamped:
        report.warnings.append(
            f"reaction clamp engaged at gamma'={sorted(clamped)}; the "
            "distances and the fit describe the clamped equation")
    report.gammas = [g for g in gammas if g in results]
    report.distances = [results[g] for g in report.gammas]
    report.iterations = [iterations[g] for g in report.gammas]

    deltas = np.abs(np.array(report.gammas) - spec.gamma)
    dists = np.array(report.distances)
    order = np.argsort(deltas)
    floor = 10.0 * cfg.tol * max(1.0, l2_norm(base.u))
    if np.any(np.diff(dists[order]) < -floor):
        report.warnings.append("distances are not monotone in |gamma' - gamma|")

    fit_pairs = [(d, r) for d, r in zip(deltas, dists) if d > 0 and r > floor]
    if len(fit_pairs) >= 3:
        span = max(d for d, _ in fit_pairs) / min(d for d, _ in fit_pairs)
        if len(fit_pairs) >= 4 and span >= 10.0**1.5 * (1.0 - 1e-9):
            report.exponent, report.constant = fit_rate(fit_pairs)
        else:
            report.warnings.append(
                "fit skipped: need >= 4 positive-distance points spanning "
                ">= 1.5 decades in |gamma' - gamma|")
    else:
        report.warnings.append("fit skipped: fewer than 3 points with "
                               "distance above the solver floor")
    return report
