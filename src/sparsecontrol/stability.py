"""Empirical budget-stability study: how far the optimal control moves when
the l1 budget gamma changes, and the fitted power of that distance.

Solves the problem over a list of budgets around the base gamma, outward on
each side, then fits log(distance) against log(|gamma' - gamma|).  Each
solve starts from the projected secant through the last two solved budgets
(the base counts as one; the first budget on a side, with only the base
behind it, rescales the base control into its ball) and takes over its
neighbor's state and held step factors: every budget shares the base
problem's step system and clamp level (ProblemSpec.with_budget).  A warning
names the budgets that reach the clamp.  The report also carries the
certified second-order bound at the base budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .diagnostics import second_order_bound
from .grid import SpaceTimeField, l2_norm, like
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
    # solve did not converge or reached the clamp
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


def rescale_into_ball(u: SpaceTimeField, gamma_from: float,
                      gamma_to: float) -> SpaceTimeField:
    """Warm-start transfer between budgets: shrink proportionally when the
    ball shrinks, keep the control otherwise."""
    if gamma_to < gamma_from:
        return like(u, (gamma_to / gamma_from) * u.values)
    return u.copy()


def gamma_sweep(spec: ProblemSpec, gammas, cfg: OptimizerConfig) -> StabilityReport:
    """Solve for every budget in gammas and report distances to the base
    solution at spec.gamma.

    Budgets are processed outward from the base on each side so every solve
    warm-starts from its nearest already-solved neighbor, with its state and
    step factors, at the projected secant u_k + (g - g_k)/(g_k - g_{k-1})
    (u_k - u_{k-1}) (rescale_into_ball for the first budget on a side).  A
    nonconvergent solve aborts the sweep; the partial report is returned.
    """
    gammas = sorted(float(g) for g in gammas)
    base = solve(spec, cfg)
    regime = "active" if (base.activity is not None
                          and base.activity.n_multiplier_active > 0) else "inactive"
    report = StabilityReport(spec.gamma, [], [], None, None, regime,
                             base.converged)
    if not base.converged:
        report.warnings.append("base solve did not converge; sweep aborted")
        return report

    below = [g for g in gammas if g < spec.gamma]
    above = [g for g in gammas if g > spec.gamma]
    # the base budget is the base solve itself, at distance 0
    results = {spec.gamma: 0.0} if spec.gamma in gammas else {}
    iterations = {spec.gamma: base.iterations}
    clamped = set() if base.truncation_inactive else {spec.gamma}
    for chain in (above, below[::-1]):
        warm, warm_gamma, previous = base, spec.gamma, None
        for g in chain:
            if previous is None:
                start = rescale_into_ball(warm.u, warm_gamma, g)
            else:
                ratio = (g - warm_gamma) / (warm_gamma - previous[0])
                secant = warm.u.values + ratio * (warm.u.values - previous[1])
                start, _ = project_field(like(warm.u, secant), g)
            run = solve(spec.with_budget(g), replace(cfg, u0=start),
                        (warm.y, warm.factors))
            if not run.truncation_inactive:
                clamped.add(g)
            if not run.converged:
                report.warnings.append(f"solve at gamma'={g} did not converge; "
                                       "sweep aborted")
                report.converged = False
                break
            results[g] = l2_norm(like(base.u, run.u.values - base.u.values))
            iterations[g] = run.iterations
            previous = warm_gamma, warm.u.values
            warm, warm_gamma = run, g
        if not report.converged:
            break
    if clamped:
        report.warnings.append(
            f"reaction clamp engaged at gamma'={sorted(clamped)}; the "
            "distances and the fit describe the clamped equation")
    if base.truncation_inactive:
        report.second_order_bound = second_order_bound(spec, base)
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
