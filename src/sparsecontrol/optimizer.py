"""Projected gradient solve of the budget-constrained tracking problem.

Iterates u+ = proj(u - t * g), g = phi + kappa*u, with a monotone Armijo
backtracking line search; the method drives u to the fixed point
u = proj(-phi/kappa) of the first-order system.  The default first trial
step 1/kappa makes the first trial iterate exactly the fixed-point map; after
each accept the next one is the Barzilai-Borwein step <s,s>/<s,g+ - g>,
s = u+ - u, clipped to [1e-10, 1e10], or 1/kappa when <s,g+ - g> <= 0
(spectral projected gradient: Birgin, Martinez & Raydan, SIAM J. Optim.
10, 2000).  Convergence is declared on the relative fixed-point residual

    ||u - proj(-phi/kappa)|| / max(1, ||u||)

in the discrete Q norm.  On success the multiplier mu = -(phi + kappa*u)
is attached together with the per-slice activity record.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .diagnostics import SliceActivity, classify_slices
from .grid import SpaceTimeField, field_per_interval, l2_inner, l2_norm, like
from .l1ball import project_field, recover_multiplier
from .objective import objective_value
from .pde import NewtonError, clamp_idle_on_states, solve_adjoint, solve_state
from .problem import ProblemSpec


_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
_MAX_BACKTRACKS = 60
_MIN_STEP, _MAX_STEP = 1e-10, 1e10


@dataclass(frozen=True)
class OptimizerConfig:
    tol: float = 1e-8
    max_iter: int = 2000

    def __post_init__(self):
        if not 0 < self.tol < np.inf:
            raise ValueError("tolerance must be finite and > 0")
        if (not isinstance(self.max_iter, (int, np.integer))
                or isinstance(self.max_iter, bool) or self.max_iter < 0):
            raise ValueError("max_iter must be an integer >= 0")


@dataclass
class KKTResiduals:
    """First-order residual bundle at a point (u, y, phi, mu); slack_gap is
    relative to gamma, so it reads roundoff at a solution for any budget."""

    stationarity: float    # ||u - proj(-phi/kappa)||
    feasibility: float     # worst budget violation over slices
    sign_gap: float        # Q norm of |u*mu| - u*mu
    slack_gap: float       # worst ||mu(m)||_inf (gamma - ||u(m)||_1)^+ / gamma
    identity_gap: float    # worst | ||phi||_1 - kappa ||u||_1 - ||mu||_1 | per slice

    def as_dict(self) -> dict:
        return asdict(self)

    def max(self) -> float:
        return max(self.as_dict().values())


def kkt_residuals(spec: ProblemSpec, u: SpaceTimeField, phi: SpaceTimeField,
                  mu: SpaceTimeField,
                  projected: SpaceTimeField | None = None) -> KKTResiduals:
    """Evaluate the five first-order residuals; all vanish exactly at a
    point satisfying the projection form of the optimality system.
    projected, when given, is proj(-phi/kappa), which is then not computed
    again.  The slice norms ||u(m)||_1 and ||mu(m)||_inf are
    classify_slices'."""
    if projected is None:
        projected, _ = project_field(like(u, -phi.values / spec.kappa),
                                     spec.gamma)
    activity = classify_slices(u, mu, spec.gamma)
    stationarity = l2_norm(like(u, u.values - projected.values))
    w, u_l1, mu_inf = u.grid.cell_weight, activity.l1_norms, activity.mu_inf
    feasibility = float(np.max(np.maximum(u_l1 - spec.gamma, 0.0)))
    prod = u.values * mu.values
    sign_gap = l2_norm(like(u, np.abs(prod) - prod))
    slack_gap = float(np.max(mu_inf * np.maximum(spec.gamma - u_l1, 0.0)
                             / spec.gamma))
    phi_l1 = w * np.sum(np.abs(phi.values), axis=1)
    mu_l1 = w * np.sum(np.abs(mu.values), axis=1)
    identity_gap = float(np.max(np.abs(phi_l1 - spec.kappa * u_l1 - mu_l1)))
    return KKTResiduals(stationarity, feasibility, sign_gap, slack_gap,
                        identity_gap)


@dataclass
class SolveReport:
    u: SpaceTimeField
    y: SpaceTimeField
    phi: SpaceTimeField
    mu: SpaceTimeField
    converged: bool
    iterations: int
    j_history: list = field(default_factory=list)
    residual_history: list = field(default_factory=list)
    step_history: list = field(default_factory=list)
    activity: SliceActivity | None = None
    thresholds: np.ndarray | None = None
    kkt: KKTResiduals | None = None
    truncation_inactive: bool = True
    message: str = ""

    @property
    def objective(self) -> float:
        return self.j_history[-1]


def solve(spec: ProblemSpec, cfg: OptimizerConfig = OptimizerConfig(),
          u0: SpaceTimeField | None = None,
          near: tuple[SpaceTimeField, SpaceTimeField] | None = None,
          step: float | None = None) -> SolveReport:
    """Run the projected gradient method on spec from the control u0 (the
    zero control when None).

    near, when given, is a nearby point (y, phi), such as an earlier
    report's state and adjoint on spec's step system: the initial state
    solve chords from y (pde.solve_state) and the initial adjoint sweep
    refines from phi (pde.solve_adjoint), as every trial's state solve
    chords from the accepted state and every accepted point's adjoint sweep
    refines from the last accepted adjoint.

    step, when given, is the first trial step in place of 1/kappa, such as
    the last spectral step a solve of a nearby problem accepted.

    Returns a report with converged=False when the iteration cap is reached,
    the line search stalls or the adjoint sweep at an accepted point fails
    (the report keeps the point before).  A trial whose state solve fails is
    rejected; a failure of the initial state or adjoint solve propagates.
    """
    u = field_per_interval(spec.grid, spec.tgrid) if u0 is None else u0.copy()
    if step is None:
        step = 1.0 / spec.kappa

    near_y, near_phi = (None, None) if near is None else near
    y = solve_state(spec, u, near_y)
    j_val = objective_value(spec, u, y)
    phi = solve_adjoint(spec, y, near_phi)
    gradient = like(u, phi.values + spec.kappa * u.values)

    j_history = [j_val]
    residual_history = []
    step_history = []
    converged = False
    message = ""
    iterations = 0

    for iterations in range(cfg.max_iter + 1):
        fixed_point, thresholds = project_field(
            like(u, -phi.values / spec.kappa), spec.gamma)
        residual = l2_norm(like(u, u.values - fixed_point.values)) \
            / max(1.0, l2_norm(u))
        residual_history.append(residual)
        if residual <= cfg.tol:
            converged = True
            break
        if iterations == cfg.max_iter:
            message = f"iteration cap {cfg.max_iter} reached"
            break

        # once the predicted decrease drops below J's roundoff floor the
        # Armijo comparison is pure noise; accept such steps
        noise_floor = 16.0 * np.finfo(float).eps * max(1.0, abs(j_val))
        for _ in range(_MAX_BACKTRACKS):
            candidate, _ = project_field(
                like(u, u.values - step * gradient.values), spec.gamma)
            try:
                y_new = solve_state(spec, candidate, y)
            except NewtonError:     # no implicit step solution: reject
                step *= _BACKTRACK
                continue
            j_new = objective_value(spec, candidate, y_new)
            s = like(u, candidate.values - u.values)
            decrement = l2_inner(gradient, s)
            if j_new <= j_val + _ARMIJO_C * decrement + noise_floor:
                break
            step *= _BACKTRACK
        else:
            message = "line search stalled"
            break

        try:
            phi = solve_adjoint(spec, y_new, phi)
        except NewtonError as exc:  # the report keeps the last point
            message = str(exc)
            break
        u, y, j_val = candidate, y_new, j_new
        previous, gradient = gradient, like(u, phi.values + spec.kappa * u.values)
        j_history.append(j_val)
        step_history.append(step)
        curvature = l2_inner(s, like(u, gradient.values - previous.values))
        step = 1.0 / spec.kappa if curvature <= 0.0 else min(
            max(l2_inner(s, s) / curvature, _MIN_STEP), _MAX_STEP)

    # every exit from the loop leaves fixed_point and thresholds at the
    # final (u, phi)
    mu = recover_multiplier(u, phi, spec.kappa)
    return SolveReport(
        u=u, y=y, phi=phi, mu=mu,
        converged=converged, iterations=iterations,
        j_history=j_history, residual_history=residual_history,
        step_history=step_history,
        activity=classify_slices(u, mu, spec.gamma), thresholds=thresholds,
        kkt=kkt_residuals(spec, u, phi, mu, fixed_point),
        truncation_inactive=clamp_idle_on_states(spec, y),
        message=message,
    )
