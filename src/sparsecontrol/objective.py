"""Tracking objective, its adjoint-based gradient, and the second-order
quadratic form.

J(u) = 1/2 ||y_u - yd||^2 + kappa/2 ||u||^2 in the discrete Q norm.  The
gradient field is phi + kappa*u with phi the exact discrete adjoint, so
difference-quotient checks of the gradient can demand near machine
precision.  The quadratic form in a direction v is

    Q(v) = <(1 - a''(y) phi) z_v, z_v> + kappa <v, v>,

with z_v the linearized state; it equals the second difference quotient of
J up to the quotient's own truncation error.
"""

from __future__ import annotations

import numpy as np

from .grid import SpaceTimeField, l2_inner, like
from .nonlinearity import eval_ayy
from .pde import (clamp_idle_on_states, solve_adjoint, solve_linearized,
                  solve_state)
from .problem import ProblemSpec

__all__ = ["eval_J", "objective_value", "eval_gradient",
           "eval_curvature", "curvature_with_state"]


def objective_value(spec: ProblemSpec, u: SpaceTimeField,
                    y: SpaceTimeField) -> float:
    """J given an already computed state."""
    residual = like(y, y.values - spec.yd.values)
    return 0.5 * l2_inner(residual, residual) + 0.5 * spec.kappa * l2_inner(u, u)


def eval_J(spec: ProblemSpec, u: SpaceTimeField) -> float:
    return objective_value(spec, u, solve_state(spec, u))


def eval_gradient(spec: ProblemSpec, u: SpaceTimeField) -> SpaceTimeField:
    """Gradient field phi + kappa*u (per-interval), the Riesz representative
    of the derivative of J under the discrete Q inner product."""
    phi = solve_adjoint(spec, solve_state(spec, u))
    return like(u, phi.values + spec.kappa * u.values)


def curvature_with_state(spec: ProblemSpec, y: SpaceTimeField,
                         phi: SpaceTimeField, v: SpaceTimeField) -> float:
    """Quadratic form at (y, phi) in direction v; reuses computed fields.

    Raises ValueError when a state y_m, m >= 1, reaches the reaction clamp:
    the form uses the unclamped a'', which is wrong where the clamp acts.
    """
    states = y.values[1:]
    if not clamp_idle_on_states(spec, y):
        raise ValueError(
            f"state magnitude {np.max(np.abs(states)):.3g} reached the "
            f"clamp level {spec.truncation_level:.3g}; the second-order form "
            "uses the unclamped a'' and is not defined there")
    z = solve_linearized(spec, y, v)
    zi = z.values[1:]
    weight = 1.0 - eval_ayy(spec.nonlinearity, states) * phi.values
    dt, w = spec.tgrid.dt, spec.grid.cell_weight
    tracking = dt * w * float(np.sum(weight * zi * zi))
    return tracking + spec.kappa * l2_inner(v, v)


def eval_curvature(spec: ProblemSpec, u: SpaceTimeField,
                   v: SpaceTimeField) -> float:
    """Second derivative of J at u along (v, v)."""
    y = solve_state(spec, u)
    phi = solve_adjoint(spec, y)
    return curvature_with_state(spec, y, phi, v)
