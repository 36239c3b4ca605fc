"""Tracking objective, its adjoint-based gradient, and its Hessian-vector
product.

J(u) = 1/2 ||y_u - yd||^2 + kappa/2 ||u||^2 in the discrete Q norm.  The
gradient field is phi + kappa*u with phi the exact discrete adjoint, so
difference-quotient checks of the gradient can demand near machine
precision.  At (y, phi), H v = kappa v + p2 with p2 the backward sweep
with source dt (1 - a''(y) phi) z_v, z_v the linearized state.  By the
transpose identity

    Q(v) = <H v, v> = <(1 - a''(y) phi) z_v, z_v> + kappa <v, v>,

which equals the second difference quotient of J up to the quotient's own
truncation error.  The weight uses the unclamped a'', so it refuses a
state that reaches the reaction clamp.
"""

from __future__ import annotations

import numpy as np

from .grid import SpaceTimeField, l2_inner, like
from .nonlinearity import eval_ayy
from .pde import (_linear_sweep, clamp_idle_on_states, solve_adjoint,
                  solve_linearized, solve_state)
from .problem import ProblemSpec

__all__ = ["eval_J", "objective_value", "eval_gradient", "eval_curvature",
           "curvature_weight", "hessian_vector"]


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


def curvature_weight(spec: ProblemSpec, y: SpaceTimeField,
                     phi: SpaceTimeField) -> np.ndarray:
    """The weight 1 - a''(y_m) phi_m, m = 1..n_t, of the second-order form.

    Raises ValueError when a state y_m, m >= 1, reaches the reaction clamp:
    the weight uses the unclamped a'', which is wrong where the clamp acts.
    """
    states = y.values[1:]
    if not clamp_idle_on_states(spec, y):
        raise ValueError(
            f"state magnitude {np.max(np.abs(states)):.3g} reached the clamp "
            f"level {spec.truncation:.3g}; the second-order form uses the "
            "unclamped a'' and is not defined there")
    return 1.0 - eval_ayy(spec.nonlinearity, states) * phi.values


def weighted_product(spec: ProblemSpec, y: SpaceTimeField, weight: np.ndarray,
                     v: SpaceTimeField) -> np.ndarray:
    """S* W S v as per-interval values: the linearized state z_v, then the
    backward sweep with source dt * weight * z_v."""
    z = solve_linearized(spec, y, v)

    def write_source(out):
        np.multiply(weight, spec.tgrid.dt, out=out)
        out *= z.values[1:]

    return _linear_sweep(spec, y, write_source, True).values


def hessian_vector(spec: ProblemSpec, y: SpaceTimeField, phi: SpaceTimeField,
                   v: SpaceTimeField) -> SpaceTimeField:
    """H v = kappa*v + p2 at (y, phi), per-interval (see the module
    docstring); ValueError where the clamp engages (curvature_weight)."""
    p2 = weighted_product(spec, y, curvature_weight(spec, y, phi), v)
    return like(v, spec.kappa * v.values + p2)


def eval_curvature(spec: ProblemSpec, u: SpaceTimeField,
                   v: SpaceTimeField) -> float:
    """Second derivative of J at u along (v, v)."""
    y = solve_state(spec, u)
    return l2_inner(hessian_vector(spec, y, solve_adjoint(spec, y), v), v)
