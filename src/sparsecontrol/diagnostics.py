"""Slice activity classification and a certified second-order bound.

A time slice is *binding* when its weighted l1 norm sits on the budget
gamma (within tolerance) and *multiplier-active* when additionally the
multiplier slice is not identically zero.  On a multiplier-active slice
the linear hull of the critical cone holds the directions supported on
supp(u) and orthogonal to sign(u); other slices are free (Casas, Herzog &
Wachsmuth, SIAM J. Optim. 22, 2012).  The orthogonal projection P onto
that hull is the budget projection's derivative,
l1ball.projection_derivative.  As <H v, v> >= kappa <v, v> -
<W_- S v, S v>, W_- the negative part of the form's weight, a positive
kappa - lambda_max(P S* W_- S P) certifies the strong second-order
condition of the discrete problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import SpaceTimeField, like
from .l1ball import projection_derivative
from .objective import curvature_weight, weighted_product
from .problem import ProblemSpec


@dataclass
class SliceActivity:
    """Per-slice budget activity of a control/multiplier pair."""

    l1_norms: np.ndarray
    mu_inf: np.ndarray              # ||mu(m)||_inf per slice
    binding: np.ndarray
    multiplier_active: np.ndarray
    tol: float

    @property
    def n_multiplier_active(self) -> int:
        return int(np.sum(self.multiplier_active))


def classify_slices(u: SpaceTimeField, mu: SpaceTimeField,
                    gamma: float) -> SliceActivity:
    """Flag binding and multiplier-active slices; 1e-8 * gamma is the
    numeric stand-in for exact equality."""
    tol = 1e-8 * gamma
    l1 = u.grid.cell_weight * np.sum(np.abs(u.values), axis=1)
    mu_inf = np.max(np.abs(mu.values), axis=1)
    binding = np.abs(l1 - gamma) <= tol
    multiplier_active = binding & (mu_inf > tol)
    return SliceActivity(l1, mu_inf, binding, multiplier_active, tol)


def second_order_bound(spec: ProblemSpec, report) -> float | None:
    """Lower bound on <H v, v> / <v, v> over the linear hull of the
    critical cone at a SolveReport's (u, y, phi, mu).

    kappa where the weight 1 - a''(y) phi is >= 0 everywhere; otherwise
    kappa - lambda_max(P S* W_- S P), W_- the weight's negative part and P
    the orthogonal projection onto the hull (l1ball.projection_derivative),
    by Lanczos with a fixed start (dense below 3 unknowns, where ARPACK does
    not run); kappa again when the operator maps that start to 0.  None
    when ARPACK does not converge, which certifies nothing.  ValueError
    where the clamp engages (objective.curvature_weight).
    """
    weight = curvature_weight(spec, report.y, report.phi)
    if np.all(weight >= 0.0):
        return float(spec.kappa)
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    negative = np.maximum(-weight, 0.0)
    u, active = report.u, report.activity.multiplier_active

    def apply(x):
        v = like(u, projection_derivative(u.values, active, x))
        product = weighted_product(spec, report.y, negative, v)
        return projection_derivative(u.values, active, product).ravel()

    n = u.values.size
    operator = LinearOperator((n, n), matvec=apply, dtype=float)
    start = np.random.default_rng(0).standard_normal(n)
    if n < 3:
        top = np.linalg.eigvalsh(operator.matmat(np.eye(n)))[-1]
    elif not np.any(apply(start)):
        # a positive semidefinite operator that maps a random vector to 0
        # is 0, and ARPACK fails on it
        top = 0.0
    else:
        try:
            top = eigsh(operator, k=1, which="LA", return_eigenvectors=False,
                        v0=start)[0]
        except ArpackNoConvergence:
            return None
    return float(spec.kappa - max(top, 0.0))
