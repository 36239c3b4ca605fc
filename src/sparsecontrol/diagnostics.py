"""Slice activity classification and a certified second-order bound.

A time slice is *binding* when its weighted l1 norm sits on the budget
gamma (within tolerance) and *multiplier-active* when additionally the
multiplier slice is not identically zero.  On a multiplier-active slice
the linear hull of the critical cone holds the directions supported on
supp(u) and orthogonal to sign(u); other slices are free (Casas, Herzog &
Wachsmuth, SIAM J. Optim. 22, 2012).  As <H v, v> >= kappa <v, v> -
<W_- S v, S v>, W_- the negative part of the form's weight, a positive
kappa - lambda_max(P S* W_- S P) on that hull certifies the strong
second-order condition of the discrete problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh

from .grid import SpaceTimeField, like
from .objective import curvature_weight, weighted_product
from .problem import ProblemSpec


@dataclass
class SliceActivity:
    """Per-slice budget activity of a control/multiplier pair."""

    l1_norms: np.ndarray
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
    return SliceActivity(l1, binding, multiplier_active, tol)


def second_order_bound(spec: ProblemSpec, report) -> float:
    """Lower bound on <H v, v> / <v, v> over the linear hull of the
    critical cone at a SolveReport's (u, y, phi, mu) and held factors.

    kappa where the weight 1 - a''(y) phi is >= 0 everywhere; otherwise
    kappa - lambda_max(P S* W_- S P), W_- the weight's negative part and P
    the orthogonal projection onto the hull, by Lanczos with a fixed start
    (dense below 3 unknowns, where ARPACK does not run).  ValueError where
    the clamp engages (objective.curvature_weight).
    """
    weight = curvature_weight(spec, report.y, report.phi)
    if np.all(weight >= 0.0):
        return float(spec.kappa)
    negative = np.maximum(-weight, 0.0)
    u = report.u
    active = report.activity.multiplier_active[:, None]
    sign = np.sign(u.values) * active
    keep = ~active | (sign != 0.0)
    count = np.maximum(np.sum(sign * sign, axis=1, keepdims=True), 1.0)
    factors = list(report.factors)

    def hull(x):
        x = x.reshape(u.values.shape) * keep
        return x - sign * (np.sum(sign * x, axis=1, keepdims=True) / count)

    def apply(x):
        product = weighted_product(spec, report.y, negative,
                                   like(u, hull(x)), factors)
        return hull(product).ravel()

    n = u.values.size
    operator = LinearOperator((n, n), matvec=apply, dtype=float)
    if n < 3:
        top = np.linalg.eigvalsh(operator.matmat(np.eye(n)))[-1]
    else:
        top = eigsh(operator, k=1, which="LA", return_eigenvectors=False,
                    v0=np.random.default_rng(0).standard_normal(n))[0]
    return float(spec.kappa - max(top, 0.0))
