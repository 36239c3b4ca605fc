"""Exact projection onto the weighted l1 ball, every time slice at once.

For a slice v with uniform node weight w and budget gamma, the l2-closest
point of {u : w * sum|u_i| <= gamma} is the soft-threshold

    u_i = sign(v_i) * max(|v_i| - lam, 0),

with lam = 0 if v is already feasible and otherwise the unique root of
g(lam) = w * sum max(|v_i| - lam, 0) = gamma.  g is piecewise linear and
decreasing with breakpoints at the sorted |v_i|, so lam is found exactly by
one sort and a scan (Duchi et al. 2008; Condat 2016).  One kernel does this
for all slices of a field together: a row-wise sort, cumulative sum and
argmax over the slices that are over budget, worked in place on |v|, the
sorted rows and their cumulative sums: every fresh full-size temporary is
page-faulted in again on each call.  A bisection solver in ``checks`` is
an independent oracle, not the shipped path.

The same map characterizes first-order optimality of the control problem:
at a solution, u(t) is the projection of -phi(t)/kappa, the multiplier is
mu = -(phi + kappa*u), and kappa*lam equals the slice sup-norm of mu.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import SpaceTimeField, like

# relative slack for "already inside the ball" decisions; sized so that
# re-projecting a projected slice is an exact no-op: soft-thresholding leaves
# roundoff of order eps times the pre-image mass in the output total
_FEASIBLE_RTOL = 1e-13


@dataclass
class ProjectionResult:
    """Projected slice values and the threshold lam >= 0 (0 when the slice
    was already feasible and passed through unchanged)."""

    values: np.ndarray
    threshold: float


def _project_rows(values: np.ndarray, w: float, gamma: float):
    """Project every row of a 2D array onto {u : w * sum|u_i| <= gamma}.

    Returns the projected rows and the per-row thresholds.  Feasible rows
    pass through bit for bit; only the rows over budget are sorted.
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    if not w > 0:
        raise ValueError(f"cell weight must be > 0, got {w}")
    d = np.abs(values)
    total = w * np.sum(d, axis=1)
    over = ~(total <= gamma + _FEASIBLE_RTOL * np.maximum(1.0, total))
    thresholds = np.zeros(values.shape[0])
    if not np.any(over):
        return values.copy(), thresholds
    # every row over budget: work on d itself, no boolean-index copies
    every = bool(np.all(over))
    d_over = d if every else d[over]
    d_sorted = np.sort(d_over, axis=1)[:, ::-1]
    # candidate threshold if exactly the k largest entries stay nonzero
    lam_k = np.cumsum(d_sorted, axis=1)
    lam_k -= gamma / w
    lam_k /= np.arange(1, lam_k.shape[1] + 1)
    # the true count is the first k clearing the next breakpoint, 0 at the end
    clears = lam_k >= 0.0
    np.greater_equal(lam_k[:, :-1], d_sorted[:, 1:], out=clears[:, :-1])
    lam = lam_k[np.arange(lam_k.shape[0]), np.argmax(clears, axis=1)]
    d_over -= lam[:, None]
    np.maximum(d_over, 0.0, out=d_over)
    d_over *= np.sign(values if every else values[over])
    thresholds[over] = lam
    if every:
        return d_over, thresholds
    projected = values.copy()
    projected[over] = d_over
    return projected, thresholds


def project_slice(v: np.ndarray, w: float, gamma: float) -> ProjectionResult:
    """Project one slice onto {u : w * sum|u_i| <= gamma}."""
    values, thresholds = _project_rows(
        np.asarray(v, dtype=float)[np.newaxis], w, gamma)
    return ProjectionResult(values[0], float(thresholds[0]))


def project_field(v: SpaceTimeField, gamma: float):
    """Project every time slice of v independently.

    Returns the projected field and the per-slice thresholds.
    """
    values, thresholds = _project_rows(v.values, v.grid.cell_weight, gamma)
    return like(v, values), thresholds


def recover_multiplier(u: SpaceTimeField, phi: SpaceTimeField,
                       kappa: float) -> SpaceTimeField:
    """Budget-constraint multiplier mu = -(phi + kappa*u)."""
    if u.values.shape != phi.values.shape or u.slice_semantics != phi.slice_semantics:
        raise ValueError("control and adjoint fields are not aligned")
    return like(u, -(phi.values + kappa * u.values))
