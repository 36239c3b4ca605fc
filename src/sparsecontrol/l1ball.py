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
page-faulted in again on each call.  lam is the largest candidate
lam_k = (sum of the k largest |v_i| - gamma/w)/k, so lam >= max(lam_1, lam_n)
and only entries above that bound can be in the support: on a stack of at
least 8192 entries the scan stops one column past the most such entries in
a row.  The sign is restored by np.copysign, so a -0.0 entry stays -0.0.  A
bisection solver in ``checks`` is an independent oracle, not the shipped
path.

The same map characterizes first-order optimality of the control problem:
at a solution, u(t) is the projection of -phi(t)/kappa, the multiplier is
mu = -(phi + kappa*u), and kappa*lam equals the slice sup-norm of mu.
Its derivative at a projected stack is ``projection_derivative``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import SpaceTimeField, like

# relative slack for "already inside the ball" decisions; sized so that
# re-projecting a projected slice is an exact no-op: soft-thresholding leaves
# roundoff of order eps times the pre-image mass in the output total
_FEASIBLE_RTOL = 1e-13
# stacks over budget with fewer entries scan every column: the bound costs
# a pass over the sorted stack and half a dozen numpy calls, which the
# shorter scan repays only on large stacks.  Per call, bounded against full
# (timeit, 2 shared vCPUs): 35 against 30 us on sweep-2d-lowkappa's 4 x 100
# stacks, 83 against 79 us on solve-2d-schloegl's 4 x 1024 (3 rows over),
# 436 against 811 us on solve-1d-long's 200 x 200; on random 200-node rows
# with supports near 70 the two break even between 4,000 and 8,000 entries
_BOUNDED_SCAN_MIN_SIZE = 8192


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
    ascending = np.sort(d_over, axis=1)
    d_sorted = ascending[:, ::-1]
    n = d_sorted.shape[1]
    radius = gamma / w
    k = n
    if d_sorted.size >= _BOUNDED_SCAN_MIN_SIZE:
        # lam = max_k lam_k is at least max(lam_1, lam_n), so only the
        # entries above that bound can be in the support, and the scan can
        # stop one column past the most such entries in a row
        bound = ((total if every else total[over]) - gamma) / (w * n)
        np.maximum(bound, d_sorted[:, 0] - radius, out=bound)
        below = int((ascending > bound[:, None]).argmax(axis=1).min())
        k = min(n - below + 1, n)
    lam = _scan(d_sorted, radius, k)
    d_over -= lam[:, None]
    np.maximum(d_over, 0.0, out=d_over)
    np.copysign(d_over, values if every else values[over], out=d_over)
    thresholds[over] = lam
    if every:
        return d_over, thresholds
    projected = values.copy()
    projected[over] = d_over
    return projected, thresholds


def _scan(d_sorted: np.ndarray, radius: float, k: int) -> np.ndarray:
    """Per-row threshold of the descending rows d_sorted over the budget
    radius gamma/w, scanning their first k columns; all n columns when a
    row does not clear its breakpoint within k, which only roundoff at a
    tie can cause.  Prefix sums of the first k columns are the full rows'
    sums, so any k gives the full scan's thresholds bit for bit."""
    n = d_sorted.shape[1]
    # candidate threshold if exactly the k largest entries stay nonzero
    lam_k = np.add.accumulate(d_sorted[:, :k], axis=1)
    lam_k -= radius
    lam_k /= np.arange(1, k + 1)
    # the true count is the first k clearing the next breakpoint, 0 past
    # the last one
    clears = lam_k >= 0.0
    j = min(k, n - 1)
    np.greater_equal(lam_k[:, :j], d_sorted[:, 1:j + 1], out=clears[:, :j])
    if k < n and not clears[:, -1].all():
        return _scan(d_sorted, radius, n)
    return lam_k[np.arange(lam_k.shape[0]), np.argmax(clears, axis=1)]


def projection_derivative(u: np.ndarray, active: np.ndarray,
                          v: np.ndarray) -> np.ndarray:
    """P v, P the derivative of the slice-wise projection at the projected
    stack u with per-slice flags active (multiplier-active, so over budget).

    v is reshaped to u's shape.  P is the identity on a slice that is not
    active.  On an active slice with support S = {u_i != 0}, differentiating
    the threshold equation w * sum_S (|z_i| - lam) = gamma in the pre-image z
    gives

        P v = 1_S (v - sign(u) * sum_S sign(u) v / max(|S|, 1)),

    the orthogonal projection onto the directions supported on S and
    orthogonal to sign(u).  It is the projection onto the linear hull of the
    critical cone (Casas, Herzog & Wachsmuth, SIAM J. Optim. 22, 2012), and
    an element of the generalized Jacobian of the projection at -phi/kappa.
    """
    sign = np.sign(u) * active[:, None]
    v = v.reshape(u.shape) * (~active[:, None] | (sign != 0.0))
    count = np.maximum(np.sum(sign * sign, axis=1, keepdims=True), 1.0)
    return v - sign * (np.sum(sign * v, axis=1, keepdims=True) / count)


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
