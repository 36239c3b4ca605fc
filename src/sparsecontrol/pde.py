"""Implicit Euler solvers for the reaction-diffusion state equation, its
linearization, and the exact discrete adjoint.

State steps, m = 1..n_t with y_0 the initial datum:

    (y_m - y_{m-1})/dt + A_h y_m + a_M(y_m) = u_m,

solved by Newton (by one linear solve for the zero reaction).  The
linearization at a state y solves

    (z_m - z_{m-1})/dt + A_h z_m + a_M'(y_m) z_m = v_m,   z_0 = 0,

one sparse solve per step.  The backward solve is the algebraic transpose
of the forward step map: with B_m = I + dt A_h + dt diag(a_M'(y_m)) and
r_m = y_m - yd_m,

    B_m^T p_m = p_{m+1} + dt r_m,   p_{n_t+1} = 0,  m = n_t..1,

which makes sum_m dt <r_m, z_m> = sum_m dt <p_m, v_m> an exact identity
(telescoping), i.e. the adjoint-based gradient matches difference quotients
of the discrete objective to roundoff.  The adjoint field is per-interval,
p_m sitting at the right node t_m.

A_h is the finite-difference operator on interior nodes: the standard
3/5-point stencil for the diagonal part plus centered cross differences for
the off-diagonal tensor entry, Dirichlet values eliminated.  It is exactly
symmetric, bit for bit (the tests assert it), so B_m^T = B_m and one
StepSystem serves the state, linearized and adjoint sweeps.  It is built
once per problem (ProblemSpec.steps) and reused by every sweep on it and by
every budget of a budget sweep (ProblemSpec.with_budget).

B_m is symmetric positive definite for every state whenever

    1 + dt*(lambda_low + (4/3)*min(c_a, 0)) > 0,

with lambda_low <= lambda_min(A_h) (elliptic_lower_bound) and c_a <= a'
(the clamp's slope f_M' <= 4/3 can push a_M' below c_a by that factor).
Then every B_m is factored without pivoting in SuperLU's symmetric mode
(X. S. Li, ACM TOMS 31(3), 2005), under one fill-reducing ordering that
depends only on the sparsity pattern and is computed once per StepSystem.
Otherwise a step matrix may be indefinite, and each is factored by the
general pivoting LU.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .grid import (PER_INTERVAL, DiffusionTensor, SpaceGrid, SpaceTimeField,
                   field_at_nodes, field_per_interval)
from .nonlinearity import clamp_idle, eval_a_truncated, eval_ay_truncated
from .problem import ProblemSpec


# Newton stops at a residual norm of _NEWTON_TOL relative to max(|rhs|, 1)
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 30


class NewtonError(RuntimeError):
    """Newton failed to reach the residual tolerance within its budget."""


class TruncationActiveWarning(UserWarning):
    """The computed state touched the reaction clamp; results describe the
    clamped equation, not the original one."""


def _second_difference(n: int, h: float) -> sp.csr_matrix:
    """Dirichlet-eliminated -d^2/dx^2 on n interior nodes."""
    main = np.full(n, 2.0 / h**2)
    off = np.full(n - 1, -1.0 / h**2)
    return sp.diags([off, main, off], offsets=[-1, 0, 1], format="csr")


def _first_difference(n: int, h: float) -> sp.csr_matrix:
    """Dirichlet-eliminated centered d/dx on n interior nodes."""
    off = np.full(n - 1, 1.0 / (2.0 * h))
    return sp.diags([-off, off], offsets=[-1, 1], format="csr")


def elliptic_matrix(grid: SpaceGrid, tensor: DiffusionTensor) -> sp.csr_matrix:
    """Assembled sparse matrix A_h of -div(a_ij grad) on interior nodes.

    Exactly symmetric, cross term included (the adjoint relies on this), and
    positive definite; tests assert both on tiny grids, symmetry bitwise.
    """
    if tensor.n_dim != grid.n_dim:
        raise ValueError("tensor dimension does not match the grid")
    n, h = grid.n_per_axis, grid.h
    a = tensor.as_array()
    d2 = _second_difference(n, h)
    if grid.n_dim == 1:
        return (a[0, 0] * d2).tocsr()
    eye = sp.identity(n, format="csr")
    d1 = _first_difference(n, h)
    return (a[0, 0] * sp.kron(d2, eye) + a[1, 1] * sp.kron(eye, d2)
            - 2.0 * a[0, 1] * sp.kron(d1, d1)).tocsr()


def elliptic_lower_bound(grid: SpaceGrid, tensor: DiffusionTensor) -> float:
    """Lower bound on lambda_min(A_h): the tensor's smallest eigenvalue
    times n_dim*(4/h^2)*sin^2(pi*h/2), the smallest eigenvalue of the
    Dirichlet-eliminated 3/5-point -Laplacian.

    It holds with the cross term: the centered difference D1 and the forward
    difference G along one axis satisfy ||D1 v|| <= ||G v||, so the cross
    term is at most 2|a_12| ||G_1 v|| ||G_2 v||, and the quadratic form of
    [[a_11, -|a_12|], [-|a_12|, a_22]] (eigenvalues those of the tensor)
    bounds v.A_h v from below by lambda_min times v.(-Laplacian) v.
    """
    h = grid.h
    return (tensor.lambda_min * grid.n_dim * (4.0 / h**2)
            * np.sin(0.5 * np.pi * h)**2)


# SuperLU without pivoting, the ordering applied symmetrically (P B P^T)
_SYMMETRIC = dict(diag_pivot_thresh=0.0, options={"SymmetricMode": True})


class _OrderedFactor:
    """Solves B x = b with the factor of the reordered B[q][:, q]."""

    __slots__ = ("lu", "order", "inverse")

    def __init__(self, lu, order: np.ndarray, inverse: np.ndarray):
        self.lu, self.order, self.inverse = lu, order, inverse

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self.lu.solve(b[self.order])[self.inverse]


class StepSystem:
    """Implicit Euler step matrices B(y) = I + dt*A_h + dt*diag(a_M'(y)).

    One per problem (ProblemSpec.steps).  I + dt*A_h is assembled once
    (CSC); B(y) copies it and writes dt*a_M'(y) onto the diagonal entries
    only.  factor(y) writes B(y) into one preallocated work matrix instead
    of a fresh copy.

    spd is the admissibility bound of the module docstring, decided once.
    When it holds, every B(y) is SPD: a minimum-degree ordering q of
    I + dt*A_h is computed once, the stored matrices are kept reordered as
    B[q][:, q], and each factor(y) is a no-pivot symmetric-mode LU in that
    fixed order, whose solve() permutes b in and x out.  The zero reaction's
    B is the constant I + dt*A_h (c_a = 0, so the bound always holds): one
    shared symmetric-mode factorization, kept in the original order, and
    one solve per implicit step.  When the bound fails, B(y) is factored by
    the default pivoting splu.
    """

    def __init__(self, spec: ProblemSpec):
        self.nl = spec.nonlinearity
        self.dt = spec.tgrid.dt
        self.operator_matrix = elliptic_matrix(spec.grid, spec.diffusion)
        n = self.operator_matrix.shape[0]
        base = (sp.identity(n, format="csr")
                + self.dt * self.operator_matrix).tocsc()
        # a_M' >= (4/3)*min(c_a, 0), since a' >= c_a and 0 <= f_M' <= 4/3
        self.spd = 1.0 + self.dt * (
            elliptic_lower_bound(spec.grid, spec.diffusion)
            + (4.0 / 3.0) * min(self.nl.c_a, 0.0)) > 0.0
        self._shared = None
        self._order = None
        if self.spd:
            probe = splu(base, permc_spec="MMD_AT_PLUS_A", **_SYMMETRIC)
            if self.nl.kind == "zero":
                self._shared = probe
            else:
                # probe factored base[q][:, q] with q = argsort(perm_c); perm_c
                # is a view that would keep probe's factors alive, so copy it
                self._inverse = probe.perm_c.astype(np.intp)
                self._order = np.argsort(self._inverse)
                base = base[self._order][:, self._order]
                # splu would sort the work matrix in place, and the next
                # write would then scramble it
                base.sort_indices()
        self._base = base
        self._work = base.copy()
        # data index of each diagonal entry, by node; 1 + dt*a_ii > 0, so
        # all are stored
        columns = np.repeat(np.arange(n), np.diff(base.indptr))
        self._diagonal = np.flatnonzero(base.indices == columns)
        if self._order is not None:
            self._diagonal = self._diagonal[self._inverse]

    def _write(self, y: np.ndarray) -> sp.csc_matrix:
        """B(y), reordered when spd, written into the work matrix, which
        the next call overwrites."""
        work = self._work
        np.copyto(work.data, self._base.data)
        work.data[self._diagonal] += self.dt * eval_ay_truncated(self.nl, y)
        return work

    def factor(self, y: np.ndarray):
        """Sparse factorization of B(y), with a solve(b) method; splu
        keeps its own copy of the work matrix."""
        if self._shared is not None:
            return self._shared
        if self._order is None:
            return splu(self._write(y))
        return _OrderedFactor(
            splu(self._write(y), permc_spec="NATURAL", **_SYMMETRIC),
            self._order, self._inverse)

    def step(self, rhs: np.ndarray, y_start: np.ndarray) -> np.ndarray:
        """Solve y + dt*A_h y + dt*a_M(y) = rhs by Newton from y_start;
        undamped first, then bisection-damped retries before giving up.  An
        overflow anywhere in an attempt (the reaction, the residual or its
        norm) fails that attempt.  Zero reaction: one solve."""
        if self._shared is not None:
            return self._shared.solve(rhs)
        scale = max(float(np.linalg.norm(rhs)), 1.0)
        for damping in [0.5**retry for retry in range(6)]:
            y = y_start
            try:
                with np.errstate(over="raise"):
                    for _ in range(_NEWTON_MAX_ITER):
                        residual = (y + self.dt * (self.operator_matrix @ y)
                                    + self.dt * eval_a_truncated(self.nl, y)
                                    - rhs)
                        if np.linalg.norm(residual) <= _NEWTON_TOL * scale:
                            return y
                        y = y + damping * self.factor(y).solve(-residual)
            except (OverflowError, FloatingPointError):
                continue
        raise NewtonError(
            f"implicit step did not converge to tol={_NEWTON_TOL} in "
            f"{_NEWTON_MAX_ITER} iterations (with 5 damped retries)")


def clamp_idle_on_states(spec: ProblemSpec, y: SpaceTimeField) -> bool:
    """True when no state y_m, m >= 1, reaches the reaction clamp.  y_0 is
    not checked: the reaction, and so the clamp, enters only at m >= 1."""
    return clamp_idle(spec.nonlinearity.truncation, y.values[1:])


def solve_state(spec: ProblemSpec, u: SpaceTimeField) -> SpaceTimeField:
    """March the state equation forward from spec.y0 under the control u.

    u must be per-interval on spec's grids.  Emits TruncationActiveWarning
    when a computed state y_m, m >= 1, leaves (-M, M); the solution is
    still returned.
    """
    if u.slice_semantics != PER_INTERVAL:
        raise ValueError("control must be a per-interval field")
    if u.grid != spec.grid or u.tgrid != spec.tgrid:
        raise ValueError("control lives on different grids")
    steps = spec.steps
    dt = spec.tgrid.dt
    n_t = spec.tgrid.n_t
    y = np.empty((n_t + 1, spec.grid.n_nodes))
    y[0] = spec.y0
    for m in range(1, n_t + 1):
        y[m] = steps.step(y[m - 1] + dt * u.values[m - 1], y[m - 1])
    state = field_at_nodes(spec.grid, spec.tgrid, y)
    if not clamp_idle_on_states(spec, state):
        warnings.warn(
            f"state magnitude {np.max(np.abs(y[1:])):.3g} reached the clamp "
            f"level {spec.nonlinearity.truncation.level:.3g}; the clamped "
            "equation was solved", TruncationActiveWarning, stacklevel=2)
    return state


def solve_linearized(spec: ProblemSpec, y: SpaceTimeField,
                     v: SpaceTimeField) -> SpaceTimeField:
    """Directional state derivative at y in the control direction v."""
    if v.slice_semantics != PER_INTERVAL:
        raise ValueError("direction must be a per-interval field")
    steps = spec.steps
    dt = spec.tgrid.dt
    n_t = spec.tgrid.n_t
    z = np.zeros((n_t + 1, spec.grid.n_nodes))
    for m in range(1, n_t + 1):
        z[m] = steps.factor(y.values[m]).solve(z[m - 1] + dt * v.values[m - 1])
    return field_at_nodes(spec.grid, spec.tgrid, z)


def solve_adjoint(spec: ProblemSpec, y: SpaceTimeField) -> SpaceTimeField:
    """Backward solve with right-hand side y - yd, the exact transpose of
    the forward linearization (with B_m = B_m^T).  Per-interval field."""
    steps = spec.steps
    dt = spec.tgrid.dt
    n_t = spec.tgrid.n_t
    p = np.zeros((n_t, spec.grid.n_nodes))
    p_next = np.zeros(spec.grid.n_nodes)
    for m in range(n_t, 0, -1):
        p[m - 1] = steps.factor(y.values[m]).solve(
            p_next + dt * (y.values[m] - spec.yd.values[m]))
        p_next = p[m - 1]
    return field_per_interval(spec.grid, spec.tgrid, p)
