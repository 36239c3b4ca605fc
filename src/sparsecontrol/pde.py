"""Implicit Euler solvers for the reaction-diffusion state equation, its
linearization, and the exact discrete adjoint.

State steps, m = 1..n_t with y_0 the initial datum:

    (y_m - y_{m-1})/dt + A_h y_m + a_M(y_m) = u_m,

solved by Newton.  The linearization at a state y solves

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
once per problem (ProblemSpec.steps) and reused by every sweep on it.
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


class EllipticOperator:
    """Assembled sparse matrix of -div(a_ij grad) on interior nodes.

    Exactly symmetric, cross term included (the adjoint relies on this), and
    positive definite; tests assert both on tiny grids, symmetry bitwise.
    """

    def __init__(self, grid: SpaceGrid, tensor: DiffusionTensor):
        if tensor.n_dim != grid.n_dim:
            raise ValueError("tensor dimension does not match the grid")
        self.grid = grid
        self.tensor = tensor
        n, h = grid.n_per_axis, grid.h
        a = tensor.as_array()
        d2 = _second_difference(n, h)
        if grid.n_dim == 1:
            m = a[0, 0] * d2
        else:
            eye = sp.identity(n, format="csr")
            d1 = _first_difference(n, h)
            m = (a[0, 0] * sp.kron(d2, eye)
                 + a[1, 1] * sp.kron(eye, d2)
                 - 2.0 * a[0, 1] * sp.kron(d1, d1))
        self.matrix = m.tocsr()

    @property
    def n_nodes(self) -> int:
        return self.grid.n_nodes


class StepSystem:
    """Implicit Euler step matrices B(y) = I + dt*A_h + dt*diag(a_M'(y)).

    One per problem (ProblemSpec.steps).  I + dt*A_h is assembled once
    (CSC); B(y) copies it and writes dt*a_M'(y) onto the diagonal entries
    only.  factor(y) writes B(y) into one preallocated work matrix instead
    of a fresh copy.  The zero reaction shares one factorization.
    """

    def __init__(self, spec: ProblemSpec):
        self.nl = spec.clamped_nonlinearity
        self.dt = spec.tgrid.dt
        self.operator_matrix = spec.operator.matrix
        n = self.operator_matrix.shape[0]
        self._base = (sp.identity(n, format="csr")
                      + self.dt * self.operator_matrix).tocsc()
        self._work = self._base.copy()
        # data index of each diagonal entry; 1 + dt*a_ii > 0, so all are stored
        columns = np.repeat(np.arange(n), np.diff(self._base.indptr))
        self._diagonal = np.flatnonzero(self._base.indices == columns)
        self._shared = splu(self._base) if self.nl.kind == "zero" else None

    def _write(self, y: np.ndarray) -> sp.csc_matrix:
        """B(y) written into the work matrix, which the next call
        overwrites."""
        work = self._work
        np.copyto(work.data, self._base.data)
        work.data[self._diagonal] += self.dt * eval_ay_truncated(self.nl, y)
        return work

    def factor(self, y: np.ndarray):
        """Sparse LU factorization of B(y); splu keeps its own copy."""
        if self._shared is not None:
            return self._shared
        return splu(self._write(y))

    def step(self, rhs: np.ndarray, y_start: np.ndarray) -> np.ndarray:
        """Solve y + dt*A_h y + dt*a_M(y) = rhs by Newton from y_start;
        undamped first, then bisection-damped retries before giving up."""
        scale = max(float(np.linalg.norm(rhs)), 1.0)
        for damping in [0.5**retry for retry in range(6)]:
            y = y_start
            for _ in range(_NEWTON_MAX_ITER):
                residual = (y + self.dt * (self.operator_matrix @ y)
                            + self.dt * eval_a_truncated(self.nl, y) - rhs)
                if np.linalg.norm(residual) <= _NEWTON_TOL * scale:
                    return y
                y = y + damping * self.factor(y).solve(-residual)
        raise NewtonError(
            f"implicit step did not converge to tol={_NEWTON_TOL} in "
            f"{_NEWTON_MAX_ITER} iterations (with 5 damped retries)")


def clamp_idle_on_states(spec: ProblemSpec, y: SpaceTimeField) -> bool:
    """True when no state y_m, m >= 1, reaches the reaction clamp.  y_0 is
    not checked: the reaction, and so the clamp, enters only at m >= 1."""
    return clamp_idle(spec.clamped_nonlinearity.truncation, y.values[1:])


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
            f"level {spec.truncation_level:.3g}; the clamped equation was "
            "solved", TruncationActiveWarning, stacklevel=2)
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
