"""Implicit Euler solvers for the reaction-diffusion state equation, its
linearization, and the exact discrete adjoint.

State steps, m = 1..n_t with y_0 the initial datum:

    (y_m - y_{m-1})/dt + A_h y_m + a_M(y_m) = u_m,

solved by x <- x - lu^-1 R(x), R the step's residual (one linear solve for
the zero reaction).  Given factors of B(w_m) at an earlier state w and a
nearby accepted state y' (the optimizer holds one list of n_t factors for
a whole solve), step m first runs it as the chord, lu = B(w_m) from
x = y'_m, past Newton's residual test until the residual stops shrinking
4x or is exactly zero, which resolves the root to roundoff; else as Newton
from y_{m-1}, with lu = B(x) at every iterate.
The linearization at a state y solves

    (z_m - z_{m-1})/dt + A_h z_m + a_M'(y_m) z_m = v_m,   z_0 = 0,

one sparse solve per step.  The backward solve is the algebraic transpose
of the forward step map: with B_m = I + dt A_h + dt diag(a_M'(y_m)) and
r_m = y_m - yd_m,

    B_m^T p_m = p_{m+1} + dt r_m,   p_{n_t+1} = 0,  m = n_t..1,

which makes sum_m dt <r_m, z_m> = sum_m dt <p_m, v_m> an exact identity
(telescoping), i.e. the adjoint-based gradient matches difference quotients
of the discrete objective to roundoff.  The adjoint field is per-interval,
p_m sitting at the right node t_m.  Given the held factors, each backward
step is the same iteration on the linear residual B_m p - rhs: iterative
refinement on the stale factor, kept while every correction shrinks the
residual 1000x down to roundoff, else one factorization of B_m, which then
replaces the held one.  The state and adjoint sweeps form their sources
dt*u_m and dt*r_m for all steps in one array operation before the loop.
Every sweep's NewtonError names the sweep and the step.

A_h is the finite-difference operator on interior nodes: the standard
3/5-point stencil for the diagonal part plus centered cross differences for
the off-diagonal tensor entry, Dirichlet values eliminated.  It is exactly
symmetric, bit for bit (the tests assert it), so B_m^T = B_m and one
StepSystem serves the state, linearized and adjoint sweeps.  It is built
once per problem (ProblemSpec.steps) and reused by every sweep on it and by
every budget of a budget sweep (ProblemSpec.with_budget).
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
    """Newton failed to reach the residual tolerance within its budget, or
    a step matrix it or a linear sweep needed is exactly singular."""


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
    (CSC); factor(y) writes dt*a_M'(y) onto the diagonal entries of one
    preallocated work matrix instead of a fresh copy.

    A minimum-degree ordering q of the positive definite I + dt*A_h comes
    once from a no-pivot symmetric-mode LU (X. S. Li, ACM TOMS 31(3),
    2005).  The stored matrices are kept reordered as B[q][:, q], and each
    factor(y) is a partial-pivoting LU in that order, which also covers the
    step matrices a decreasing reaction makes indefinite; its solve()
    permutes b in and x out.  The last factor made is held and returned
    again for the same B(y).  The zero reaction's B is the constant
    I + dt*A_h: the ordering's own factorization is shared, one solve per
    implicit step, with no shift computed.
    """

    def __init__(self, spec: ProblemSpec):
        self.nl = spec.nonlinearity
        self.dt = spec.tgrid.dt
        self.operator_matrix = elliptic_matrix(spec.grid, spec.diffusion)
        n = self.operator_matrix.shape[0]
        base = (sp.identity(n, format="csr")
                + self.dt * self.operator_matrix).tocsc()
        # base is SPD, so symmetric mode needs no pivoting
        probe = splu(base, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})
        self._shared = probe if self.nl.kind == "zero" else None
        # probe factored base[q][:, q] with q = argsort(perm_c); perm_c is a
        # view that would keep probe's factors alive, so copy it
        self._inverse = probe.perm_c.astype(np.intp)
        self._order = np.argsort(self._inverse)
        base = base[self._order][:, self._order]
        # splu would sort the work matrix in place, and the next write
        # would then scramble it
        base.sort_indices()
        self._base = base
        self._work = base.copy()
        # data index of each diagonal entry, by node; 1 + dt*a_ii > 0, so
        # all are stored
        columns = np.repeat(np.arange(n), np.diff(base.indptr))
        self._diagonal = np.flatnonzero(base.indices == columns)[self._inverse]
        # (dt*a_M'(y), factor of B(y)) of the last factor() call that factored
        self._held = None

    def _write(self, y: np.ndarray,
               shift: np.ndarray | None = None) -> sp.csc_matrix:
        """B(y), reordered, written into the work matrix, which the next
        call overwrites; shift, when given, is dt*a_M'(y)."""
        if shift is None:
            shift = self.dt * eval_ay_truncated(self.nl, y)
        work = self._work
        np.copyto(work.data, self._base.data)
        work.data[self._diagonal] += shift
        return work

    def factor(self, y: np.ndarray):
        """Sparse factorization of B(y), with a solve(b) method; splu
        keeps its own copy of the work matrix.

        The last factor made is held with its shift dt*a_M'(y), the only
        part of B(y) that varies, and returned again while the shift is
        bitwise equal: SuperLU is deterministic, so a fresh factor would
        be bitwise the same.  An exactly singular B(y) raises NewtonError
        and is not held."""
        if self._shared is not None:
            return self._shared
        shift = self.dt * eval_ay_truncated(self.nl, y)
        if self._held is not None and np.array_equal(shift, self._held[0]):
            return self._held[1]
        try:
            lu = splu(self._write(y, shift), permc_spec="NATURAL")
        except RuntimeError as exc:     # "Factor is exactly singular"
            raise NewtonError("step matrix I + dt*A_h + dt*diag(a_M'(y)) is "
                              "exactly singular") from exc
        self._held = shift, _OrderedFactor(lu, self._order, self._inverse)
        return self._held[1]

    def _iterate(self, residual, tol: float, y: np.ndarray, lu=None,
                 shrink: float = 0.25) -> np.ndarray | None:
        """y <- y - lu^-1 R(y) from y, R = residual: the chord on lu, run
        past tol until a correction no longer takes the residual norm below
        shrink times the last one (4x by default) or it is exactly zero,
        which resolves a root to roundoff; or Newton without lu, refactored
        at every iterate and stopped at tol.  An overflow ends it.  Returns
        the iterate with the smallest residual when that met tol, else
        None."""
        best, best_norm, previous = y, np.inf, np.inf
        try:
            with np.errstate(over="raise"):
                for _ in range(_NEWTON_MAX_ITER):
                    residual_y = residual(y)
                    norm = np.linalg.norm(residual_y)
                    if norm < best_norm:
                        best, best_norm = y, norm
                    if (norm <= tol if lu is None
                            else norm == 0.0 or not norm < shrink * previous):
                        break
                    previous = norm
                    y = y - (lu or self.factor(y)).solve(residual_y)
        except (OverflowError, FloatingPointError):
            pass
        return best if best_norm <= tol else None

    def step(self, rhs: np.ndarray, y_start: np.ndarray,
             chord: tuple | None = None) -> np.ndarray:
        """Solve y + dt*A_h y + dt*a_M(y) = rhs.

        chord, when given, is a pair (y_guess, lu): a start near the root
        and a factor of B at a nearby state.  Chord iterations on lu from
        y_guess come first; when they do not reach the tolerance, one
        undamped Newton pass runs from y_start, and then NewtonError.  Zero
        reaction: one solve."""
        if self._shared is not None:
            return self._shared.solve(rhs)
        tol = _NEWTON_TOL * max(float(np.linalg.norm(rhs)), 1.0)

        def residual(y):
            return (y + self.dt * (self.operator_matrix @ y)
                    + self.dt * eval_a_truncated(self.nl, y) - rhs)

        y = None if chord is None else self._iterate(residual, tol, *chord)
        if y is None:
            y = self._iterate(residual, tol, y_start)
        if y is None:
            raise NewtonError(
                f"implicit step did not converge to tol={_NEWTON_TOL} in "
                f"{_NEWTON_MAX_ITER} iterations")
        return y

    def linear_step(self, rhs: np.ndarray, y: np.ndarray, lu=None):
        """Solve B(y) p = rhs; returns p and the factor it used.

        lu, when given, is a factor of B at another state.  Iterative
        refinement p <- p - lu^-1 (B(y) p - rhs) from p = lu^-1 rhs keeps
        lu when every correction shrinks the residual 1000x, until it is at
        roundoff, and the result meets Newton's residual test; else B(y) is
        factored once and solved directly.  A refinement that contracts
        slower costs more residual evaluations than one factorization.
        Zero reaction: one solve on the shared factor."""
        if lu is None or self._shared is not None:
            lu = self.factor(y)
            return lu.solve(rhs), lu
        diagonal = 1.0 + self.dt * eval_ay_truncated(self.nl, y)
        p = self._iterate(
            lambda p: diagonal * p + self.dt * (self.operator_matrix @ p) - rhs,
            _NEWTON_TOL * max(float(np.linalg.norm(rhs)), 1.0),
            lu.solve(rhs), lu, shrink=1e-3)
        if p is None:
            lu = self.factor(y)
            p = lu.solve(rhs)
        return p, lu


def clamp_idle_on_states(spec: ProblemSpec, y: SpaceTimeField) -> bool:
    """True when no state y_m, m >= 1, reaches the reaction clamp.  y_0 is
    not checked: the reaction, and so the clamp, enters only at m >= 1."""
    return clamp_idle(spec.nonlinearity.truncation, y.values[1:])


def solve_state(spec: ProblemSpec, u: SpaceTimeField,
                accepted: tuple | None = None) -> SpaceTimeField:
    """March the state equation forward from spec.y0 under the control u.

    u must be per-interval on spec's grids.  accepted, when given, is a
    pair (y, factors) of a nearby state and factors of step matrices
    B(w_m), m = 1..n_t, at earlier states w, as solve_adjoint leaves them:
    step m then starts with chord iterations on factors[m - 1] from y_m.
    Emits TruncationActiveWarning when a computed state y_m, m >= 1, leaves
    (-M, M); the solution is still returned.
    """
    if u.slice_semantics != PER_INTERVAL:
        raise ValueError("control must be a per-interval field")
    if u.grid != spec.grid or u.tgrid != spec.tgrid:
        raise ValueError("control lives on different grids")
    steps = spec.steps
    n_t = spec.tgrid.n_t
    y = np.empty((n_t + 1, spec.grid.n_nodes))
    y[0] = spec.y0
    forcing = spec.tgrid.dt * u.values
    try:
        for m in range(1, n_t + 1):
            chord = None if accepted is None else (
                accepted[0].values[m], accepted[1][m - 1])
            y[m] = steps.step(y[m - 1] + forcing[m - 1], y[m - 1], chord)
    except NewtonError as exc:
        raise NewtonError(f"state solver failed at step {m}: {exc}") from exc
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
    try:
        for m in range(1, n_t + 1):
            z[m] = steps.factor(y.values[m]).solve(
                z[m - 1] + dt * v.values[m - 1])
    except NewtonError as exc:
        raise NewtonError(f"linearized solver failed at step {m}: "
                          f"{exc}") from exc
    return field_at_nodes(spec.grid, spec.tgrid, z)


def solve_adjoint(spec: ProblemSpec, y: SpaceTimeField,
                  factors: list | None = None) -> SpaceTimeField:
    """Backward solve with right-hand side y - yd, the exact transpose of
    the forward linearization (with B_m = B_m^T).  Per-interval field.

    factors, when given, is a list of n_t factors of step matrices B(w_m)
    at earlier states w, or None where there is none yet, as the chord
    start of a later solve_state(spec, u, (y, factors)).  Step m refines on
    factors[m - 1] (StepSystem.linear_step), and where that does not serve
    it factors B(y_m) and stores that factor there.  Without it every step
    is factored.
    """
    steps = spec.steps
    n_t = spec.tgrid.n_t
    if factors is None:
        factors = [None] * n_t
    p = np.zeros((n_t, spec.grid.n_nodes))
    p_next = np.zeros(spec.grid.n_nodes)
    source = spec.tgrid.dt * (y.values[1:] - spec.yd.values[1:])
    try:
        for m in range(n_t, 0, -1):
            p[m - 1], factors[m - 1] = steps.linear_step(
                p_next + source[m - 1], y.values[m], factors[m - 1])
            p_next = p[m - 1]
    except NewtonError as exc:
        raise NewtonError(f"adjoint solver failed at step {m}: {exc}") from exc
    return field_per_interval(spec.grid, spec.tgrid, p)
