"""Implicit Euler solvers for the reaction-diffusion state equation, its
linearization, and the exact discrete adjoint.

State steps, m = 1..n_t with y_0 the initial datum:

    (y_m - y_{m-1})/dt + A_h y_m + a_M(y_m) = u_m,

a_M the reaction under the clamp f_M (nonlinearity) at the problem's level
M = ProblemSpec.truncation, which the step system reads once.  Each step is
solved by Newton, x <- x - B(x)^-1 R(x) from y_{m-1}, R the step's residual
and B(x) = I + dt A_h + dt diag(a_M'(x)) refactored at every iterate.  The
zero reaction's B is the constant I + dt A_h, factored once: every sweep
marches on it in place, one solve per step.  The step system holds one
factor lu of B(w_m) per step m, at an earlier state w, with its shift
s_w = dt a_M'(w_m).  Given a nearby state y', step m first runs the chord
on it from x = y'_m in splitting form,

    x <- lu^-1 (rhs + s_w x - dt a_M(x)),

the iterates of x <- x - lu^-1 R(x) with no product with A_h.
The linearization at a state y solves

    (z_m - z_{m-1})/dt + A_h z_m + a_M'(y_m) z_m = v_m,   z_0 = 0,

and the backward solve is the algebraic transpose of that step map: with
B_m = I + dt A_h + dt diag(a_M'(y_m)) and r_m = y_m - yd_m,

    B_m^T p_m = p_{m+1} + dt r_m,   p_{n_t+1} = 0,  m = n_t..1,

which makes sum_m dt <r_m, z_m> = sum_m dt <p_m, v_m> an exact identity
(telescoping), i.e. the adjoint-based gradient matches difference quotients
of the discrete objective to roundoff.  The adjoint field is per-interval,
p_m sitting at the right node t_m.  Both are one linear sweep, forward or
backward, each with its own source (dt*v_m, dt*r_m; the Hessian-vector
product in objective sends a third source backward).  Step m refines on its
held factor, again in splitting form,

    p <- lu^-1 (rhs - (dt a_M'(y_m) - s_w) p)   from p = 0,

the iterates of p <- p - lu^-1 (B_m p - rhs) from p = lu^-1 rhs.

Both splittings stop on their correction norms d_k: converged at d_k or,
from the second correction on with rate rho = d_k/d_(k-1), at
rho/(1 - rho) d_k below 4 eps |x|, roundoff in the state; they give up when
rho is no better than 1/4 (chord) or 1/1000 (refinement), or a correction
is not finite.  Then each step evaluates its residual once, Newton's test
|R| <= 1e-12 max(|rhs|, 1), which certifies the result; when it fails, the
chord falls back to Newton from y_{m-1}, the refinement to one
factorization of B_m, which then replaces the held one; a step with no
held factor yet makes that factorization at once.  A Newton pass
gives up after 3 growing residual norms in a row.  Each sweep runs under
np.errstate(over="raise"), entered once, so an overflow ends an iteration.
Every sweep forms its source for all steps in one array operation before
the loop, and its NewtonError names the sweep and the step.

A_h is the finite-difference operator on interior nodes: the standard
3/5-point stencil for the diagonal part plus centered cross differences for
the off-diagonal tensor entry, Dirichlet values eliminated.  It is exactly
symmetric, bit for bit (the tests assert it), so B_m^T = B_m and one
StepSystem serves the state, linearized and adjoint sweeps.  It is built
once per problem (ProblemSpec.steps) and reused, held factors and all, by
every sweep on it and by every budget of a budget sweep
(ProblemSpec.with_budget); a dataclasses.replace copy of the problem starts
with none held.  In 1D, with at least 3 nodes, B_m is tridiagonal: the
zero reaction's symmetric positive definite constant is factored by
LAPACK's L D L^T (dpttrf), every state-dependent B(y), which a decreasing
reaction can make indefinite, by LAPACK's pivoting tridiagonal LU
(dgttrf).  Otherwise each is one SuperLU call, which orders B_m by minimum
degree.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgttrf, dgttrs, dpttrf, dpttrs
from scipy.sparse.linalg import splu

from .grid import (PER_INTERVAL, DiffusionTensor, SpaceGrid, SpaceTimeField,
                   field_at_nodes, field_per_interval)
from .nonlinearity import clamp_idle, eval_a_truncated, eval_ay_truncated
from .problem import ProblemSpec


# Newton stops at a residual norm of _NEWTON_TOL relative to max(|rhs|, 1)
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 30
# a Newton pass gives up after this many growing residual norms in a row
_NEWTON_MAX_GROWTH = 3
# the chord and the refinement stop at corrections of _SPLIT_TOL relative to
# the iterate: roundoff in the state
_SPLIT_TOL = 4 * np.finfo(float).eps


def _residual_tol(rhs: np.ndarray) -> float:
    """Newton's residual test for a step with right-hand side rhs."""
    return _NEWTON_TOL * max(float(np.linalg.norm(rhs)), 1.0)


class NewtonError(RuntimeError):
    """Newton failed to reach the residual tolerance within its budget, or
    a step matrix it or a linear sweep needed is exactly singular."""


_SINGULAR = "step matrix I + dt*A_h + dt*diag(a_M'(y)) is exactly singular"


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


class _SparseFactor:
    """Solves B x = b with SuperLU's partial-pivoting LU of the CSC matrix
    B = B(w) in SuperLU's own minimum-degree ordering (X. S. Li, ACM TOMS
    31(3), 2005), where shift = dt*a_M'(w), the only part of B(w) that
    varies.  An exactly singular B raises NewtonError."""

    __slots__ = ("lu", "shift")

    def __init__(self, matrix: sp.csc_matrix, shift: np.ndarray):
        # symmetric mode prefers the diagonal pivot, as the symmetric
        # ordering assumes; a pivot below 0.1 of its column's largest entry
        # is still exchanged, which covers the step matrices a decreasing
        # reaction makes indefinite
        try:
            self.lu = splu(matrix, permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0.1,
                           options={"SymmetricMode": True})
        except RuntimeError as exc:     # "Factor is exactly singular"
            raise NewtonError(_SINGULAR) from exc
        self.shift = shift

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self.lu.solve(b)

    def solve_in_place(self, b: np.ndarray) -> None:
        b[:] = self.lu.solve(b)


class _TridiagonalFactor:
    """Solves B x = b with the partial-pivoting LU of a tridiagonal B = B(w)
    given by its lower, main and upper diagonals (LAPACK dgttrf/dgttrs;
    Golub & Van Loan, Matrix Computations, 4.3); shift as for
    _SparseFactor.  An exactly singular B raises NewtonError."""

    __slots__ = ("lu", "shift")

    def __init__(self, lower: np.ndarray, main: np.ndarray,
                 upper: np.ndarray, shift: np.ndarray):
        *self.lu, info = dgttrf(lower, main, upper)
        if info > 0:                    # a zero pivot u_ii
            raise NewtonError(_SINGULAR)
        self.shift = shift

    def solve(self, b: np.ndarray) -> np.ndarray:
        return dgttrs(*self.lu, b)[0]


class _ConstantTridiagonalFactor:
    """Solves B x = b with the L D L^T factorization of the symmetric
    positive definite tridiagonal B = I + dt*A_h, the zero reaction's
    constant step matrix, given by its main and off diagonals (LAPACK
    dpttrf/dpttrs; Golub & Van Loan, Matrix Computations, 4.3.6): no
    pivots.  Its shift is zero.  An info != 0, a pivot d_ii <= 0, raises
    NewtonError."""

    __slots__ = ("d", "e", "shift")

    def __init__(self, main: np.ndarray, off: np.ndarray):
        self.d, self.e, info = dpttrf(main, off)
        if info != 0:
            raise NewtonError(_SINGULAR)
        self.shift = np.zeros_like(main)

    def solve(self, b: np.ndarray) -> np.ndarray:
        return dpttrs(self.d, self.e, b)[0]

    def solve_in_place(self, b: np.ndarray) -> None:
        # overwrite_b only permits the solve in b: f2py copies a b that is
        # not a contiguous float64 vector and returns the copy
        x = dpttrs(self.d, self.e, b, overwrite_b=1)[0]
        if x is not b:
            b[:] = x


class StepSystem:
    """Implicit Euler step matrices B(y) = I + dt*A_h + dt*diag(a_M'(y)).

    One per problem (ProblemSpec.steps).  I + dt*A_h is assembled once;
    factor(y) adds dt*a_M'(y) to its diagonal and factors the result.  The
    last factor made is held and returned again for the same B(y).  Each
    step m = 1..n_t also holds the factor its last linear_step left, which
    step's chord and the next linear_step iterate on.

    The zero reaction's B is the constant, symmetric positive definite
    I + dt*A_h.  It is factored once, here, and is `constant`, None for
    every other reaction: the sweeps march on it in place, one solve per
    implicit step, with no step, linear_step or reaction evaluated.  In
    1D, with at least 3 nodes, that factor is LAPACK's L D L^T of the
    tridiagonal matrix (_ConstantTridiagonalFactor); otherwise one
    SuperLU call.

    In 1D, with at least 3 nodes, B(y) is tridiagonal: the three diagonals
    of I + dt*A_h are stored, and each factor(y) of a state-dependent B(y)
    is LAPACK's partial-pivoting tridiagonal LU of them
    (_TridiagonalFactor).  scipy's dgttrf wrapper rejects 1 or 2 nodes,
    which take the sparse path.

    Otherwise I + dt*A_h is kept as CSC, and factor(y) writes it into one
    CSC work matrix, adds the shift to the diagonal entries and factors
    that by one SuperLU call (_SparseFactor), which keeps no reference to
    it.  Both LUs pivot, which covers the step matrices a decreasing
    reaction makes indefinite.
    """

    def __init__(self, spec: ProblemSpec):
        self.nl = spec.nonlinearity
        self.level = spec.truncation
        self.dt = spec.tgrid.dt
        self.operator_matrix = elliptic_matrix(spec.grid, spec.diffusion)
        n = self.operator_matrix.shape[0]
        base = (sp.identity(n, format="csr")
                + self.dt * self.operator_matrix).tocsc()
        zero = self.nl.kind == "zero"
        # _slots[m - 1]: the factor of B(w_m) that step m holds, or None
        self._slots = [None] * spec.tgrid.n_t
        if spec.grid.n_dim == 1 and n >= 3:
            # lower, main and upper diagonals of base
            self._bands = tuple(base.diagonal(k) for k in (-1, 0, 1))
            self.constant = (_ConstantTridiagonalFactor(*self._bands[1:])
                             if zero else None)
        else:
            self._bands = None
            self._base = base
            self._work = base.copy()
            self.constant = (_SparseFactor(base, np.zeros(n))
                             if zero else None)
            # data index of each diagonal entry, by node; 1 + dt*a_ii > 0,
            # so all are stored
            columns = np.repeat(np.arange(n), np.diff(base.indptr))
            self._diagonal = np.flatnonzero(base.indices == columns)
        # the factor of the last factor() call that factored; the constant
        # factor's shift is zero, as every zero reaction's shift is
        self._held = self.constant

    def factor(self, y: np.ndarray):
        """Factorization of B(y), with a solve(b) method and its shift
        dt*a_M'(y); it keeps its own copy of the matrix.

        The last factor made is held and returned again while the shift is
        bitwise equal: both LUs are deterministic, so a fresh factor would
        be bitwise the same.  An exactly singular B(y) raises NewtonError
        and is not held."""
        shift = self.dt * eval_ay_truncated(self.nl, self.level, y)
        if self._held is not None and np.array_equal(shift, self._held.shift):
            return self._held
        if self._bands is not None:
            lower, main, upper = self._bands
            self._held = _TridiagonalFactor(lower, main + shift, upper, shift)
            return self._held
        np.copyto(self._work.data, self._base.data)
        self._work.data[self._diagonal] += shift
        self._held = _SparseFactor(self._work, shift)
        return self._held

    @staticmethod
    def _split(lu, x: np.ndarray, source, shrink: float, residual,
               tol: float) -> np.ndarray | None:
        """x <- lu^-1 source(x) from x.  Stops once the correction norm d_k
        is at most _SPLIT_TOL |x|, or, from the second correction on with
        the rate rho = d_k / d_(k-1), once rho/(1 - rho) d_k is, or rho is
        shrink or more; else after _NEWTON_MAX_ITER corrections.  Returns
        the last iterate when its residual norm meets tol, the one residual
        evaluated; else None, also once a correction is not finite or
        overflows."""
        previous = None
        try:
            for _ in range(_NEWTON_MAX_ITER):
                new = lu.solve(source(x))
                correction = new - x
                x = new
                delta = math.sqrt(correction @ correction)
                if not delta < np.inf:
                    return None
                bound = _SPLIT_TOL * math.sqrt(x @ x)
                if delta <= bound:
                    break
                if previous is not None:
                    rho = delta / previous
                    if not rho < shrink or rho * delta <= (1.0 - rho) * bound:
                        break
                previous = delta
            return x if np.linalg.norm(residual(x)) <= tol else None
        except (OverflowError, FloatingPointError):
            return None

    def _newton(self, residual, tol: float, y: np.ndarray) -> np.ndarray | None:
        """y <- y - B(y)^-1 R(y) from y, R = residual, refactored at every
        iterate; returns the first iterate whose residual norm meets tol,
        or None after _NEWTON_MAX_ITER iterations, _NEWTON_MAX_GROWTH
        growing residual norms in a row, or an overflow."""
        previous, growth = np.inf, 0
        try:
            for _ in range(_NEWTON_MAX_ITER):
                residual_y = residual(y)
                norm = np.linalg.norm(residual_y)
                if norm <= tol:
                    return y
                growth = growth + 1 if norm > previous else 0
                if not norm < np.inf or growth == _NEWTON_MAX_GROWTH:
                    break
                previous = norm
                y = y - self.factor(y).solve(residual_y)
        except (OverflowError, FloatingPointError):
            pass
        return None

    def step(self, rhs: np.ndarray, y_start: np.ndarray, m: int,
             guess: np.ndarray | None = None) -> np.ndarray:
        """Solve y + dt*A_h y + dt*a_M(y) = rhs, implicit step m.

        When guess, a start near the root, is given and step m holds a
        factor, the chord on it from guess comes first (_split with shrink
        1/4, certified by Newton's residual test); when it fails, or there
        is none, one undamped Newton pass runs from y_start, and then
        NewtonError.  Newton's factors are not held for step m.  Callers
        enter np.errstate(over="raise"), as solve_state does."""
        dt, nl, level = self.dt, self.nl, self.level
        tol = _residual_tol(rhs)

        def residual(y):
            return (y + dt * (self.operator_matrix @ y)
                    + dt * eval_a_truncated(nl, level, y) - rhs)

        lu = self._slots[m - 1]
        if guess is not None and lu is not None:
            y = self._split(
                lu, guess,
                lambda x: rhs + lu.shift * x
                - dt * eval_a_truncated(nl, level, x),
                0.25, residual, tol)
            if y is not None:
                return y
        y = self._newton(residual, tol, y_start)
        if y is None:
            raise NewtonError(
                f"implicit step did not converge to tol={_NEWTON_TOL} within "
                f"{_NEWTON_MAX_ITER} iterations")
        return y

    def linear_step(self, rhs: np.ndarray, y: np.ndarray,
                    m: int) -> np.ndarray:
        """Solve B(y) p = rhs, implicit step m.

        When step m holds a factor, of B(w) at another state w, iterative
        refinement on it from p = 0 comes first (_split with shrink 1/1000,
        certified by Newton's residual test); when it fails, or there is
        none, B(y) is factored once, solved directly and held for step m: a
        refinement that contracts slower costs more solves than one
        factorization."""
        lu = self._slots[m - 1]
        if lu is not None:
            shift = self.dt * eval_ay_truncated(self.nl, self.level, y)
            gap = shift - lu.shift
            p = self._split(
                lu, np.zeros_like(rhs), lambda p: rhs - gap * p, 1e-3,
                lambda p: (1.0 + shift) * p
                + self.dt * (self.operator_matrix @ p) - rhs,
                _residual_tol(rhs))
            if p is not None:
                return p
        self._slots[m - 1] = lu = self.factor(y)
        return lu.solve(rhs)


def clamp_idle_on_states(spec: ProblemSpec, y: SpaceTimeField) -> bool:
    """True when no state y_m, m >= 1, reaches the reaction clamp.  y_0 is
    not checked: the reaction, and so the clamp, enters only at m >= 1."""
    return clamp_idle(spec.truncation, y.values[1:])


def solve_state(spec: ProblemSpec, u: SpaceTimeField,
                near: SpaceTimeField | None = None) -> SpaceTimeField:
    """March the state equation forward from spec.y0 under the control u.

    u must be per-interval on spec's grids.  near, when given, is a nearby
    state: step m then starts with chord iterations on the step system's
    held factor from near_m (StepSystem.step).  Emits
    TruncationActiveWarning when a computed state y_m, m >= 1, leaves
    (-M, M); the solution is still returned.
    """
    if u.slice_semantics != PER_INTERVAL:
        raise ValueError("control must be a per-interval field")
    if u.grid != spec.grid or u.tgrid != spec.tgrid:
        raise ValueError("control lives on different grids")
    steps = spec.steps
    y = np.empty((spec.tgrid.n_t + 1, spec.grid.n_nodes))
    y[0] = spec.y0
    _march(spec, y, spec.tgrid.dt * u.values, False, "state",
           lambda rhs, m: steps.step(rhs, y[m - 1], m,
                                     None if near is None else near.values[m]))
    state = field_at_nodes(spec.grid, spec.tgrid, y)
    if not clamp_idle_on_states(spec, state):
        warnings.warn(
            f"state magnitude {np.max(np.abs(y[1:])):.3g} reached the clamp "
            f"level {spec.truncation:.3g}; the clamped equation was solved",
            TruncationActiveWarning, stacklevel=2)
    return state


def _march(spec: ProblemSpec, x: np.ndarray, source: np.ndarray,
           backward: bool, sweep: str, step) -> None:
    """x[m] = S_m(x[m - 1] + source[m - 1]), m = 1..n_t, or backward
    x[m] = S_m(x[m + 1] + source[m - 1]), m = n_t..1, in place: each step
    adds into row m, and S_m, the solve of implicit step m, is step(rhs, m),
    or on the step system's constant factor one solve in place.  A failure
    raises NewtonError naming the sweep and the step."""
    constant = spec.steps.constant
    solve = None if constant is None else constant.solve_in_place
    n_t = spec.tgrid.n_t
    previous = 1 if backward else -1
    try:
        with np.errstate(over="raise"):
            for m in range(n_t, 0, -1) if backward else range(1, n_t + 1):
                rhs = np.add(x[m + previous], source[m - 1], out=x[m])
                if solve is None:
                    x[m] = step(rhs, m)
                else:
                    solve(rhs)
    except (NewtonError, FloatingPointError) as exc:
        raise NewtonError(f"{sweep} solver failed at step {m}: {exc}") from exc


def _linear_sweep(spec: ProblemSpec, y: SpaceTimeField, source: np.ndarray,
                  backward: bool) -> SpaceTimeField:
    """z_m = B(y_m)^-1 (z_{m-1} + source[m - 1]), m = 1..n_t from z_0 = 0,
    at the nodes; or backward p_m = B(y_m)^-1 (p_{m+1} + source[m - 1]),
    m = n_t..1 from p_{n_t+1} = 0, per interval.  Each step refines on the
    step system's held factor, or factors B(y_m) and holds that
    (StepSystem.linear_step); a constant B is marched on its one factor.
    """
    steps = spec.steps
    x = np.zeros((spec.tgrid.n_t + 2, spec.grid.n_nodes))
    _march(spec, x, source, backward, "adjoint" if backward else "linearized",
           lambda rhs, m: steps.linear_step(rhs, y.values[m], m))
    if backward:
        return field_per_interval(spec.grid, spec.tgrid, x[1:-1])
    return field_at_nodes(spec.grid, spec.tgrid, x[:-1])


def solve_linearized(spec: ProblemSpec, y: SpaceTimeField,
                     v: SpaceTimeField) -> SpaceTimeField:
    """Directional state derivative at y in the control direction v."""
    if v.slice_semantics != PER_INTERVAL:
        raise ValueError("direction must be a per-interval field")
    return _linear_sweep(spec, y, spec.tgrid.dt * v.values, False)


def solve_adjoint(spec: ProblemSpec, y: SpaceTimeField) -> SpaceTimeField:
    """Backward solve with right-hand side y - yd, the exact transpose of
    the forward linearization (with B_m = B_m^T).  Per-interval field.  The
    factors it leaves held serve the chord of a later
    solve_state(spec, u, y).
    """
    source = spec.tgrid.dt * (y.values[1:] - spec.yd.values[1:])
    return _linear_sweep(spec, y, source, True)
