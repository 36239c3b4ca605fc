"""Implicit Euler solvers for the reaction-diffusion state equation, its
linearization, and the exact discrete adjoint.

State steps, m = 1..n_t with y_0 the initial datum:

    (y_m - y_{m-1})/dt + A_h y_m + a_M(y_m) = u_m,

a_M the reaction under the clamp f_M (nonlinearity) at the problem's level
M = ProblemSpec.truncation, which the step system reads once.  Each step is
solved by Newton, x <- x - B(x)^-1 R(x) from y_{m-1}, R the step's residual
and B(x) = I + dt A_h + dt diag(a_M'(x)) refactored at every iterate.  The
zero reaction's B is the constant I + dt A_h, factored once: every sweep
marches on it, one solve per step.  The step system holds one factor lu
of B(w_m) per step m, at an earlier state w, with its shift
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

    p <- lu^-1 (rhs - (dt a_M'(y_m) - s_w) p)   from p = p'_m, or from 0,

p' a nearby adjoint when the caller has one (an optimizer passes the last
accepted one): from 0, these are the iterates of p <- p - lu^-1 (B_m p -
rhs) from p = lu^-1 rhs.  The shifts dt a_M'(y_m) are evaluated once per
sweep, for all steps.

Both splittings stop on their correction norms d_k: settled at d_k or,
from the second correction on with rate rho = d_k/d_(k-1), at
rho/(1 - rho) d_k below 4 eps |x|, roundoff in the state.  Only a settled
iterate is returned.  A splitting that gives up, on rho no better than
1/4 (chord) or 1/1000 (refinement), on a correction that is not finite,
or unsettled after 30 corrections, returns none, even where its last
iterate would pass the residual test (a start near the solution makes
that likely), and the step falls back at once: the state step to Newton
from y_{m-1}, whose factors are not held, the linear step to a
factorization of B_m, which then replaces the held one, and a direct
solve.  So does a step with no held factor yet.  The
sweep then certifies all its iterates on held factors at once, after the
march: Newton's test |R_m| <= 1e-12 max(|rhs_m|, 1) on the stack of steps,
one product of A_h with it and one reaction evaluation.  From the first
step that fails the test the sweep runs the fallback there and resumes
one step at a time: the same chord or refinement, its iterate checked on
its own by the same test, and the fallback where that fails.  Every step
returned meets the test, and when every step passes, the result is
bitwise that of checking each step on its own.  A Newton pass gives up
after 3 growing residual norms in a row.  Each sweep runs under
np.errstate(over="raise"), entered once, so an overflow ends an
iteration.  Every sweep writes its source for all steps before the loop,
and its NewtonError names the sweep and the step.  A march on the
constant factor writes it straight into the rows it marches and solves
each row in place, so the march itself allocates no array beside the
sweep's buffer.  A march on held factors writes it into an array of its
own, which the certification reads again.

A_h is the finite-difference operator on interior nodes: the standard
3/5-point stencil for the diagonal part plus centered cross differences for
the off-diagonal tensor entry, Dirichlet values eliminated (_stencil).  The
step system multiplies by it on the node array, term by term in CSR's
column order, so its products are bitwise those of the CSR matrix
elliptic_matrix assembles.  A_h is exactly symmetric, bit for bit (the
tests assert it), so B_m^T = B_m and one StepSystem serves the state,
linearized and adjoint sweeps.  It is built once per problem
(ProblemSpec.steps) and reused, held factors and all, by every sweep on it
and by every budget of a budget sweep (ProblemSpec.with_budget); a
dataclasses.replace copy of the problem starts with none held.
StepSystem's docstring says which factor serves each B(y) and names each
counter of the work it counts (StepSystem.work).  scipy is imported where
LAPACK, SuperLU or ARPACK first runs, so a 2D run on separable step
matrices loads none of it.
"""

from __future__ import annotations

import itertools
import math
import warnings
from typing import TYPE_CHECKING

import numpy as np

from .grid import (AT_NODES, PER_INTERVAL, DiffusionTensor, SpaceGrid,
                   SpaceTimeField, field_at_nodes, field_per_interval,
                   require_field)
from .nonlinearity import clamp_idle, eval_a_truncated, eval_ay_truncated
from .problem import ProblemSpec

if TYPE_CHECKING:
    import scipy.sparse as sp


# Newton stops at a residual norm of _NEWTON_TOL relative to max(|rhs|, 1)
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 30
# a Newton pass gives up after this many growing residual norms in a row
_NEWTON_MAX_GROWTH = 3
# the chord and the refinement stop at corrections of _SPLIT_TOL relative to
# the iterate: roundoff in the state
_SPLIT_TOL = 4 * np.finfo(float).eps


class NewtonError(RuntimeError):
    """Newton failed to reach the residual tolerance within its budget, or
    a step matrix it or a linear sweep needed is exactly singular."""


_SINGULAR = "step matrix I + dt*A_h + dt*diag(a_M'(y)) is exactly singular"


class TruncationActiveWarning(UserWarning):
    """The computed state touched the reaction clamp; results describe the
    clamped equation, not the original one."""


def _stencil(grid: SpaceGrid, tensor: DiffusionTensor) -> dict:
    """A_h's stencil: offset -> value of each nonzero entry of a row, the
    offset one step per axis, in ascending column order.  D2 and D1 are the
    Dirichlet-eliminated second and centered first differences.  In 1D,
    A_h is a_00 D2; in 2D, with node (i, j) at row i*n + j, it is the
    9-point stencil a_00 D2 x I + a_11 I x D2 - 2 a_01 D1 x D1, whose
    corners vanish for a diagonal tensor."""
    if tensor.n_dim != grid.n_dim:
        raise ValueError("tensor dimension does not match the grid")
    h, a = grid.h, tensor.as_array()
    main, off, first = 2.0 / h**2, -1.0 / h**2, 1.0 / (2.0 * h)
    if grid.n_dim == 1:
        values = [a[0, 0] * off, a[0, 0] * main, a[0, 0] * off]
    else:
        corner = 2.0 * a[0, 1] * (first * first)
        values = [-corner, a[0, 0] * off, corner, a[1, 1] * off,
                  a[0, 0] * main + a[1, 1] * main, a[1, 1] * off,
                  corner, a[0, 0] * off, -corner]
    offsets = itertools.product((-1, 0, 1), repeat=grid.n_dim)
    return {o: float(v) for o, v in zip(offsets, values) if v != 0.0}


def elliptic_matrix(grid: SpaceGrid, tensor: DiffusionTensor) -> sp.csr_matrix:
    """Assembled sparse matrix A_h of -div(a_ij grad) on interior nodes.

    Each row is the stencil (_stencil) written straight into CSR: entries
    off the grid, and zero ones, are left out.  Exactly symmetric, cross
    term included (the adjoint relies on this), and positive definite;
    tests assert both on tiny grids, symmetry bitwise.
    """
    import scipy.sparse as sp

    stencil = _stencil(grid, tensor)
    n, n_dim, n_nodes = grid.n_per_axis, grid.n_dim, grid.n_nodes
    offsets = np.array(list(stencil), dtype=np.int32)
    values = np.array(list(stencil.values()))
    nodes = np.indices((n,) * n_dim, dtype=np.int32).reshape(n_dim, -1).T
    neighbours = nodes[:, None, :] + offsets
    keep = np.all((neighbours >= 0) & (neighbours < n), axis=2)
    columns = (neighbours @ (n ** np.arange(n_dim - 1, -1, -1))).astype(
        np.int32)
    indptr = np.zeros(n_nodes + 1, dtype=np.int32)
    np.cumsum(np.sum(keep, axis=1), out=indptr[1:])
    return sp.csr_matrix(
        (np.broadcast_to(values, keep.shape)[keep], columns[keep], indptr),
        shape=(n_nodes, n_nodes))


# the nodes a stencil entry of offset -1, 0 or +1 along an axis writes to,
# and the nodes it reads
_REACH = {-1: (slice(1, None), slice(None, -1)),
          0: (slice(None), slice(None)),
          1: (slice(None, -1), slice(1, None))}
# 2D separable factors on at most this many nodes per axis hold B^-1 as a
# dense matrix: one product per solve beats four below about 15 nodes
_DENSE_MAX_NODES = 14


class _SparseFactor:
    """Solves B x = b with SuperLU's partial-pivoting LU of the CSC matrix
    B = B(w) in SuperLU's own minimum-degree ordering (X. S. Li, ACM TOMS
    31(3), 2005), where shift = dt*a_M'(w), the only part of B(w) that
    varies.  An exactly singular B raises NewtonError."""

    __slots__ = ("lu", "shift", "work")

    def __init__(self, matrix: sp.csc_matrix, shift: np.ndarray, work: dict):
        from scipy.sparse.linalg import splu

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
        self.shift, self.work = shift, work

    def solve(self, b: np.ndarray) -> np.ndarray:
        """B^-1 b; may overwrite b."""
        self.work["superlu_solves"] += 1
        return self.lu.solve(b)


class _SeparableFactor:
    """Solves B x = b for a separable step matrix B = (1 + s) I + dt*A_h:
    a shift s = dt*a_M'(w) equal at every node, and a tensor with no cross
    term, on at least 3 nodes per axis.

    In 1D, B is tridiagonal and symmetric positive definite, factored by
    LAPACK's L D L^T (dpttrf; Golub & Van Loan, Matrix Computations,
    4.3.6) with no pivots; tridiagonal holds dpttrs and dpttrf's factor
    (d, e), and a solve is dpttrs on b, in place, returning b itself.  In
    2D, with node (i, j) at row i*n + j, the orthonormal sine matrix Q_pi
    = sqrt(2h) sin(p i pi h), symmetric and its own inverse, diagonalizes
    D2 with eigenvalues lambda_p = (2/h sin(p pi h/2))^2 along both axes,
    so B = (Q x Q) diag(1 + s + dt*(a_00 lambda_p + a_11 lambda_q)) (Q x
    Q) (fast diagonalization: Lynch, Rice & Thomas, Numer. Math. 6, 1964).
    inverse holds the n x n reciprocals of that diagonal, and a solve of
    the n x n node array X is Q((Q X Q) * inverse)Q; sine is Q.  On at
    most _DENSE_MAX_NODES nodes per axis, inverse is instead B^-1 itself,
    dense, sine is None, and a solve is one product."""

    __slots__ = ("tridiagonal", "inverse", "sine", "shift", "work")

    def __init__(self, tridiagonal: tuple | None, inverse: np.ndarray | None,
                 sine: np.ndarray | None, shift: np.ndarray, work: dict):
        self.tridiagonal, self.inverse, self.sine = tridiagonal, inverse, sine
        self.shift, self.work = shift, work

    def solve(self, b: np.ndarray) -> np.ndarray:
        """B^-1 b; may overwrite b."""
        self.work["separable_solves"] += 1
        if self.tridiagonal is not None:
            dpttrs, d, e = self.tridiagonal
            return dpttrs(d, e, b, 1)[0]
        if self.sine is None:
            return self.inverse @ b
        q = self.sine
        n = len(q)
        return (q @ ((q @ b.reshape(n, n) @ q) * self.inverse) @ q).ravel()


class StepSystem:
    """Implicit Euler step matrices B(y) = I + dt*A_h + dt*diag(a_M'(y)).

    One per problem (ProblemSpec.steps).  It multiplies by A_h with the
    stencil (_product), and holds A_h assembled only in SuperLU's work
    matrix.  factor(y) picks the factor by what B(y) is:

    - separable (_SeparableFactor): the shift dt*a_M'(y) is bitwise equal
      at every node, the tensor has no cross term and each axis has at
      least 3 nodes.  Then B(y) = (1 + s) I + dt*A_h is tridiagonal in
      1D, factored by one dpttrf, and in 2D diagonal in the sine basis,
      its eigenvalues in closed form; it is taken unless dpttrf finds, or
      an eigenvalue shows, B(y) not positive definite.  This covers the
      zero reaction, the linear one while the clamp is idle, and B(0) of a
      reaction with a(0) = 0 from a zero initial state, the factor a
      warm-started solve keeps.  A 2D solve costs four dense n x n
      products, or, on at most 14 nodes per axis, where that is faster,
      one product with the dense inverse.
    - otherwise (_SparseFactor): factor(y) writes B(y) into one CSC work
      matrix, dt*A_h built from elliptic_matrix at the first SuperLU
      factorization, by rewriting its diagonal entries as 1 + dt*a_ii +
      shift, and factors that by one SuperLU call, which keeps no
      reference to it.  SuperLU pivots, which covers the step matrices a
      decreasing reaction makes indefinite, and raises NewtonError on an
      exactly singular one, as a separable B(y) that is not positive
      definite takes this way too.

    The last factor made is held and returned again for the same B(y).
    Each step m = 1..n_t also holds the factor its last refactor left,
    which the chord and the refinement of step m iterate on.  chord and
    refine return only a settled iterate, newton a root that meets
    Newton's residual test and refactor a direct solve; the sweep (_march)
    certifies the iterates, one rule for every sweep.

    The zero reaction's B is the constant, symmetric positive definite
    I + dt*A_h.  It is factored once, here, and is `constant`, None for
    every other reaction: the sweeps march on it, one solve per implicit
    step, with no reaction evaluated, each step's source written into the
    row it solves in place (_march).

    work counts what the step system does, once per call, never per step:
    separable_factors, separable_rejected (a separable B(y) found not
    positive definite) and superlu_factors (calls, an exactly
    singular B(y) included); separable_solves and superlu_solves on the
    factors it made, every solve counting itself; newton_passes;
    state_sweeps, linearized_sweeps and adjoint_sweeps; certifications,
    the one stacked residual, and A_h product, of a sweep that ran
    iterates on held factors; and resumed_sweeps, those whose
    certification failed.  The constant's factorization is counted.  A
    dataclasses.replace copy of the problem starts anew; with_budget shares
    the counts.
    """

    def __init__(self, spec: ProblemSpec):
        self.nl = spec.nonlinearity
        self.level = spec.truncation
        self.dt = spec.tgrid.dt
        self._grid, self._tensor = spec.grid, spec.diffusion
        stencil = _stencil(spec.grid, spec.diffusion)
        n_dim = spec.grid.n_dim
        self._shape = (spec.grid.n_per_axis,) * n_dim
        # A_h's distinct stencil values, and its nonzero stencil entries as
        # (index of the value, nodes written, nodes read) on the node
        # array, in CSR's column order
        self._values = sorted(set(stencil.values()))
        self._terms = [
            (self._values.index(value),
             (...,) + tuple(_REACH[o][0] for o in offset),
             (...,) + tuple(_REACH[o][1] for o in offset))
            for offset, value in stencil.items()]
        # the diagonal 1 + dt*a_ii of I + dt*A_h, which B(y) shifts, the
        # same at every node
        self._main = 1.0 + self.dt * stencil[(0,) * n_dim]
        # _slots[m - 1]: the factor of B(w_m) that step m holds, or None
        self._slots = [None] * spec.tgrid.n_t
        self._work = self._held = None
        self._separable = self._separable_form(spec, stencil)
        self.work = dict.fromkeys((
            "separable_factors", "separable_rejected", "superlu_factors",
            "separable_solves", "superlu_solves", "newton_passes",
            "state_sweeps", "linearized_sweeps", "adjoint_sweeps",
            "certifications", "resumed_sweeps"), 0)
        # the zero reaction's shift is zero for every state, so factor()
        # returns the constant factor, held, for every state
        self.constant = (self._factor(np.zeros(spec.grid.n_nodes))
                         if self.nl.kind == "zero" else None)

    def _separable_form(self, spec: ProblemSpec, stencil: dict):
        """What a separable B(y) is factored from: in 1D the off diagonal
        dt*a_00*(-1/h^2) of I + dt*A_h; in 2D the sine matrix Q and the
        eigenvalues dt*(a_00 lambda_p + a_11 lambda_q) of dt*A_h on mode
        (p, q) (_SeparableFactor).  None where no B(y) is separable: with a
        cross term or fewer than 3 nodes per axis."""
        n, a = spec.grid.n_per_axis, spec.diffusion.as_array()
        if n < 3 or (spec.grid.n_dim == 2 and a[0, 1] != 0.0):
            return None
        if spec.grid.n_dim == 1:
            return np.full(n - 1, self.dt * stencil[(1,)])
        # p*i is reduced modulo 2(n + 1), so that sin sees an exact
        # multiple of pi h = pi/(n + 1)
        p, h = np.arange(1, n + 1), spec.grid.h
        sine = math.sqrt(2.0 * h) * np.sin(
            np.pi * (np.outer(p, p) % (2 * (n + 1))) / (n + 1))
        eigenvalues = (2.0 / h * np.sin(np.pi * p * h / 2.0)) ** 2
        return sine, self.dt * (a[0, 0] * eigenvalues[:, None]
                                + a[1, 1] * eigenvalues)

    def shift(self, y: np.ndarray) -> np.ndarray:
        """dt*a_M'(y), the part of B(y) that varies, for a state y or for
        each row of a stack of states."""
        return self.dt * eval_ay_truncated(self.nl, self.level, y)

    def factor(self, y: np.ndarray):
        """Factorization of B(y), with a solve(b) method and its shift
        dt*a_M'(y); it keeps its own copy of what it factored.

        The last factor made is held and returned again while the shift is
        bitwise equal: both factorizations are deterministic, so a fresh
        factor would be bitwise the same.  An exactly singular B(y) raises
        NewtonError and is not held."""
        return self._factor(self.shift(y))

    def _factor(self, shift: np.ndarray):
        """factor(y), given its shift dt*a_M'(y)."""
        if self._held is not None and np.array_equal(shift, self._held.shift):
            return self._held
        if self._separable is not None and np.all(shift == shift[0]):
            lu = self._separable_factor(shift)
            if lu is not None:
                self.work["separable_factors"] += 1
                self._held = lu
                return lu
            self.work["separable_rejected"] += 1
        if self._work is None:
            self._work = (self.dt * elliptic_matrix(self._grid,
                                                     self._tensor)).tocsc()
            # data index of each diagonal entry, by node; a_ii > 0, so all
            # are stored
            columns = np.repeat(np.arange(len(shift)),
                                np.diff(self._work.indptr))
            self._diagonal = np.flatnonzero(self._work.indices == columns)
        self._work.data[self._diagonal] = self._main + shift
        self.work["superlu_factors"] += 1
        self._held = _SparseFactor(self._work, shift, self.work)
        return self._held

    def _separable_factor(self, shift: np.ndarray):
        """The _SeparableFactor of B(y) at a uniform shift, or None where
        B(y) is not positive definite: dpttrf finds a pivot d_ii <= 0 in
        1D, and in 2D an eigenvalue is <= 0."""
        if self._grid.n_dim == 1:
            from scipy.linalg.lapack import dpttrf, dpttrs

            d, e, info = dpttrf(self._main + shift, self._separable)
            if info != 0:
                return None
            return _SeparableFactor((dpttrs, d, e), None, None, shift,
                                    self.work)
        sine, eigenvalues = self._separable
        denominator = (1.0 + shift[0]) + eigenvalues
        if not denominator.min() > 0.0:
            return None
        inverse = 1.0 / denominator
        if len(sine) > _DENSE_MAX_NODES:
            return _SeparableFactor(None, inverse, sine, shift, self.work)
        modes = np.kron(sine, sine)
        return _SeparableFactor(None, (modes * inverse.ravel()) @ modes, None,
                                shift, self.work)

    def _product(self, x: np.ndarray) -> np.ndarray:
        """A_h x for a vector x, or for each row of a stack x, by the
        stencil on the node array: x is scaled once by each distinct
        value, and the terms are added to zeros in CSR's column order, so
        the product is bitwise elliptic_matrix's."""
        nodes = x.reshape(x.shape[:-1] + self._shape)
        scaled = [value * nodes for value in self._values]
        product = np.zeros(nodes.shape)
        for k, written, read in self._terms:
            target = product[written]
            target += scaled[k][read]
        return product.reshape(x.shape)

    def residual(self, y: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """The step residual y + dt*A_h y + dt*a_M(y) - rhs, for a state or
        for each row of a stack of states and right-hand sides."""
        dt = self.dt
        return (y + dt * self._product(y)
                + dt * eval_a_truncated(self.nl, self.level, y) - rhs)

    def linear_residual(self, p: np.ndarray, shift: np.ndarray,
                        rhs: np.ndarray) -> np.ndarray:
        """B(y) p - rhs = (1 + shift) p + dt*A_h p - rhs, shift = dt*a_M'(y),
        for a vector or for each row of stacks."""
        return (1.0 + shift) * p + self.dt * self._product(p) - rhs

    @staticmethod
    def _split(lu, x: np.ndarray, source, shrink: float) -> np.ndarray | None:
        """x <- lu^-1 source(x) from x.  Returns the iterate once it has
        settled: the correction norm d_k is at most _SPLIT_TOL |x|, or, from
        the second correction on with the rate rho = d_k / d_(k-1),
        rho/(1 - rho) d_k is.  None once it gives up, on rho of shrink or
        more, a correction that is not finite or overflows, or no settled
        iterate after _NEWTON_MAX_ITER corrections.  Evaluates no
        residual."""
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
                    return x
                if previous is not None:
                    rho = delta / previous
                    if rho * delta <= (1.0 - rho) * bound:
                        return x
                    if not rho < shrink:
                        return None
                previous = delta
        except (OverflowError, FloatingPointError):
            pass
        return None

    def chord(self, rhs: np.ndarray, m: int,
              guess: np.ndarray | None) -> np.ndarray | None:
        """Chord iterate for implicit step m, y + dt*A_h y + dt*a_M(y) =
        rhs, from guess, a start near the root, on step m's held factor
        (_split with shrink 1/4), once it has settled; not certified.  None
        when guess is None, step m holds no factor, or the chord gives
        up."""
        lu = self._slots[m - 1]
        if guess is None or lu is None:
            return None
        dt, nl, level = self.dt, self.nl, self.level
        return self._split(
            lu, guess,
            lambda x: rhs + lu.shift * x - dt * eval_a_truncated(nl, level, x),
            0.25)

    def newton(self, rhs: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The root of implicit step y + dt*A_h y + dt*a_M(y) = rhs by one
        undamped Newton pass from y, x <- x - B(x)^-1 R(x), refactored at
        every iterate: the first iterate whose residual meets Newton's
        test.  NewtonError after _NEWTON_MAX_ITER iterations,
        _NEWTON_MAX_GROWTH growing residual norms in a row, or an overflow.
        Its factors are not held for any step."""
        self.work["newton_passes"] += 1
        tol = _NEWTON_TOL * max(float(np.linalg.norm(rhs)), 1.0)
        previous, growth = np.inf, 0
        try:
            for _ in range(_NEWTON_MAX_ITER):
                residual = self.residual(y, rhs)
                norm = np.linalg.norm(residual)
                if norm <= tol:
                    return y
                growth = growth + 1 if norm > previous else 0
                if not norm < np.inf or growth == _NEWTON_MAX_GROWTH:
                    break
                previous = norm
                y = y - self.factor(y).solve(residual)
        except (OverflowError, FloatingPointError):
            pass
        raise NewtonError(
            f"implicit step did not converge to tol={_NEWTON_TOL} within "
            f"{_NEWTON_MAX_ITER} iterations")

    def refine(self, rhs: np.ndarray, m: int, shift: np.ndarray,
               guess: np.ndarray | None = None) -> np.ndarray | None:
        """Iterative refinement for B(y) p = rhs, shift = dt*a_M'(y), on
        step m's held factor, of B(w) at another state w, from guess, or
        from p = 0 (_split with shrink 1/1000), once it has settled; not
        certified.  None when step m holds no factor or the refinement
        gives up: one that contracts slower costs more solves than one
        factorization, and from a start near the solution its iterate can
        pass the residual test on a factor too stale to keep."""
        lu = self._slots[m - 1]
        if lu is None:
            return None
        gap = shift - lu.shift
        return self._split(lu, np.zeros_like(rhs) if guess is None else guess,
                           lambda p: rhs - gap * p, 1e-3)

    def refactor(self, rhs: np.ndarray, m: int,
                 shift: np.ndarray) -> np.ndarray:
        """Solve B(y) p = rhs, shift = dt*a_M'(y), directly on a
        factorization of B(y), which step m then holds."""
        self._slots[m - 1] = lu = self._factor(shift)
        return lu.solve(rhs)


def _certified(residual, rhs: np.ndarray) -> np.ndarray:
    """Newton's test |R| <= 1e-12 max(|rhs|, 1) on a step, or on each row of
    a stack of steps, R = residual() the step residuals.  A residual that
    is not finite fails, and all fail when its evaluation overflows."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            norm = np.linalg.norm(residual(), axis=-1)
    except OverflowError:
        return np.zeros(rhs.shape[:-1], dtype=bool)
    return norm <= _NEWTON_TOL * np.maximum(np.linalg.norm(rhs, axis=-1), 1.0)


def clamp_idle_on_states(spec: ProblemSpec, y: SpaceTimeField) -> bool:
    """True when no state y_m, m >= 1, reaches the reaction clamp.  y_0 is
    not checked: the reaction, and so the clamp, enters only at m >= 1."""
    return clamp_idle(spec.truncation, y.values[1:])


def solve_state(spec: ProblemSpec, u: SpaceTimeField,
                near: SpaceTimeField | None = None) -> SpaceTimeField:
    """March the state equation forward from spec.y0 under the control u.

    u must be per-interval on spec's grids.  near, when given, is a nearby
    state: step m then starts with chord iterations on the step system's
    held factor from near_m (StepSystem.chord), certified by the march
    (_march); else, or when step m holds no factor or the chord gives up,
    one Newton pass from y_{m-1} (StepSystem.newton).  Emits TruncationActiveWarning when a computed
    state y_m, m >= 1, leaves (-M, M); the solution is still returned.
    """
    require_field(u, PER_INTERVAL, spec, "control u")
    if near is not None:
        require_field(near, AT_NODES, spec, "near")
    steps = spec.steps
    y = np.empty((spec.tgrid.n_t + 1, spec.grid.n_nodes))
    y[0] = spec.y0

    def guess(m):
        return None if near is None else near.values[m]

    dt = spec.tgrid.dt
    _march(spec, y, lambda out: np.multiply(u.values, dt, out=out), False,
           "state",
           lambda rhs, m: steps.chord(rhs, m, guess(m)),
           lambda rhs, m: steps.newton(rhs, y[m - 1]),
           lambda rows, x, rhs: steps.residual(x, rhs))
    state = field_at_nodes(spec.grid, spec.tgrid, y)
    if not clamp_idle_on_states(spec, state):
        warnings.warn(
            f"state magnitude {np.max(np.abs(y[1:])):.3g} reached the clamp "
            f"level {spec.truncation:.3g}; the clamped equation was solved",
            TruncationActiveWarning, stacklevel=2)
    return state


def _march(spec: ProblemSpec, x: np.ndarray, write_source, backward: bool,
           sweep: str, attempt, fallback, residual) -> None:
    """x[m] = S_m(x[m - 1] + s_m), m = 1..n_t, or backward
    x[m] = S_m(x[m + 1] + s_m), m = n_t..1, in place, where
    write_source(out) writes the sources s_1..s_n_t into the n_t rows of
    out.  On the step system's constant factor, S_m is one solve, and out
    is x[1..n_t] itself: each step adds its neighbour into its own row and
    solves that row in place, so the march allocates nothing.

    Otherwise out is an array of its own, and S_m is attempt(rhs, m), a
    settled iterate on step m's held factor, not yet certified, or, where
    that is None, fallback(rhs, m), which needs no certificate (a Newton
    root or a direct solve).  The iterates on held factors are certified
    together once the march is done: residual(rows, x[rows], rhs) are their
    step residuals, and each must meet Newton's test (_certified).  From
    the first step, in march order, that fails it, the sweep runs fallback
    there and resumes one step at a time: attempt again, its iterate kept
    when residual(m, iterate, rhs) meets the test, else fallback; so every
    step returned meets the test.  When a step fails after an uncertified
    one, the steps before it are certified first, as they may be the
    cause.  A failure raises NewtonError naming the sweep and the step."""
    constant, work = spec.steps.constant, spec.steps.work
    n_t = spec.tgrid.n_t
    work[sweep + "_sweeps"] += 1
    previous = 1 if backward else -1
    order = range(n_t, 0, -1) if backward else range(1, n_t + 1)
    source = (x[1:n_t + 1] if constant is not None
              else np.empty((n_t, x.shape[1])))
    write_source(source)
    try:
        with np.errstate(over="raise"):
            if constant is not None:
                solve = constant.solve
                for m in order:
                    row = x[m]
                    row += x[m + previous]
                    solved = solve(row)
                    if solved is not row:
                        x[m] = solved
                return
            pending, failure = [], None
            for m in order:
                try:
                    rhs = np.add(x[m + previous], source[m - 1], out=x[m])
                    iterate = attempt(rhs, m)
                    if iterate is None:
                        x[m] = fallback(rhs, m)
                    else:
                        x[m] = iterate
                        pending.append(m)
                except (NewtonError, FloatingPointError) as exc:
                    if not pending:
                        raise
                    failure = exc
                    break
            if pending:
                rows = np.array(pending)
                rhs = x[rows + previous] + source[rows - 1]
                work["certifications"] += 1
                passed = _certified(lambda: residual(rows, x[rows], rhs), rhs)
                if not passed.all():
                    work["resumed_sweeps"] += 1
                    first = pending[np.argmin(passed)]
                    for m in order[order.index(first):]:
                        rhs = np.add(x[m + previous], source[m - 1], out=x[m])
                        iterate = None if m == first else attempt(rhs, m)
                        if iterate is None or not _certified(
                                lambda: residual(m, iterate, rhs), rhs):
                            iterate = fallback(rhs, m)
                        x[m] = iterate
                    return
            if failure is not None:
                raise failure
    except (NewtonError, FloatingPointError) as exc:
        raise NewtonError(f"{sweep} solver failed at step {m}: {exc}") from exc


def _linear_sweep(spec: ProblemSpec, y: SpaceTimeField, write_source,
                  backward: bool,
                  near: np.ndarray | None = None) -> SpaceTimeField:
    """z_m = B(y_m)^-1 (z_{m-1} + s_m), m = 1..n_t from z_0 = 0, at the
    nodes; or backward p_m = B(y_m)^-1 (p_{m+1} + s_m), m = n_t..1 from
    p_{n_t+1} = 0, per interval, write_source(out) writing the sources
    s_1..s_n_t into the n_t rows of out (_march).  Each step refines on the
    step system's held factor, from near[m - 1] when near is given, else
    from 0, certified by the march (_march); or, when the refinement gives
    up or step m holds no factor, it factors B(y_m) and holds that
    (StepSystem.refine, refactor).  The shifts
    dt*a_M'(y_m) are evaluated once, for all steps.  A constant B is
    marched on its one factor.
    """
    steps = spec.steps
    x = np.empty((spec.tgrid.n_t + 2, spec.grid.n_nodes))
    x[0] = x[-1] = 0.0
    shifts = None if steps.constant is not None else steps.shift(y.values[1:])

    def guess(m):
        return None if near is None else near[m - 1]

    _march(spec, x, write_source, backward,
           "adjoint" if backward else "linearized",
           lambda rhs, m: steps.refine(rhs, m, shifts[m - 1], guess(m)),
           lambda rhs, m: steps.refactor(rhs, m, shifts[m - 1]),
           lambda rows, p, rhs: steps.linear_residual(p, shifts[rows - 1], rhs))
    if backward:
        return field_per_interval(spec.grid, spec.tgrid, x[1:-1])
    return field_at_nodes(spec.grid, spec.tgrid, x[:-1])


def solve_linearized(spec: ProblemSpec, y: SpaceTimeField,
                     v: SpaceTimeField) -> SpaceTimeField:
    """Directional state derivative at the state y in the control direction
    v: y at the nodes, v per interval, both on spec's grids."""
    require_field(y, AT_NODES, spec, "state y")
    require_field(v, PER_INTERVAL, spec, "direction v")
    dt = spec.tgrid.dt
    return _linear_sweep(
        spec, y, lambda out: np.multiply(v.values, dt, out=out), False)


def solve_adjoint(spec: ProblemSpec, y: SpaceTimeField,
                  near: SpaceTimeField | None = None) -> SpaceTimeField:
    """Backward solve with right-hand side y - yd, the exact transpose of
    the forward linearization (with B_m = B_m^T).  Per-interval field.
    The state y is at the nodes, on spec's grids.

    near, when given, is a nearby adjoint, such as the one at an earlier
    state: step m's refinement then starts from near_m, not from 0.  The
    factors it leaves held serve the chord of a later
    solve_state(spec, u, y).
    """
    require_field(y, AT_NODES, spec, "state y")
    if near is not None:
        require_field(near, PER_INTERVAL, spec, "near")

    def write_source(out):
        # dt*r_m, r_m = y_m - yd_m, written in place
        np.subtract(y.values[1:], spec.yd.values[1:], out=out)
        out *= spec.tgrid.dt

    return _linear_sweep(spec, y, write_source, True,
                         None if near is None else near.values)
