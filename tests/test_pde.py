import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import sparsecontrol as sc
from sparsecontrol import pde
from sparsecontrol.checks import check_adjoint_identity, mms_sine_error
from sparsecontrol.grid import like
from sparsecontrol.nonlinearity import eval_ay_truncated
from sparsecontrol.objective import weighted_product
from sparsecontrol.pde import NewtonError, StepSystem, TruncationActiveWarning

from conftest import (Y0_ONLY_CLAMP_LEVEL, active_schloegl_spec,
                      factorizations, linear_1d_spec, random_control,
                      schloegl_spec, with_clamp)


def heat_spec(n=16, n_t=32, T=0.05):
    grid = sc.SpaceGrid(2, n)
    tgrid = sc.TimeGrid(T, n_t)
    return sc.ProblemSpec(
        kappa=1.0, gamma=1e9, grid=grid, tgrid=tgrid,
        diffusion=sc.isotropic(2, 1.0),
        nonlinearity=sc.NonlinearitySpec("zero"),
        y0=sc.spatial_preset("one-mode", grid),
        yd=sc.target_preset("zero", grid, tgrid))


def test_elliptic_operator_symmetric_positive():
    # exact symmetry: the adjoint solves with the step matrix itself
    grid = sc.SpaceGrid(2, 5)
    for tensor in (sc.isotropic(2, 1.0),
                   sc.DiffusionTensor(((2.0, 0.4), (0.4, 1.0))),
                   sc.DiffusionTensor(((1.0, -0.3), (-0.3, 2.0)))):
        a = sc.elliptic_matrix(grid, tensor)
        assert abs(a - a.T).max() == 0.0
        assert np.linalg.eigvalsh(a.toarray()).min() > 0.0
    a1 = sc.elliptic_matrix(sc.SpaceGrid(1, 6), sc.isotropic(1, 2.0))
    assert abs(a1 - a1.T).max() == 0.0
    assert np.linalg.eigvalsh(a1.toarray()).min() > 0.0


@pytest.mark.parametrize("n_dim", [1, 2])
def test_elliptic_operator_spd_on_random_tensors(n_dim):
    # random anisotropic tensors and small grids, cross term included: the
    # zero reaction's step matrix I + dt*A_h, factored once and shared, and
    # the symmetric minimum-degree ordering of every step matrix rest on
    # A_h symmetric positive definite
    rng = np.random.default_rng(40 + n_dim)
    for _ in range(25):
        a11, a22 = np.exp(rng.uniform(-3.0, 3.0, 2))
        a12 = rng.uniform(-0.95, 0.95) * np.sqrt(a11 * a22)
        matrix = ((a11,),) if n_dim == 1 else ((a11, a12), (a12, a22))
        grid = sc.SpaceGrid(n_dim, int(rng.integers(1, 30 if n_dim == 1 else 9)))
        a_h = sc.elliptic_matrix(grid, sc.DiffusionTensor(matrix))
        assert abs(a_h - a_h.T).max() == 0.0
        assert np.linalg.eigvalsh(a_h.toarray()).min() > 0.0


def second_difference(n, h):
    """The Dirichlet-eliminated -d^2/dx^2 on n interior nodes, D2."""
    main, off = np.full(n, 2.0 / h**2), np.full(n - 1, -1.0 / h**2)
    return sp.diags([off, main, off], offsets=[-1, 0, 1], format="csr")


def test_1d_assembly_is_a00_times_the_second_difference_bitwise():
    for n in (1, 2, 3, 200):
        grid = sc.SpaceGrid(1, n)
        a_h = sc.elliptic_matrix(grid, sc.isotropic(1, 0.3))
        reference = 0.3 * second_difference(n, grid.h)
        assert a_h.format == "csr" and a_h.shape == reference.shape
        for attr in ("indptr", "indices", "data"):
            assert (getattr(a_h, attr).tobytes()
                    == getattr(reference, attr).tobytes()), (n, attr)


def kronecker_elliptic_matrix(grid, tensor):
    """The 2D A_h as a00 D2 x I + a11 I x D2 - 2 a01 D1 x D1 of the 1D
    second and centered first differences, by Kronecker products and
    sparse sums: the reference the stencil assembly must reproduce."""
    n, h = grid.n_per_axis, grid.h
    a = tensor.as_array()
    d2 = second_difference(n, h)
    eye = sp.identity(n, format="csr")
    off = np.full(n - 1, 1.0 / (2.0 * h))
    d1 = sp.diags([-off, off], offsets=[-1, 1], format="csr")
    return (a[0, 0] * sp.kron(d2, eye) + a[1, 1] * sp.kron(eye, d2)
            - 2.0 * a[0, 1] * sp.kron(d1, d1)).tocsr()


ELLIPTIC_TENSORS = {
    "isotropic": sc.isotropic(2, 0.3),
    "positive-cross": sc.DiffusionTensor(((2.0, 0.4), (0.4, 1.0))),
    "negative-cross": sc.DiffusionTensor(((1.0, -0.3), (-0.3, 2.0))),
}


@pytest.mark.parametrize("name", sorted(ELLIPTIC_TENSORS))
def test_stencil_assembly_equals_the_kronecker_form_bitwise(name):
    # with and without the cross term, the CSR arrays of the stencil
    # assembly are those of the Kronecker form bit for bit: as they are on
    # the workloads' 10 and 32 nodes per axis, and on every small grid once
    # the explicit zeros that scipy's Kronecker product stores on 2 nodes
    # are dropped
    tensor = ELLIPTIC_TENSORS[name]
    for n, drop_zeros in [(n, True) for n in range(1, 10)] + [(10, False),
                                                                (32, False)]:
        grid = sc.SpaceGrid(2, n)
        a_h = sc.elliptic_matrix(grid, tensor)
        reference = kronecker_elliptic_matrix(grid, tensor)
        if drop_zeros:
            reference.eliminate_zeros()
        assert a_h.shape == reference.shape
        for attr in ("indptr", "indices", "data"):
            assert (getattr(a_h, attr).tobytes()
                    == getattr(reference, attr).tobytes()), (n, attr)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 15])
@pytest.mark.parametrize("n_dim, tensor", [(1, sc.isotropic(1, 0.3))] + [
    (2, tensor) for _, tensor in sorted(ELLIPTIC_TENSORS.items())],
    ids=["1d"] + [f"2d-{name}" for name in sorted(ELLIPTIC_TENSORS)])
def test_stencil_product_equals_the_csr_product_bitwise(n_dim, tensor, n):
    # the step system multiplies by A_h on the node array, not by the CSR
    # matrix; for a vector and for a stack of them, with exact zeros of
    # both signs among the entries, the product is elliptic_matrix's bit
    # for bit
    spec = uniform_shift_spec(n_dim, n, tensor, 0.0)
    a_h = sc.elliptic_matrix(spec.grid, tensor)
    x = np.random.default_rng(n).standard_normal((5, spec.grid.n_nodes))
    x[:, ::3], x[:, 1::5] = 0.0, -0.0
    assert (spec.steps._product(x[0]).tobytes()
            == (a_h @ x[0]).tobytes())
    assert (spec.steps._product(x).tobytes()
            == np.ascontiguousarray((a_h @ x.T).T).tobytes())


def test_elliptic_operator_matches_laplacian_row():
    # interior row of the isotropic operator is the classic 5-point stencil
    grid = sc.SpaceGrid(2, 5)
    a = sc.elliptic_matrix(grid, sc.isotropic(2, 1.0))
    n = grid.n_per_axis
    center = 2 * n + 2          # node (2, 2), fully interior
    row = a.getrow(center).toarray().ravel()
    h2 = grid.h**2
    assert row[center] == pytest.approx(4.0 / h2)
    for neighbor in (center - 1, center + 1, center - n, center + n):
        assert row[neighbor] == pytest.approx(-1.0 / h2)


def test_zero_everything_gives_zero_state():
    spec = schloegl_spec(yd="zero", y0="zero")
    u = sc.field_per_interval(spec.grid, spec.tgrid)
    y = sc.solve_state(spec, u)
    assert np.all(y.values == 0.0)


def test_heat_mode_exact_discrete_decay():
    # the sine product is an exact eigenvector of the discrete operator, so
    # the discrete solution is a geometric decay, reproducible to roundoff
    spec = heat_spec()
    grid, tgrid = spec.grid, spec.tgrid
    u = sc.field_per_interval(grid, tgrid)
    y = sc.solve_state(spec, u)
    h = grid.h
    lam_h = 2.0 * (2.0 - 2.0 * np.cos(np.pi * h)) / h**2
    factors = (1.0 + tgrid.dt * lam_h) ** (-np.arange(tgrid.n_t + 1.0))
    exact = factors[:, None] * spec.y0[None, :]
    assert np.max(np.abs(y.values - exact)) <= 1e-10


def test_heat_mode_matches_analytic_decay():
    spec = heat_spec()
    y = sc.solve_state(spec, sc.field_per_interval(spec.grid, spec.tgrid))
    t_end = spec.tgrid.T
    analytic = np.exp(-2.0 * np.pi**2 * t_end) * spec.y0
    err = np.linalg.norm(y.values[-1] - analytic) / np.linalg.norm(analytic)
    assert err <= 0.05


def test_manufactured_solution_error_small():
    # module example: y* = exp(-t) sin(pi x1) sin(pi x2) with the cubic
    # bistable reaction; error is O(dt + h^2)
    coarse = mms_sine_error(8, 32, 0.2)
    finer = mms_sine_error(16, 128, 0.2)
    assert coarse <= 0.02
    assert finer < coarse


def test_anisotropic_manufactured_solution():
    # cross-term stencil exercised through a full solve: y* = exp(-t) sin
    # product under a tensor with off-diagonal 0.3
    a11, a12, a22 = 1.0, 0.3, 2.0
    errors = []
    for n in (8, 16):
        grid = sc.SpaceGrid(2, n)
        tgrid = sc.TimeGrid(0.2, 320)
        x = grid.coords()
        s1, s2 = np.sin(np.pi * x[:, 0]), np.sin(np.pi * x[:, 1])
        c1, c2 = np.cos(np.pi * x[:, 0]), np.cos(np.pi * x[:, 1])
        mode, cross = s1 * s2, c1 * c2
        decay = np.exp(-tgrid.interval_times())[:, None]
        forcing = decay * ((-1.0 + (a11 + a22) * np.pi**2) * mode
                           - 2.0 * a12 * np.pi**2 * cross)[None, :]
        spec = sc.ProblemSpec(
            kappa=1.0, gamma=1e9, grid=grid, tgrid=tgrid,
            diffusion=sc.DiffusionTensor(((a11, a12), (a12, a22))),
            nonlinearity=sc.NonlinearitySpec("zero"),
            y0=mode, yd=sc.target_preset("zero", grid, tgrid))
        y = sc.solve_state(spec, sc.field_per_interval(grid, tgrid, forcing))
        exact = np.exp(-tgrid.node_times())[:, None] * mode[None, :]
        errors.append(sc.l2_norm(like(y, y.values - exact)))
    assert errors[0] <= 0.02
    # second order in h: refining 1/9 -> 1/17 shrinks the error ~3.6x
    assert errors[0] / errors[1] >= 3.0


def test_linearized_zero_and_scaling():
    spec = schloegl_spec()
    rng = np.random.default_rng(2)
    u = random_control(spec, rng)
    y = sc.solve_state(spec, u)
    zero = sc.solve_linearized(spec, y, sc.field_per_interval(spec.grid, spec.tgrid))
    assert np.all(zero.values == 0.0)
    v = random_control(spec, rng)
    z = sc.solve_linearized(spec, y, v)
    z3 = sc.solve_linearized(spec, y, like(v, 3.0 * v.values))
    assert np.allclose(z3.values, 3.0 * z.values, rtol=1e-12, atol=1e-14)


def test_linearized_is_state_derivative():
    spec = schloegl_spec()
    rng = np.random.default_rng(4)
    u = random_control(spec, rng)
    v = random_control(spec, rng)
    y = sc.solve_state(spec, u)
    z = sc.solve_linearized(spec, y, v)
    errors = []
    for eps in (1e-2, 5e-3, 2.5e-3):
        y_eps = sc.solve_state(spec, like(u, u.values + eps * v.values))
        quotient = (y_eps.values - y.values) / eps
        errors.append(sc.l2_norm(like(y, quotient - z.values)))
    # first order in eps
    assert errors[1] <= 0.6 * errors[0]
    assert errors[2] <= 0.6 * errors[1]


def test_adjoint_identity_random_directions():
    result = check_adjoint_identity(schloegl_spec(), np.random.default_rng(6))
    assert result.passed, result.detail


SCHLOEGL = sc.NonlinearitySpec("schloegl", (-1.0, 0.0, 1.0))

# one problem per kind of step matrix: cross-derivative stencil, constant
# a', clamp engaged (a_M' != a'), and 1D; the last column is the clamp
# level, None for the automatic one
STEP_SYSTEM_CASES = {
    "anisotropic-schloegl": (2, sc.DiffusionTensor(((1.0, 0.3), (0.3, 2.0))),
                             SCHLOEGL, None),
    "linear": (2, sc.isotropic(2, 1.0), sc.NonlinearitySpec("linear", (2.0,)),
               None),
    "clamped-schloegl": (2, sc.isotropic(2, 1.0), SCHLOEGL, 0.05),
    "exponential-1d": (1, sc.isotropic(1, 1.0),
                       sc.NonlinearitySpec("exponential"), None),
}


def step_system_spec(name):
    n_dim, tensor, nonlinearity, level = STEP_SYSTEM_CASES[name]
    grid = sc.SpaceGrid(n_dim, 8 if n_dim == 2 else 12)
    tgrid = sc.TimeGrid(1.0, 10)
    return sc.ProblemSpec(
        kappa=0.1, gamma=1.0, grid=grid, tgrid=tgrid, diffusion=tensor,
        nonlinearity=nonlinearity, y0=sc.spatial_preset("one-mode", grid),
        yd=sc.target_preset("bump", grid, tgrid), truncation=level)


def fresh_step_matrix(spec, y):
    """I + dt*A_h + dt*diag(a_M'(y)), assembled anew in the original order."""
    return (sp.identity(spec.grid.n_nodes, format="csc")
            + spec.tgrid.dt * sc.elliptic_matrix(spec.grid, spec.diffusion)
            + sp.diags(spec.tgrid.dt
                       * eval_ay_truncated(spec.nonlinearity, spec.truncation,
                                           y))).tocsc()


@pytest.mark.filterwarnings("ignore::sparsecontrol.pde.TruncationActiveWarning")
@pytest.mark.parametrize("name", sorted(STEP_SYSTEM_CASES))
def test_adjoint_identity_across_step_systems(name):
    spec = step_system_spec(name)
    result = check_adjoint_identity(spec, np.random.default_rng(6))
    assert result.passed, result.detail
    if STEP_SYSTEM_CASES[name][3] is not None:
        # the check's first state, from the first draw of the same seed
        y = sc.solve_state(spec, random_control(spec, np.random.default_rng(6)))
        assert np.max(np.abs(y.values)) > spec.truncation


@pytest.mark.parametrize("name", sorted(STEP_SYSTEM_CASES))
def test_step_system_matrix_matches_fresh_assembly(name):
    # the matrix factor(y) factors has the structure and bits of
    # I + dt*A + diag(dt*a_M'(y)) assembled anew: the CSC work matrix
    # SuperLU factored, in 1D and 2D alike, against the fresh matrix in the
    # original order.  The linear reaction's shift is uniform, so its
    # factor is the separable one, which builds no work matrix and solves
    # the fresh matrix
    spec = step_system_spec(name)
    y = 2.0 * np.random.default_rng(3).standard_normal(spec.grid.n_nodes)
    steps = StepSystem(spec)
    fresh = fresh_step_matrix(spec, y)
    lu = steps.factor(y)
    if name == "linear":
        assert isinstance(lu, pde._SeparableFactor) and steps._work is None
        b = np.random.default_rng(4).standard_normal(spec.grid.n_nodes)
        reference = splu(fresh).solve(b)
        assert (np.linalg.norm(lu.solve(b) - reference)
                <= 1e-13 * np.linalg.norm(reference))
        return
    assert factorizations(steps) == {"superlu_factors": 1}
    fresh = fresh.sorted_indices()
    for attr in ("indptr", "indices", "data"):
        assert (getattr(steps._work, attr).tobytes()
                == getattr(fresh, attr).tobytes())


def test_work_starts_at_zero_on_a_copy_and_is_shared_across_budgets():
    # the counts belong to the step system: a dataclasses.replace copy of
    # the problem builds its own, from zero but for the zero reaction's
    # constant factor, made at once; with_budget shares it
    spec = schloegl_spec(n=6, n_t=4)
    u = random_control(spec, np.random.default_rng(5))
    sc.solve_adjoint(spec, sc.solve_state(spec, u))
    work = spec.steps.work
    assert work["state_sweeps"] == work["adjoint_sweeps"] == 1
    assert not any(replace(spec).steps.work.values())
    sc.solve_state(spec.with_budget(0.5), u)
    assert spec.with_budget(0.5).steps.work is work
    assert work["state_sweeps"] == 2
    heat = replace(heat_spec(n=4, n_t=2)).steps
    assert factorizations(heat) == {"separable_factors": 1}
    assert not heat.work["separable_solves"]


def test_zero_reaction_shares_one_factorization():
    spec = heat_spec(n=4, n_t=2)
    steps = StepSystem(spec)
    assert steps.factor(spec.y0) is steps.factor(2.0 * spec.y0)


def test_factor_survives_a_later_factor():
    # each SuperLU factorization writes 1 + dt*a_ii + shift into the
    # diagonal of the one CSC work matrix and adds nothing to it: after
    # factors at y1, y2 and y1 again, the work matrix is B(y1) assembled
    # anew, bit for bit, and the first factor's solve is as it was
    spec = step_system_spec("anisotropic-schloegl")
    steps = spec.steps
    rng = np.random.default_rng(11)
    y1, y2, rhs = rng.standard_normal((3, spec.grid.n_nodes))
    lu = steps.factor(y1)
    x = lu.solve(rhs)
    assert steps.factor(y2) is not lu
    again = steps.factor(y1)
    assert again is not lu
    assert factorizations(steps) == {"superlu_factors": 3}
    fresh = fresh_step_matrix(spec, y1).sorted_indices()
    for attr in ("indptr", "indices", "data"):
        assert (getattr(steps._work, attr).tobytes()
                == getattr(fresh, attr).tobytes())
    assert lu.solve(rhs).tobytes() == x.tobytes()
    assert again.solve(rhs).tobytes() == x.tobytes()


def test_factor_is_held_for_a_bitwise_equal_shift():
    # Schloegl (-1, 0, 1): a'(y) = 3y^2 - 1 is even, bit for bit, so y and
    # -y give one step matrix and one factor; another shift a new one.
    # In 2D and 1D alike
    for spec in (schloegl_spec(), schloegl_spec(n=12, n_dim=1)):
        steps = spec.steps
        y, b = np.random.default_rng(15).standard_normal(
            (2, spec.grid.n_nodes))
        lu = steps.factor(y)
        held = steps.factor(-y)
        assert held is lu
        # SuperLU is deterministic: the held factor solves bit for bit
        # like a fresh one
        fresh = StepSystem(spec).factor(-y)
        assert held.solve(b).tobytes() == fresh.solve(b).tobytes()
        assert steps.factor(2.0 * y) is not lu
        assert steps.factor(y) is not lu


def test_linear_reaction_factors_its_step_matrix_once():
    # the linear reaction's B(y) = (1 + dt*c) I + dt*A_h is one matrix for
    # every state: one factor serves the state, adjoint and linearized
    # sweeps (73 when each step factored), in 2D and in 1D
    for n_dim, n in ((2, 12), (1, 40)):
        grid = sc.SpaceGrid(n_dim, n)
        tgrid = sc.TimeGrid(1.0, 24)
        spec = sc.ProblemSpec(
            kappa=0.1, gamma=1.0, grid=grid, tgrid=tgrid,
            diffusion=sc.isotropic(n_dim, 1.0),
            nonlinearity=sc.NonlinearitySpec("linear", (2.0,)),
            y0=sc.spatial_preset("one-mode", grid),
            yd=sc.target_preset("bump", grid, tgrid))
        rng = np.random.default_rng(17)
        y = sc.solve_state(spec, random_control(spec, rng))
        sc.solve_adjoint(spec, y)
        sc.solve_linearized(spec, y, random_control(spec, rng))
        assert factorizations(spec.steps).total() == 1


def singular_spec(n=1):
    # at dt = 1, n = 1, h = 1/2: B = 1 + dt*8 + dt*(-9) = 0; n = 3, h = 1/4:
    # B = tridiag(-16, 1 + 32 - 33, -16), whose first and last rows agree
    grid = sc.SpaceGrid(1, n)
    tgrid = sc.TimeGrid(1.0, 1)
    return sc.ProblemSpec(
        kappa=0.1, gamma=1.0, grid=grid, tgrid=tgrid,
        diffusion=sc.isotropic(1, 1.0),
        nonlinearity=sc.NonlinearitySpec(
            "linear", (-2.0 / grid.h**2 - 1.0,)),
        y0=sc.spatial_preset("zero", grid),
        yd=sc.target_preset("bump", grid, tgrid))


def test_singular_step_matrix_raises_newton_error():
    # on 1 node and on 3 alike; the shift is uniform, so on 3 nodes dpttrf
    # tries B first, finds it not positive definite, and SuperLU names it
    for spec in (singular_spec(1), singular_spec(3)):
        with pytest.raises(NewtonError, match="exactly singular"):
            spec.steps.factor(spec.y0)
        assert spec.steps._held is None
        with pytest.raises(NewtonError,
                           match="^state solver failed at step 1: .*singular"):
            sc.solve_state(spec,
                           random_control(spec, np.random.default_rng(18)))
        # from zero control the state step has an exactly zero residual and
        # factors nothing; the adjoint's first step factors B and fails
        y = sc.solve_state(spec, sc.field_per_interval(spec.grid, spec.tgrid))
        with pytest.raises(
                NewtonError,
                match="^adjoint solver failed at step 1: .*singular"):
            sc.solve_adjoint(spec, y)


def test_separable_factor_rejects_a_matrix_not_positive_definite():
    # a uniform shift makes B = (1 + s) I + dt*A_h separable, but at s = -3
    # not positive definite: in 1D dpttrf reports a pivot d_ii <= 0, in 2D
    # a sine-basis eigenvalue is <= 0.  One rejected separable attempt, and
    # SuperLU factors B instead, in 1D and 2D alike
    for n_dim in (1, 2):
        spec = uniform_shift_spec(n_dim, 6, sc.isotropic(n_dim, 0.01), -3.0)
        lu = spec.steps.factor(spec.y0)
        assert factorizations(spec.steps) == {"separable_rejected": 1,
                                              "superlu_factors": 1}
        assert isinstance(lu, pde._SparseFactor)
        dense = fresh_step_matrix(spec, spec.y0).toarray()
        assert np.linalg.eigvalsh(dense)[0] < 0.0
        b = np.random.default_rng(30).standard_normal(spec.grid.n_nodes)
        assert (np.linalg.norm(dense @ lu.solve(b) - b)
                <= 1e-13 * np.linalg.norm(b))


def uniform_shift_spec(n_dim, n, tensor, shift):
    """A problem whose step matrix is (1 + shift) I + dt*A_h at every
    state, dt = 1/4: the zero reaction at shift 0, else the linear one."""
    grid = sc.SpaceGrid(n_dim, n)
    tgrid = sc.TimeGrid(1.0, 4)
    nonlinearity = (sc.NonlinearitySpec("zero") if shift == 0.0 else
                    sc.NonlinearitySpec("linear", (shift / tgrid.dt,)))
    return sc.ProblemSpec(
        kappa=0.1, gamma=1.0, grid=grid, tgrid=tgrid, diffusion=tensor,
        nonlinearity=nonlinearity, y0=sc.spatial_preset("zero", grid),
        yd=sc.target_preset("bump", grid, tgrid))


DIAGONAL_TENSORS = {1: [sc.isotropic(1, 0.3), sc.isotropic(1, 2.0)],
                    2: [sc.isotropic(2, 0.3),
                        sc.DiffusionTensor(((2.0, 0.0), (0.0, 0.05))),
                        sc.DiffusionTensor(((0.05, 0.0), (0.0, 2.0)))]}


@pytest.mark.parametrize("shift", [0.0, -0.25, 0.5])
@pytest.mark.parametrize("n_dim, n", [(1, 3), (1, 200), (2, 3), (2, 4),
                                      (2, 10), (2, 14), (2, 15), (2, 32)])
def test_separable_factor_solves_like_superlu(n_dim, n, shift):
    # a uniform shift and a diagonal tensor, isotropic or not, on 3 or more
    # nodes per axis: one separable factorization, dpttrf in 1D and the 2D
    # sine diagonalization, held as a dense inverse up to 14 nodes per axis
    # and as its eigenvalues from 15 on, and its solve matches SuperLU's on
    # the freshly assembled B = (1 + shift) I + dt*A_h
    rng = np.random.default_rng(31)
    for tensor in DIAGONAL_TENSORS[n_dim]:
        spec = uniform_shift_spec(n_dim, n, tensor, shift)
        lu = spec.steps.factor(spec.y0)
        assert isinstance(lu, pde._SeparableFactor)
        assert factorizations(spec.steps) == {"separable_factors": 1}
        if n_dim == 2:
            assert (lu.sine is None) == (n <= 14)
        reference_lu = splu(fresh_step_matrix(spec, spec.y0))
        for b in rng.standard_normal((3, spec.grid.n_nodes)):
            reference = reference_lu.solve(b)
            assert (np.linalg.norm(lu.solve(b) - reference)
                    <= 1e-13 * np.linalg.norm(reference))


def test_superlu_factors_what_is_not_separable():
    # a cross-term tensor, a shift that is not uniform, and grids under 3
    # nodes per axis keep SuperLU, with no separable factor tried, and its
    # solve matches a fresh one
    rng = np.random.default_rng(32)
    cross = sc.DiffusionTensor(((0.3, 0.1), (0.1, 0.3)))
    cases = [(uniform_shift_spec(2, 6, cross, -0.25), None),
             (uniform_shift_spec(2, 2, sc.isotropic(2, 0.3), -0.25), None),
             (uniform_shift_spec(1, 2, sc.isotropic(1, 0.3), -0.25), None)]
    for n_dim in (1, 2):
        spec = schloegl_spec(n=6, n_dim=n_dim)
        cases.append((spec, rng.standard_normal(spec.grid.n_nodes)))
    for spec, y in cases:
        y = spec.y0 if y is None else y
        lu = spec.steps.factor(y)
        assert isinstance(lu, pde._SparseFactor)
        assert factorizations(spec.steps) == {"superlu_factors": 1}
        b = rng.standard_normal(spec.grid.n_nodes)
        reference = splu(fresh_step_matrix(spec, y)).solve(b)
        assert (np.linalg.norm(lu.solve(b) - reference)
                <= 1e-13 * np.linalg.norm(reference))


def nearly_singular_spec():
    # Schloegl (-1, 0, 1) at dt 1: 1 + dt*a'(0) = 1 - 1 = 0, so B(0) = A_h,
    # whose smallest eigenvalue is about 2*pi^2*1e-3 = 0.02
    return schloegl_spec(T=1.0, n_t=1, diff=1e-3)


def indefinite_spec():
    # 1 + dt*a'(0) = 1 - 0.05*30 = -0.5 < 0 and 1 + dt*a'(5) = 1 + 0.05*45
    # > 0, so B(y) on y = linspace(0, 5) has eigenvalues of both signs
    grid = sc.SpaceGrid(2, 12)
    tgrid = sc.TimeGrid(0.1, 2)
    return sc.ProblemSpec(
        kappa=0.1, gamma=1.0, grid=grid, tgrid=tgrid,
        diffusion=sc.isotropic(2, 1e-3),
        nonlinearity=sc.NonlinearitySpec("polynomial", (0.0, -30.0, 0.0, 1.0)),
        y0=sc.spatial_preset("one-mode", grid),
        yd=sc.target_preset("bump", grid, tgrid))


def indefinite_1d_spec():
    # 1 + 2c + dt*a'(0) = 1 + 2*0.845 - 0.05*54 = -0.01 with
    # c = dt*D/h^2 = 0.845 the off-diagonal magnitude: B(y) for small y has
    # pivots far below its off-diagonal, and eigenvalues of both signs
    grid = sc.SpaceGrid(1, 12)
    tgrid = sc.TimeGrid(0.1, 2)
    return sc.ProblemSpec(
        kappa=0.1, gamma=1.0, grid=grid, tgrid=tgrid,
        diffusion=sc.isotropic(1, 0.1),
        nonlinearity=sc.NonlinearitySpec("polynomial", (0.0, -54.0, 0.0, 1.0)),
        y0=sc.spatial_preset("one-mode", grid),
        yd=sc.target_preset("bump", grid, tgrid))


def schloegl_1d_spec():
    return schloegl_spec(n=40, n_dim=1)


def test_adjoint_identity_on_a_nearly_singular_step():
    result = check_adjoint_identity(nearly_singular_spec(),
                                    np.random.default_rng(6))
    assert result.passed, result.detail


@pytest.mark.parametrize("make_spec", [schloegl_spec, nearly_singular_spec,
                                       indefinite_spec, schloegl_1d_spec,
                                       indefinite_1d_spec])
def test_factor_solves_like_fresh_splu(make_spec):
    # factor(y).solve agrees with the default pivoting LU of a freshly
    # assembled B(y) in the original order; with y this small the 2D
    # indefinite problem's B(y) is negative definite, the 1D one's
    # indefinite
    spec = make_spec()
    steps = spec.steps
    rng = np.random.default_rng(13)
    for _ in range(3):
        y, b = 0.5 * rng.standard_normal((2, spec.grid.n_nodes))
        reference = splu(fresh_step_matrix(spec, y)).solve(b)
        x = steps.factor(y).solve(b)
        assert np.linalg.norm(x - reference) <= 1e-12 * np.linalg.norm(reference)


def test_factor_solves_an_indefinite_step_matrix():
    spec = indefinite_spec()
    y = np.linspace(0.0, 5.0, spec.grid.n_nodes)
    dense = fresh_step_matrix(spec, y).toarray()
    eigenvalues = np.linalg.eigvalsh(dense)
    assert eigenvalues[0] < 0.0 < eigenvalues[-1]
    b = np.random.default_rng(21).standard_normal(spec.grid.n_nodes)
    x = spec.steps.factor(y).solve(b)
    bound = 10.0 * np.finfo(float).eps * np.linalg.cond(dense)
    assert np.linalg.norm(dense @ x - b) <= bound * np.linalg.norm(b)


def test_tridiagonal_factor_pivots_on_an_indefinite_step_matrix():
    # the 1D indefinite B(y) is tridiagonal with diagonal entries far below
    # its off-diagonal ones, so symmetric mode's diagonal pivots do not all
    # hold and SuperLU swaps rows on it (perm_r is not perm_c)
    spec = indefinite_1d_spec()
    y = 0.5 * np.random.default_rng(23).standard_normal(spec.grid.n_nodes)
    dense = fresh_step_matrix(spec, y).toarray()
    eigenvalues = np.linalg.eigvalsh(dense)
    assert eigenvalues[0] < 0.0 < eigenvalues[-1]
    lu = spec.steps.factor(y).lu
    assert np.any(lu.perm_r != lu.perm_c)
    b = np.random.default_rng(29).standard_normal(spec.grid.n_nodes)
    x = lu.solve(b)
    assert np.linalg.norm(dense @ x - b) <= 1e-13 * np.linalg.norm(b)


def test_sparse_factor_pivots_on_an_indefinite_step_matrix():
    # the 2D twin: at dt = 1 the linear reaction -100.5 makes
    # B = (1 - 100.5) I + A_h on a 4 x 4 grid indefinite, eigenvalues about
    # -80.4 to 81.4, so symmetric mode's diagonal pivots do not all hold
    # and SuperLU exchanges rows (perm_r is not perm_c).  The shift is
    # uniform, but a sine-basis eigenvalue shows B not positive definite,
    # and the separable factor hands it on
    grid = sc.SpaceGrid(2, 4)
    tgrid = sc.TimeGrid(1.0, 1)
    spec = sc.ProblemSpec(
        kappa=0.1, gamma=1.0, grid=grid, tgrid=tgrid,
        diffusion=sc.isotropic(2, 1.0),
        nonlinearity=sc.NonlinearitySpec("linear", (-100.5,)),
        y0=sc.spatial_preset("one-mode", grid),
        yd=sc.target_preset("bump", grid, tgrid))
    y = np.zeros(grid.n_nodes)
    dense = fresh_step_matrix(spec, y).toarray()
    eigenvalues = np.linalg.eigvalsh(dense)
    assert eigenvalues[0] < 0.0 < eigenvalues[-1]
    lu = spec.steps.factor(y).lu
    assert np.any(lu.perm_r != lu.perm_c)
    b = np.random.default_rng(29).standard_normal(grid.n_nodes)
    x = lu.solve(b)
    assert np.linalg.norm(dense @ x - b) <= 1e-13 * np.linalg.norm(b)


def test_one_step_system_per_problem():
    spec = schloegl_spec()
    steps = spec.steps
    assert spec.steps is steps
    assert replace(spec, gamma=2.0).steps is not steps
    assert spec.with_budget(2.0).steps is steps
    # steps is still alive, but holds no reference back to its spec: no
    # cycle, so the spec is freed as soon as its last name goes
    ref = weakref.ref(spec)
    del spec
    assert ref() is None


@pytest.mark.parametrize("name", ["anisotropic-schloegl", "linear"])
def test_solve_repeats_bitwise_on_one_spec(name):
    # the cached step system (its held factor and stored I + dt*A_h)
    # carries no state from one solve into the next, nor into a solve at
    # another budget sharing it
    spec = step_system_spec(name)
    cfg = sc.OptimizerConfig(tol=1e-10, max_iter=300)
    runs = [sc.solve(spec, cfg), sc.solve(spec, cfg),
            sc.solve(step_system_spec(name), cfg),
            sc.solve(spec.with_budget(0.5), cfg),
            sc.solve(replace(spec, gamma=0.5), cfg)]
    assert all(run.converged for run in runs)
    for name in ("u", "y", "phi", "mu"):
        fresh = getattr(runs[2], name).values.tobytes()
        assert getattr(runs[0], name).values.tobytes() == fresh
        assert getattr(runs[1], name).values.tobytes() == fresh
        assert (getattr(runs[3], name).values.tobytes()
                == getattr(runs[4], name).values.tobytes())


def test_adjoint_zero_when_target_met():
    spec = schloegl_spec()
    rng = np.random.default_rng(8)
    u = random_control(spec, rng)
    y = sc.solve_state(spec, u)
    matched = sc.ProblemSpec(
        kappa=spec.kappa, gamma=spec.gamma, grid=spec.grid, tgrid=spec.tgrid,
        diffusion=spec.diffusion, nonlinearity=spec.nonlinearity,
        y0=spec.y0, yd=y)
    phi = sc.solve_adjoint(matched, y)
    assert np.all(phi.values == 0.0)


def test_adjoint_equals_time_reversed_linearized():
    # with a symmetric operator and no reaction, the backward solve is the
    # forward linearized solve on time-reversed data
    spec = linear_1d_spec()
    rng = np.random.default_rng(10)
    u = random_control(spec, rng)
    y = sc.solve_state(spec, u)
    phi = sc.solve_adjoint(spec, y)
    r = y.values[1:] - spec.yd.values[1:]
    reversed_v = sc.field_per_interval(spec.grid, spec.tgrid, r[::-1])
    z = sc.solve_linearized(spec, y, reversed_v)
    assert np.allclose(phi.values[::-1], z.values[1:], rtol=1e-12, atol=1e-14)


def test_energy_ratio_bounded_and_stable():
    # discrete analogue of the a-priori energy estimate; the constant was
    # measured once for this configuration and is asserted stable
    K_FROZEN = 1.05
    spec = schloegl_spec(n=8, n_t=12, T=1.0)
    area = spec.grid.n_nodes * spec.grid.cell_weight
    a0 = float(abs(sc.eval_a(spec.nonlinearity, 0.0)))

    def peak_slice_norm(y):
        return np.sqrt(spec.grid.cell_weight * np.sum(y.values**2, axis=1)).max()

    ratios = []
    for seed in (1, 2, 3):
        u = random_control(spec, np.random.default_rng(seed), scale=2.0)
        y = sc.solve_state(spec, u)
        peak = peak_slice_norm(y)
        denom = (sc.l2_norm(u) + a0 * np.sqrt(spec.tgrid.T * area)
                 + np.sqrt(spec.grid.cell_weight * np.sum(spec.y0**2)))
        ratios.append(peak / denom)
    assert all(r <= K_FROZEN for r in ratios)
    repeat = []
    for _ in range(2):
        u = random_control(spec, np.random.default_rng(1), scale=2.0)
        y = sc.solve_state(spec, u)
        repeat.append(peak_slice_norm(y))
    assert repeat[0] == repeat[1]


def test_state_magnitude_reported():
    spec = schloegl_spec()
    rng = np.random.default_rng(12)
    u = random_control(spec, rng, scale=2.0)
    y = sc.solve_state(spec, u)
    assert np.max(np.abs(y.values)) < spec.truncation


def test_clamp_level_resolved_at_construction():
    # a spec without a level gets the automatic one once, from its own
    # data; a changed budget keeps it, and an explicit level passes through
    spec = schloegl_spec()
    level = sc.auto_truncation_level(np.max(np.abs(spec.y0)),
                                     np.max(np.abs(spec.yd.values)),
                                     spec.gamma, spec.kappa)
    assert spec.truncation == level and type(spec.truncation) is float
    for changed in (replace(spec, gamma=2.0 * spec.gamma),
                    spec.with_budget(2.0 * spec.gamma)):
        assert changed.truncation == level
    explicit = step_system_spec("clamped-schloegl")
    assert explicit.truncation == 0.05


@pytest.mark.parametrize("level", [0.0, -1.0, np.inf, np.nan])
def test_clamp_level_must_be_finite_and_positive(level):
    with pytest.raises(ValueError, match="truncation level"):
        replace(schloegl_spec(), truncation=level)


def test_truncation_active_warning():
    clamped = with_clamp(schloegl_spec(), 0.05)
    u = sc.field_per_interval(clamped.grid, clamped.tgrid)
    with pytest.warns(TruncationActiveWarning):
        y = sc.solve_state(clamped, u)
    assert np.all(np.isfinite(y.values))


def test_initial_state_above_clamp_does_not_warn():
    spec = with_clamp(schloegl_spec(), Y0_ONLY_CLAMP_LEVEL)
    u = sc.field_per_interval(spec.grid, spec.tgrid)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationActiveWarning)
        y = sc.solve_state(spec, u)
    assert np.max(np.abs(y.values[1:])) < Y0_ONLY_CLAMP_LEVEL \
        <= np.max(np.abs(y.values[0]))


def constant_loop(spec, x0, source, backward):
    """A sweep's values as a plain loop of solves on the step system's
    constant factor: x_m = lu^-1 (x_{m-/+1} + source[m - 1])."""
    lu, n_t = spec.steps.constant, spec.tgrid.n_t
    x = [x0]
    for m in range(n_t, 0, -1) if backward else range(1, n_t + 1):
        x.append(lu.solve(x[-1] + source[m - 1]))
    return np.array(x[:0:-1] if backward else x)


def test_zero_reaction_step_is_one_solve(monkeypatch):
    # the step matrix is the constant I + dt*A_h: the state, linearized and
    # adjoint sweeps and the Hessian's weighted product march on its one
    # factor, one solve per step, with no Newton and no reaction, bit for
    # bit as a loop of its solves.  The separable factor on 3 or more nodes
    # per axis (2D dense and sine), SuperLU with a cross term and on 2 nodes
    def no_reaction(*args):
        raise AssertionError("the zero reaction's march evaluated a reaction")
    monkeypatch.setattr(pde, "eval_a_truncated", no_reaction)
    monkeypatch.setattr(pde, "eval_ay_truncated", no_reaction)
    rng = np.random.default_rng(2)
    cross = replace(heat_spec(n=8, n_t=4),
                    diffusion=sc.DiffusionTensor(((1.0, 0.3), (0.3, 2.0))))
    for spec, kind in ((heat_spec(n=8, n_t=4), "_SeparableFactor"),
                       (heat_spec(n=16, n_t=4), "_SeparableFactor"),
                       (cross, "_SparseFactor"),
                       (linear_1d_spec(n=12), "_SeparableFactor"),
                       (linear_1d_spec(n=2), "_SparseFactor")):
        assert type(spec.steps.constant).__name__ == kind
        dt, zero = spec.tgrid.dt, np.zeros(spec.grid.n_nodes)
        u, v = random_control(spec, rng), random_control(spec, rng)
        y = sc.solve_state(spec, u)
        assert (y.values.tobytes()
                == constant_loop(spec, spec.y0, dt * u.values, False).tobytes())
        z = sc.solve_linearized(spec, y, v)
        assert (z.values.tobytes()
                == constant_loop(spec, zero, dt * v.values, False).tobytes())
        phi = sc.solve_adjoint(spec, y)
        source = dt * (y.values[1:] - spec.yd.values[1:])
        assert (phi.values.tobytes()
                == constant_loop(spec, zero, source, True).tobytes())
        weight = rng.uniform(-1.0, 2.0, v.values.shape)
        assert (weighted_product(spec, y, weight, v).tobytes()
                == constant_loop(spec, zero, dt * weight * z.values[1:],
                                 True).tobytes())
        weight = sc.curvature_weight(spec, y, phi)
        p2 = constant_loop(spec, zero, dt * weight * z.values[1:], True)
        assert (sc.hessian_vector(spec, y, phi, v).values.tobytes()
                == (spec.kappa * v.values + p2).tobytes())


def test_constant_linear_sweeps_allocate_one_buffer():
    # a constant march writes its source into the rows it marches and
    # solves them in place: the linearized and adjoint sweeps' peak
    # allocation is their (n_t + 2) x n buffer, plus the finiteness mask of
    # the field returned, not a separate n_t x n source beside it
    spec = linear_1d_spec(n=100, n_t=100)
    rng = np.random.default_rng(3)
    y = sc.solve_state(spec, random_control(spec, rng))
    v = random_control(spec, rng)
    buffer = (spec.tgrid.n_t + 2) * spec.grid.n_nodes * 8
    for sweep in (lambda: sc.solve_adjoint(spec, y),
                  lambda: sc.solve_linearized(spec, y, v)):
        sweep()
        tracemalloc.start()
        try:
            sweep()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * buffer


@pytest.mark.parametrize("n_dim, n, kind", [(1, 40, "separable_factors"),
                                            (1, 2, "superlu_factors"),
                                            (2, 6, "separable_factors"),
                                            (2, 2, "superlu_factors")],
                         ids=["1-40-dpttrf", "1-2-splu", "2-6-sine",
                              "2-2-splu"])
def test_zero_reaction_solve_factors_once(n_dim, n, kind):
    # a whole solve, with an active budget, makes one factorization: the
    # constant step matrix's, separable on 3 or more nodes per axis (dpttrf
    # in 1D, the sine diagonalization in 2D), else by SuperLU
    grid = sc.SpaceGrid(n_dim, n)
    tgrid = sc.TimeGrid(0.5, 12)
    spec = sc.ProblemSpec(
        kappa=0.01, gamma=0.05, grid=grid, tgrid=tgrid,
        diffusion=sc.isotropic(n_dim, 0.1),
        nonlinearity=sc.NonlinearitySpec("zero"),
        y0=sc.spatial_preset("zero", grid),
        yd=sc.target_preset("bump", grid, tgrid))
    report = sc.solve(spec, sc.OptimizerConfig(tol=1e-10, max_iter=400))
    assert report.converged and np.any(report.thresholds > 0.0)
    assert factorizations(spec.steps) == {kind: 1}


class CountingFactor:
    """A factor whose solves are counted, the last one's result kept; shift
    is the wrapped factor's dt*a_M'(w), which the chord and the refinement
    read."""

    def __init__(self, lu):
        self.lu, self.shift, self.solves, self.last = lu, lu.shift, 0, None

    def solve(self, b):
        self.solves += 1
        self.last = self.lu.solve(b)
        return self.last


def certified_step(steps, rhs, y_start, m, guess=None):
    """Implicit state step m checked on its own, as a resumed sweep checks
    it: the chord from guess, kept when its residual meets Newton's test,
    else Newton from y_start."""
    y = steps.chord(rhs, m, guess)
    if y is not None and pde._certified(lambda: steps.residual(y, rhs), rhs):
        return y
    return steps.newton(rhs, y_start)


def certified_linear_step(steps, rhs, y, m, guess=None):
    """B(y) p = rhs, implicit step m, checked on its own, as a resumed sweep
    checks it: the refinement from guess, or from p = 0, kept when its
    residual meets Newton's test, else refactor."""
    shift = steps.shift(y)
    p = steps.refine(rhs, m, shift, guess)
    if p is not None and pde._certified(
            lambda: steps.linear_residual(p, shift, rhs), rhs):
        return p
    return steps.refactor(rhs, m, shift)


def chord_step_problem():
    """A step system, a zero-control step's (rhs, y_start), equal, and its
    Newton root, whose peak 0.76 is large enough for the reaction to
    matter: at 10x the root, dt*a' reaches 17, against dt*a' = -0.1 at 0.
    The step is step 1; it holds no factor yet."""
    spec = step_system_spec("anisotropic-schloegl")
    steps = spec.steps
    y_start = 3.0 * spec.y0
    return spec, steps, y_start, y_start, steps.newton(y_start, y_start)


def step_residual(spec, y, rhs):
    return (y + spec.tgrid.dt
            * (sc.elliptic_matrix(spec.grid, spec.diffusion) @ y)
            + spec.tgrid.dt
            * pde.eval_a_truncated(spec.nonlinearity, spec.truncation, y) - rhs)


def test_chord_on_a_stale_factor_matches_newton():
    # the factor and the start are at a perturbed root, as when a trial
    # starts from the accepted state: chord iterations alone reach the
    # tolerance, with no factorization
    spec, steps, rhs, y_start, newton = chord_step_problem()
    noise = np.random.default_rng(32).standard_normal(newton.size)
    stale = newton + 0.05 * noise
    steps._slots[0] = steps.factor(stale)
    before = factorizations(steps)
    y = certified_step(steps, rhs, y_start, 1, stale)
    assert factorizations(steps) == before
    tol = pde._NEWTON_TOL * max(np.linalg.norm(rhs), 1.0)
    assert np.linalg.norm(step_residual(spec, y, rhs)) <= tol
    assert np.linalg.norm(y - newton) <= 1e-12 * np.linalg.norm(newton)


def test_chord_on_a_distant_factor_falls_back_to_newton():
    spec, steps, rhs, y_start, newton = chord_step_problem()
    steps._slots[0] = lu = CountingFactor(steps.factor(10.0 * newton))
    before = factorizations(steps)
    y = certified_step(steps, rhs, y_start, 1, 10.0 * newton)
    assert 0 < lu.solves < pde._NEWTON_MAX_ITER
    assert factorizations(steps) != before
    # Newton's factors are not held for the step
    assert steps._slots[0] is lu
    assert y.tobytes() == newton.tobytes()


def test_chord_started_at_the_root_stops_at_once():
    # rhs is the step operator evaluated at y, term by term as the residual
    # is, so y is a root to the last bit: the chord's first correction is
    # roundoff, and it must stop there, with no factorization and no spin
    # to the iteration cap, and return the root to roundoff
    spec, steps, _, y_start, newton = chord_step_problem()
    rhs = step_residual(spec, newton, np.zeros_like(newton))
    assert not np.any(step_residual(spec, newton, rhs))
    steps._slots[0] = lu = CountingFactor(steps.factor(newton))
    before = factorizations(steps)
    y = certified_step(steps, rhs, y_start, 1, newton)
    assert 1 <= lu.solves <= 2 and factorizations(steps) == before
    assert np.linalg.norm(y - newton) <= 1e-14 * np.linalg.norm(newton)


class MisshiftedFactor(CountingFactor):
    """A factor of B(w) that reports a shift other than dt*a_M'(w)."""

    def __init__(self, lu, shift):
        super().__init__(lu)
        self.shift = shift


def test_certifying_residual_rejects_a_misshifted_factor():
    # with the shift off by 0.05, the chord's splitting converges fast, but
    # to the root of R(x) = 0.05 x, not of R: the one residual it evaluates
    # must reject it, and the step must return Newton's root
    spec, steps, rhs, y_start, newton = chord_step_problem()
    exact = steps.factor(newton)
    lu = MisshiftedFactor(exact, exact.shift + 0.05)
    dt, nl, level = spec.tgrid.dt, spec.nonlinearity, spec.truncation
    # the splitting alone, which evaluates no residual, settles
    fixed = steps._split(
        lu, newton,
        lambda x: rhs + lu.shift * x - dt * pde.eval_a_truncated(nl, level, x),
        0.25)
    assert fixed is not None
    assert lu.solves < pde._NEWTON_MAX_ITER
    tol = pde._NEWTON_TOL * max(np.linalg.norm(rhs), 1.0)
    assert np.linalg.norm(step_residual(spec, fixed, rhs)) > 1e6 * tol
    steps._slots[0] = lu
    before = factorizations(steps)
    y = certified_step(steps, rhs, y_start, 1, newton)
    assert factorizations(steps) != before
    assert y.tobytes() == newton.tobytes()


def test_certifying_residual_rejects_a_misshifted_refinement():
    # with the shift off by 1e-5, the refinement contracts about 1e5x per
    # correction, but to the solution of (B(y) - 1e-5 I) p = rhs: its one
    # residual must reject that, and the step must solve on B(y)'s factor,
    # which it then holds
    spec, steps, rhs, _, y = chord_step_problem()
    exact = steps.factor(y)
    steps._slots[0] = lu = MisshiftedFactor(exact, exact.shift + 1e-5)
    p = certified_linear_step(steps, rhs, y, 1)
    assert 2 <= lu.solves < pde._NEWTON_MAX_ITER
    assert steps._slots[0] is exact
    assert p.tobytes() == exact.solve(rhs).tobytes()


def test_linear_step_without_a_held_factor_factors_and_holds_it():
    spec, steps, rhs, _, y = chord_step_problem()
    assert steps._slots == [None] * spec.tgrid.n_t
    before = factorizations(steps)
    p = certified_linear_step(steps, rhs, y, 2)
    assert (factorizations(steps) - before).total() == 1
    held = steps._slots[1]
    assert steps._slots[0] is None and held is not None
    assert p.tobytes() == held.solve(rhs).tobytes()
    # the next call refines on the held factor: no factorization
    certified_linear_step(steps, rhs, y, 2)
    assert (factorizations(steps) - before).total() == 1
    assert steps._slots[1] is held


def test_a_sweep_on_held_factors_makes_one_operator_product():
    # the iterations on held factors are matrix-free; a sweep that ran them
    # pays one product of A_h with its stack of steps, for the residuals
    # that certify them all at once (work's certifications), and a sweep
    # that ran none (direct solves only, on a copy that holds no factors)
    # pays none.  No sweep resumes, so no step certifies itself
    spec = active_schloegl_spec()
    report = sc.solve(spec, sc.OptimizerConfig(tol=1e-10, max_iter=300))
    assert report.converged
    work = spec.steps.work
    sweeps = sum(work[f"{name}_sweeps"]
                 for name in ("state", "linearized", "adjoint"))
    # every iteration's trial state and adjoint at least
    assert sweeps >= work["certifications"] >= 2 * report.iterations > 0
    assert work["resumed_sweeps"] == 0
    fresh = replace(spec)
    sc.solve_adjoint(fresh, report.y)
    assert fresh.steps.work["adjoint_sweeps"] == 1
    assert fresh.steps.work["certifications"] == 0


def refinement_problem(offset):
    """schloegl_spec, a state y under a random control, and factors of the
    step matrices at y + offset + 1e-3 noise, held by the spec's step
    system as an earlier accepted state would leave them.  A
    dataclasses.replace copy of the spec holds none: its sweeps factor
    every step."""
    spec = schloegl_spec()
    rng = np.random.default_rng(33)
    y = sc.solve_state(spec, random_control(spec, rng))
    noise = 1e-3 * rng.standard_normal(y.values.shape)
    stale = [spec.steps.factor(w) for w in (y.values + offset + noise)[1:]]
    spec.steps._slots[:] = stale
    return spec, y, stale


def test_adjoint_refined_on_stale_factors_matches_a_fresh_one():
    spec, y, stale = refinement_problem(0.0)
    fresh = sc.solve_adjoint(replace(spec), y)
    before = factorizations(spec.steps)
    phi = sc.solve_adjoint(spec, y)
    assert factorizations(spec.steps) == before
    assert all(a is b for a, b in zip(spec.steps._slots, stale))
    assert (np.linalg.norm(phi.values - fresh.values)
            <= 1e-13 * np.linalg.norm(fresh.values))


def test_refinement_stops_on_the_rate_estimate():
    # factors 1e-3 off contract about 1e5x per correction, so from p = 0
    # the third iterate is at roundoff; rho/(1 - rho) d_k says so one solve
    # before a correction itself is roundoff-sized
    spec, y, stale = refinement_problem(0.0)
    counted = [CountingFactor(lu) for lu in stale]
    spec.steps._slots[:] = counted
    before = factorizations(spec.steps)
    sc.solve_adjoint(spec, y)
    assert factorizations(spec.steps) == before
    solves = [lu.solves for lu in counted]
    assert max(solves) <= 4 and sum(solves) < 4 * spec.tgrid.n_t


@pytest.mark.parametrize("offset", [0.3, 2.0])
def test_adjoint_on_distant_factors_refactors_each_step_once(offset):
    # a stale factor at y + 0.3 shrinks the residual only 40-130x per
    # correction, and at y + 2 (dt*a' about 1.2 larger) hardly at all: each
    # step factors B(y_m) once and solves directly, as a fresh sweep does.
    # A 4x rule would keep the factor at y + 0.3 for about eight
    # corrections, which cost more than the one factorization
    spec, y, stale = refinement_problem(offset)
    fresh = sc.solve_adjoint(replace(spec), y)
    before = factorizations(spec.steps)
    phi = sc.solve_adjoint(spec, y)
    assert ((factorizations(spec.steps) - before).total()
            == spec.tgrid.n_t == len(stale))
    assert not any(a is b for a, b in zip(spec.steps._slots, stale))
    assert phi.values.tobytes() == fresh.values.tobytes()


def test_adjoint_identity_with_a_refined_adjoint():
    # the transpose identity of check_adjoint_identity, at its tolerance,
    # with phi from refinement on stale factors
    spec, y, _ = refinement_problem(0.0)
    v = random_control(spec, np.random.default_rng(34))
    z = sc.solve_linearized(replace(spec), y, v)
    before = factorizations(spec.steps)
    phi = sc.solve_adjoint(spec, y)
    assert factorizations(spec.steps) == before
    lhs = sc.l2_inner(like(y, y.values - spec.yd.values), z)
    rhs = sc.l2_inner(phi, v)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


def test_linearized_refined_on_held_factors_matches_factoring():
    # the forward sweep refines on held factors as the adjoint one does
    spec, y, _ = refinement_problem(0.0)
    v = random_control(spec, np.random.default_rng(35))
    fresh = sc.solve_linearized(replace(spec), y, v)
    before = factorizations(spec.steps)
    z = sc.solve_linearized(spec, y, v)
    assert factorizations(spec.steps) == before
    assert (np.linalg.norm(z.values - fresh.values)
            <= 1e-12 * np.linalg.norm(fresh.values))


def held_twin(spec):
    """A copy of spec whose step system holds spec's factors in a list of
    its own."""
    twin = replace(spec)
    twin.steps._slots = list(spec.steps._slots)
    return twin


def test_warm_started_adjoint_equals_the_cold_one(active_solve):
    # the adjoint at the solution, refined on the solve's held factors from
    # the adjoint at a nearby control, equals the one refined from p = 0 to
    # roundoff, with no factorization and fewer solves.  A factor counts
    # its solves into the work of the step system that made it, the
    # solve's
    spec, report = active_solve
    rng = np.random.default_rng(36)
    nearby = like(report.u, report.u.values
                  * (1.0 + 1e-3 * rng.standard_normal(report.u.values.shape)))
    fresh = replace(spec)
    near = sc.solve_adjoint(fresh, sc.solve_state(fresh, nearby))
    work, twins = spec.steps.work, [held_twin(spec), held_twin(spec)]
    solves = [work["separable_solves"] + work["superlu_solves"]]
    cold = sc.solve_adjoint(twins[0], report.y)
    solves.append(work["separable_solves"] + work["superlu_solves"])
    warm = sc.solve_adjoint(twins[1], report.y, near)
    solves.append(work["separable_solves"] + work["superlu_solves"])
    assert not any(factorizations(twin.steps) for twin in twins)
    assert solves[2] - solves[1] < solves[1] - solves[0]
    assert (np.linalg.norm(warm.values - cold.values)
            <= 1e-14 * np.linalg.norm(cold.values))


def test_a_refinement_that_gives_up_refactors_despite_a_warm_start():
    # factors at y + 0.3 contract only 40-130x per correction.  From a start
    # 1e-8 off the solution the refinement's second iterate already meets
    # Newton's residual test, but it gave up on its rate, its error bound
    # not at roundoff: each step factors B(y_m), holds it and solves
    # directly, as from p = 0, so a stale factor is not kept on the
    # strength of a good start
    spec, y, stale = refinement_problem(0.3)
    steps, n_t = spec.steps, spec.tgrid.n_t
    fresh = sc.solve_adjoint(replace(spec), y)
    noise = np.random.default_rng(37).standard_normal(fresh.values.shape)
    near = like(fresh, fresh.values * (1.0 + 1e-8 * noise))
    # the last step's refinement alone gives up, its last iterate passing
    # the test
    rhs = spec.tgrid.dt * (y.values[n_t] - spec.yd.values[n_t])
    shift, lu = steps.shift(y.values[n_t]), CountingFactor(stale[-1])
    assert steps._split(lu, near.values[-1],
                        lambda p: rhs - (shift - lu.shift) * p, 1e-3) is None
    assert 2 <= lu.solves < pde._NEWTON_MAX_ITER
    assert pde._certified(
        lambda: steps.linear_residual(lu.last, shift, rhs), rhs)
    before = factorizations(steps)
    phi = sc.solve_adjoint(spec, y, near)
    assert (factorizations(steps) - before).total() == n_t
    assert not any(a is b for a, b in zip(steps._slots, stale))
    assert phi.values.tobytes() == fresh.values.tobytes()


def perturbing(method, steps, offset=None):
    """method(rhs, m, ...) with its iterate at the steps m in steps moved by
    offset, by default 1e-6 of its root mean square: a step that the
    splitting settles on, not a root."""
    def call(self, rhs, m, *args):
        x = method(self, rhs, m, *args)
        if m not in steps or x is None:
            return x
        return x + (1e-6 * np.linalg.norm(x) / np.sqrt(x.size)
                    if offset is None else offset)
    return call


def assert_steps_certified(spec, x, backward, source, shifts=None):
    """Every step of a sweep's rows meets Newton's residual test."""
    steps = spec.steps
    for m in range(1, spec.tgrid.n_t + 1):
        rhs = x[m + 1 if backward else m - 1] + source[m - 1]
        residual = (steps.residual(x[m], rhs) if shifts is None
                    else steps.linear_residual(x[m], shifts[m - 1], rhs))
        assert (np.linalg.norm(residual)
                <= pde._NEWTON_TOL * max(np.linalg.norm(rhs), 1.0)), m


def held_problem(seed):
    """schloegl_spec with a state y, its adjoint phi, the factors that
    adjoint left held, and a nearby control."""
    spec = schloegl_spec(n=6, n_t=8)
    rng = np.random.default_rng(seed)
    u = random_control(spec, rng, scale=0.5)
    y = sc.solve_state(spec, u)
    phi = sc.solve_adjoint(spec, y)
    near = like(u, u.values + 1e-3 * rng.standard_normal(u.values.shape))
    return spec, u, y, phi, near


@pytest.mark.parametrize("steps", [(1,), (4,), (8,), (3, 6)],
                         ids=lambda steps: "-".join(map(str, steps)))
def test_a_state_step_that_fails_its_certificate_resumes_per_step(
        monkeypatch, steps):
    # the chord at some steps returns an iterate 1e-6 off the root; the
    # sweep certifies once its march is done, finds the first such step,
    # and resumes there with Newton, and after it one step at a time, the
    # chord again and its iterate checked on its own, returning the bytes
    # of a per-step loop with the same chord, and every step meets the test
    spec, _, y, _, near = held_problem(78)
    twin, work = held_twin(spec), spec.steps.work
    chord, calls = perturbing(StepSystem.chord, steps), []

    def counted_chord(self, rhs, m, guess):
        calls.append(m)
        return chord(self, rhs, m, guess)

    monkeypatch.setattr(StepSystem, "chord", counted_chord)
    before = dict(work)
    y_near = sc.solve_state(spec, near, y)
    assert work["newton_passes"] - before["newton_passes"] == len(steps)
    assert work["resumed_sweeps"] - before["resumed_sweeps"] == 1
    assert len(calls) == 2 * spec.tgrid.n_t - steps[0]
    assert (y_near.values.tobytes()
            == reference_state(twin, near, y).tobytes())
    assert_steps_certified(spec, y_near.values, False,
                           spec.tgrid.dt * near.values)


def test_a_failure_after_an_uncertified_step_certifies_it_first(
        monkeypatch):
    # the chord at step 4 returns 1e300 everywhere, and step 5 cannot be
    # solved from there: its chord overflows, and so does its Newton pass,
    # whose tolerance is not finite.  The march certifies steps
    # 1-4 before it reports that, finds step 4, and resumes there, so the
    # sweep raises nothing and returns the per-step loop's bytes
    spec, _, y, _, near = held_problem(80)
    twin = held_twin(spec)
    monkeypatch.setattr(StepSystem, "chord",
                        perturbing(StepSystem.chord, (4,), 1e300))
    newton, failed = StepSystem.newton, []

    def recording_newton(self, rhs, y_start):
        try:
            return newton(self, rhs, y_start)
        except (NewtonError, FloatingPointError):
            failed.append(None)
            raise

    monkeypatch.setattr(StepSystem, "newton", recording_newton)
    y_near = sc.solve_state(spec, near, y)
    assert failed
    assert (y_near.values.tobytes()
            == reference_state(twin, near, y).tobytes())
    assert_steps_certified(spec, y_near.values, False,
                           spec.tgrid.dt * near.values)


@pytest.mark.parametrize("k", [1, 4])
def test_a_chord_that_gives_up_goes_straight_to_newton(monkeypatch, k):
    # step k holds a factor of B(y_k + 2), on which the chord contracts too
    # slowly: it gives up, its last iterate failing Newton's test, and the
    # step runs Newton at once.  No step is solved twice: the sweep runs
    # the chord once per step and returns the bytes of the per-step loop
    spec, _, y, _, near = held_problem(78)
    steps, n_t = spec.steps, spec.tgrid.n_t
    steps._slots[k - 1] = lu = CountingFactor(steps.factor(y.values[k] + 2.0))
    twin, chord, calls = held_twin(spec), StepSystem.chord, []

    def counted_chord(self, rhs, m, guess):
        calls.append(m)
        return chord(self, rhs, m, guess)

    monkeypatch.setattr(StepSystem, "chord", counted_chord)
    before = dict(steps.work)
    y_near = sc.solve_state(spec, near, y)
    assert calls == list(range(1, n_t + 1))
    assert steps.work["newton_passes"] == before["newton_passes"] + 1
    assert steps.work["resumed_sweeps"] == before["resumed_sweeps"]
    rhs = y_near.values[k - 1] + spec.tgrid.dt * near.values[k - 1]
    assert 2 <= lu.solves < pde._NEWTON_MAX_ITER
    assert np.all(np.isfinite(lu.last))
    assert not pde._certified(lambda: steps.residual(lu.last, rhs), rhs)
    assert (y_near.values.tobytes()
            == reference_state(twin, near, y).tobytes())


@pytest.mark.parametrize("steps", [(1,), (4,), (8,), (3, 6)],
                         ids=lambda steps: "-".join(map(str, steps)))
def test_an_adjoint_step_that_fails_its_certificate_resumes_per_step(
        monkeypatch, steps):
    # the same for the refinement, from a warm start, in the backward
    # sweep: each failing step factors B(y_m) once and holds it
    spec, _, y, phi, near = held_problem(79)
    y_near = sc.solve_state(spec, near, y)
    twin = held_twin(spec)
    monkeypatch.setattr(StepSystem, "refine",
                        perturbing(StepSystem.refine, steps))
    before = factorizations(spec.steps)
    phi_near = sc.solve_adjoint(spec, y_near, phi)
    assert (factorizations(spec.steps) - before).total() == len(steps)
    assert (phi_near.values.tobytes()
            == reference_adjoint(twin, y_near, phi).tobytes())
    x = np.zeros((spec.tgrid.n_t + 2, spec.grid.n_nodes))
    x[1:-1] = phi_near.values
    assert_steps_certified(
        spec, x, True,
        spec.tgrid.dt * (y_near.values[1:] - spec.yd.values[1:]),
        spec.steps.shift(y_near.values[1:]))


def test_newton_failure_raises():
    # 1 + dt*a'(0) = 1 - 0.25*30 < 0: under this large control some
    # implicit step has no solution that Newton reaches
    grid = sc.SpaceGrid(2, 10)
    tgrid = sc.TimeGrid(1.0, 4)
    spec = sc.ProblemSpec(
        kappa=0.1, gamma=10.0, grid=grid, tgrid=tgrid,
        diffusion=sc.isotropic(2, 1.0),
        nonlinearity=sc.NonlinearitySpec("polynomial", (0.0, -30.0, 0.0, 1.0)),
        y0=sc.spatial_preset("one-mode", grid),
        yd=sc.target_preset("constant(3)", grid, tgrid))
    u = random_control(spec, np.random.default_rng(14), scale=20.0)
    with pytest.raises(NewtonError):
        sc.solve_state(spec, u)


def test_a_failing_step_pays_for_one_newton_pass():
    # the step of test_newton_failure_raises that fails makes one Newton
    # pass's factorizations and no more
    grid = sc.SpaceGrid(2, 10)
    tgrid = sc.TimeGrid(1.0, 4)
    spec = sc.ProblemSpec(
        kappa=0.1, gamma=10.0, grid=grid, tgrid=tgrid,
        diffusion=sc.isotropic(2, 1.0),
        nonlinearity=sc.NonlinearitySpec("polynomial", (0.0, -30.0, 0.0, 1.0)),
        y0=sc.spatial_preset("one-mode", grid),
        yd=sc.target_preset("constant(3)", grid, tgrid))
    u = random_control(spec, np.random.default_rng(14), scale=20.0)
    steps, dt = spec.steps, tgrid.dt
    y = spec.y0
    for m in range(tgrid.n_t):
        before = factorizations(steps)
        try:
            y = steps.newton(y + dt * u.values[m], y)
        except NewtonError:
            break
    else:
        pytest.fail("every step converged")
    assert (factorizations(steps) - before).total() <= pde._NEWTON_MAX_ITER


def test_control_shape_rejected():
    spec = schloegl_spec()
    bad = sc.field_at_nodes(spec.grid, spec.tgrid)
    with pytest.raises(ValueError):
        sc.solve_state(spec, bad)


@pytest.mark.parametrize("sweep, wrong, match", [
    ("adjoint", "y-per-interval", "^state y must be at-nodes"),
    ("adjoint", "y-off-grid", "^state y lives on different grids"),
    ("linearized", "y-per-interval", "^state y must be at-nodes"),
    ("linearized", "y-off-grid", "^state y lives on different grids"),
    ("linearized", "v-at-nodes", "^direction v must be per-interval"),
    ("linearized", "v-off-grid", "^direction v lives on different grids")],
    ids=["adjoint-y-per-interval", "adjoint-y-off-grid",
         "linearized-y-per-interval", "linearized-y-off-grid",
         "linearized-v-at-nodes", "linearized-v-off-grid"])
def test_linear_sweeps_reject_fields_off_the_problem(sweep, wrong, match):
    # the 1D grid of 16 nodes with another T has the 4 x 4 grid's node
    # count and n_t, so its fields have the right shape: only the grid
    # check rejects them.  Each argument is named, and no sweep runs
    spec = schloegl_spec(n=4)
    other = linear_1d_spec(n=16)
    assert other.grid.n_nodes == spec.grid.n_nodes
    rng = np.random.default_rng(47)
    y = sc.solve_state(spec, random_control(spec, rng))
    v = random_control(spec, rng)
    fields = {
        "y-per-interval": (sc.field_per_interval(
            spec.grid, spec.tgrid, y.values[1:]), v),
        "y-off-grid": (sc.field_at_nodes(other.grid, other.tgrid,
                                         y.values), v),
        "v-at-nodes": (y, sc.field_at_nodes(spec.grid, spec.tgrid,
                                            y.values)),
        "v-off-grid": (y, sc.field_per_interval(other.grid, other.tgrid,
                                                v.values))}
    y, v = fields[wrong]
    before = dict(spec.steps.work)
    with pytest.raises(ValueError, match=match):
        if sweep == "adjoint":
            sc.solve_adjoint(spec, y)
        else:
            sc.solve_linearized(spec, y, v)
    assert spec.steps.work == before


@pytest.mark.parametrize("sweep, wrong, match", [
    ("state", "per-interval", "^near must be at-nodes"),
    ("state", "off-grid", "^near lives on different grids"),
    ("adjoint", "at-nodes", "^near must be per-interval"),
    ("adjoint", "off-grid", "^near lives on different grids")],
    ids=["state-per-interval", "state-off-grid", "adjoint-at-nodes",
         "adjoint-off-grid"])
def test_sweeps_reject_a_near_field_off_the_problem(sweep, wrong, match):
    # as above: the off-grid near has the right shape, only the grid
    # check rejects it, and no sweep runs
    spec = schloegl_spec(n=4)
    other = linear_1d_spec(n=16)
    rng = np.random.default_rng(53)
    u = random_control(spec, rng)
    y = sc.solve_state(spec, u)
    phi = sc.solve_adjoint(spec, y)
    near = {
        ("state", "per-interval"): phi,
        ("state", "off-grid"): sc.field_at_nodes(other.grid, other.tgrid,
                                                 y.values),
        ("adjoint", "at-nodes"): y,
        ("adjoint", "off-grid"): sc.field_per_interval(
            other.grid, other.tgrid, phi.values)}[sweep, wrong]
    before = dict(spec.steps.work)
    with pytest.raises(ValueError, match=match):
        if sweep == "state":
            sc.solve_state(spec, u, near)
        else:
            sc.solve_adjoint(spec, y, near)
    assert spec.steps.work == before


def reference_state(spec, u, near=None):
    """solve_state's values as a plain loop of certified_step calls, or of
    solves on the constant factor, which solve_state marches on."""
    steps, dt = spec.steps, spec.tgrid.dt
    if steps.constant is not None:
        return constant_loop(spec, spec.y0, dt * u.values, False)
    y = [spec.y0]
    for m in range(1, spec.tgrid.n_t + 1):
        y.append(certified_step(steps, y[m - 1] + dt * u.values[m - 1],
                                y[m - 1], m,
                                None if near is None else near.values[m]))
    return np.array(y)


def reference_adjoint(spec, y, near=None):
    """solve_adjoint's values as a plain loop of certified_linear_step
    calls, from near_m when near is given, or of solves on the constant
    factor, which solve_adjoint marches on."""
    steps, dt, n_t = spec.steps, spec.tgrid.dt, spec.tgrid.n_t
    if steps.constant is not None:
        return constant_loop(spec, np.zeros(spec.grid.n_nodes),
                             dt * (y.values[1:] - spec.yd.values[1:]), True)
    p = [np.zeros(spec.grid.n_nodes)] * (n_t + 1)
    for m in range(n_t, 0, -1):
        p[m - 1] = certified_linear_step(
            steps, p[m] + dt * (y.values[m] - spec.yd.values[m]), y.values[m],
            m, None if near is None else near.values[m - 1])
    return np.array(p[:-1])


def reference_linearized(spec, y, v):
    """solve_linearized's values as a plain loop that factors every step."""
    steps, dt = spec.steps, spec.tgrid.dt
    z = [np.zeros(spec.grid.n_nodes)]
    for m in range(1, spec.tgrid.n_t + 1):
        z.append(steps.factor(y.values[m]).solve(z[m - 1]
                                                 + dt * v.values[m - 1]))
    return np.array(z)


@pytest.mark.parametrize("kind", ["zero", "linear", "schloegl"])
def test_sweeps_match_a_per_step_loop_bitwise(kind):
    # the sweeps form their sources for all steps at once; every output
    # byte must equal the per-step loop's, with and without held factors
    # (a dataclasses.replace copy of the spec holds none)
    spec = schloegl_spec(n=6, n_t=8)
    if kind != "schloegl":
        spec = replace(spec, nonlinearity=sc.NonlinearitySpec(
            kind, (2.0,) if kind == "linear" else ()))
    rng = np.random.default_rng(77)
    u = random_control(spec, rng, scale=0.5)
    y = sc.solve_state(spec, u)
    assert y.values.tobytes() == reference_state(spec, u).tobytes()
    assert (sc.solve_adjoint(replace(spec), y).values.tobytes()
            == reference_adjoint(replace(spec), y).tobytes())
    assert (sc.solve_linearized(replace(spec), y, u).values.tobytes()
            == reference_linearized(spec, y, u).tobytes())
    # held factors at y, then a nearby control: the state chords on them
    # and the adjoint refines on them, and may replace some; the twin
    # holds the same factors in a list of its own
    sc.solve_adjoint(spec, y)
    twin = held_twin(spec)
    near = like(u, u.values + 1e-3 * rng.standard_normal(u.values.shape))
    y_near = sc.solve_state(spec, near, y)
    assert (y_near.values.tobytes()
            == reference_state(twin, near, y).tobytes())
    phi_near = sc.solve_adjoint(spec, y_near)
    assert (phi_near.values.tobytes()
            == reference_adjoint(twin, y_near).tobytes())


# the benchmark's 2D workloads, unjittered: problem, optimizer settings,
# the budgets of a sweep (None for a solve), and the outer iterations
WORKLOAD_PROBLEMS = {
    "sweep-2d-lowkappa": (
        dict(n=10, n_t=4, kappa=2e-3, gamma=0.05, diff=0.3),
        sc.OptimizerConfig(tol=1e-8, max_iter=2000),
        [0.05] + [0.05 - d for d in 0.0005 * 10.0 ** np.linspace(0.0, 1.5, 5)],
        [1, 1, 1, 1, 3, 6]),
    "solve-2d-schloegl": (
        dict(n=32, n_t=4, kappa=0.3, gamma=0.05, diff=0.3),
        sc.OptimizerConfig(tol=1e-10, max_iter=400), None, 6),
}


@pytest.mark.parametrize("name, solves, ceiling, sweeps, certifications",
                         [("sweep-2d-lowkappa", 434, 445, 19, 36),
                          ("solve-2d-schloegl", 153, 160, 7, 12)],
                         ids=["sweep-2d-lowkappa-445",
                              "solve-2d-schloegl-160"])
def test_workload_factorizations_and_separable_solves(
        name, solves, ceiling, sweeps, certifications):
    # deterministic work on held factors: one factorization per workload,
    # the separable one of B(0), and the separable solves on it that the
    # chord and the warm-started refinement need (647 and 178 with every
    # refinement from p = 0), one state and one adjoint sweep per solve and
    # trial.  The fallbacks stay idle: Newton runs only the first state
    # sweep's 4 passes, which converge at once, and no sweep resumes after
    # its certification
    problem, cfg, gammas, iterations = WORKLOAD_PROBLEMS[name]
    spec = schloegl_spec(y0="zero", yd="bump", **problem)
    if gammas is None:
        report = sc.solve(spec, cfg)
    else:
        report = sc.gamma_sweep(spec, gammas, cfg)
    assert report.converged and report.iterations == iterations
    work = spec.steps.work
    assert factorizations(spec.steps) == {"separable_factors": 1}
    assert work["superlu_solves"] == 0
    assert work["separable_solves"] == solves <= ceiling
    assert work["state_sweeps"] == work["adjoint_sweeps"] == sweeps
    assert work["newton_passes"] == 4 and work["resumed_sweeps"] == 0
    assert work["certifications"] == certifications
