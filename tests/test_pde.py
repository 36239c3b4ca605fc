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
from sparsecontrol.pde import NewtonError, StepSystem, TruncationActiveWarning

from conftest import (Y0_ONLY_CLAMP_LEVEL, linear_1d_spec, random_control,
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
    # step system's ordering probe factors I + dt*A_h without pivoting, which
    # needs A_h symmetric positive definite
    rng = np.random.default_rng(40 + n_dim)
    for _ in range(25):
        a11, a22 = np.exp(rng.uniform(-3.0, 3.0, 2))
        a12 = rng.uniform(-0.95, 0.95) * np.sqrt(a11 * a22)
        matrix = ((a11,),) if n_dim == 1 else ((a11, a12), (a12, a22))
        grid = sc.SpaceGrid(n_dim, int(rng.integers(1, 30 if n_dim == 1 else 9)))
        a_h = sc.elliptic_matrix(grid, sc.DiffusionTensor(matrix))
        assert abs(a_h - a_h.T).max() == 0.0
        assert np.linalg.eigvalsh(a_h.toarray()).min() > 0.0


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
# a', clamp engaged (a_M' != a'), and 1D
STEP_SYSTEM_CASES = {
    "anisotropic-schloegl": (2, sc.DiffusionTensor(((1.0, 0.3), (0.3, 2.0))),
                             SCHLOEGL),
    "linear": (2, sc.isotropic(2, 1.0), sc.NonlinearitySpec("linear", (2.0,))),
    "clamped-schloegl": (2, sc.isotropic(2, 1.0), sc.NonlinearitySpec(
        "schloegl", (-1.0, 0.0, 1.0), truncation=sc.TruncationSpec(0.05))),
    "exponential-1d": (1, sc.isotropic(1, 1.0),
                       sc.NonlinearitySpec("exponential")),
}


def step_system_spec(name):
    n_dim, tensor, nonlinearity = STEP_SYSTEM_CASES[name]
    grid = sc.SpaceGrid(n_dim, 8 if n_dim == 2 else 12)
    tgrid = sc.TimeGrid(1.0, 10)
    return sc.ProblemSpec(
        kappa=0.1, gamma=1.0, grid=grid, tgrid=tgrid, diffusion=tensor,
        nonlinearity=nonlinearity, y0=sc.spatial_preset("one-mode", grid),
        yd=sc.target_preset("bump", grid, tgrid))


def fresh_step_matrix(spec, y):
    """I + dt*A_h + dt*diag(a_M'(y)), assembled anew in the original order."""
    return (sp.identity(spec.grid.n_nodes, format="csc")
            + spec.tgrid.dt * sc.elliptic_matrix(spec.grid, spec.diffusion)
            + sp.diags(spec.tgrid.dt
                       * eval_ay_truncated(spec.nonlinearity, y))).tocsc()


@pytest.mark.filterwarnings("ignore::sparsecontrol.pde.TruncationActiveWarning")
@pytest.mark.parametrize("name", sorted(STEP_SYSTEM_CASES))
def test_adjoint_identity_across_step_systems(name):
    spec = step_system_spec(name)
    result = check_adjoint_identity(spec, np.random.default_rng(6))
    assert result.passed, result.detail
    if STEP_SYSTEM_CASES[name][2].truncation is not None:
        # the check's first state, from the first draw of the same seed
        y = sc.solve_state(spec, random_control(spec, np.random.default_rng(6)))
        assert np.max(np.abs(y.values)) > spec.nonlinearity.truncation.level


@pytest.mark.parametrize("name", sorted(STEP_SYSTEM_CASES))
def test_step_system_matrix_matches_fresh_assembly(name):
    # writing dt*a_M'(y) onto the cached diagonal gives the same CSC matrix,
    # structure and bits, as assembling I + dt*A + diag(dt*a_M'(y)) anew and
    # reordering it symmetrically by the step system's one ordering q
    spec = step_system_spec(name)
    y = 2.0 * np.random.default_rng(3).standard_normal(spec.grid.n_nodes)
    steps = StepSystem(spec)
    q = steps._order
    fresh = fresh_step_matrix(spec, y)[q][:, q].sorted_indices()
    written = steps._write(y).copy()
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(written, attr), getattr(fresh, attr))


def test_zero_reaction_shares_one_factorization():
    spec = heat_spec(n=4, n_t=2)
    steps = StepSystem(spec)
    assert steps.factor(spec.y0) is steps.factor(2.0 * spec.y0)


def test_factor_survives_work_matrix_overwrite():
    # factor() writes B(y) into one work matrix; an earlier factor must
    # not see the next write
    spec = step_system_spec("anisotropic-schloegl")
    steps = spec.steps
    rng = np.random.default_rng(11)
    y1, y2, rhs = rng.standard_normal((3, spec.grid.n_nodes))
    b1 = steps._write(y1).copy()
    lu = steps.factor(y1)
    x = lu.solve(rhs)
    steps.factor(y2)
    assert lu.solve(rhs).tobytes() == x.tobytes()
    assert steps.factor(y1).solve(rhs).tobytes() == x.tobytes()
    assert b1.data.tobytes() == steps._write(y1).data.tobytes()
    assert steps._write(y2).data.tobytes() != b1.data.tobytes()


def test_factor_is_held_for_a_bitwise_equal_shift():
    # Schloegl (-1, 0, 1): a'(y) = 3y^2 - 1 is even, bit for bit, so y and
    # -y give one step matrix and one factor; another shift a new one
    spec = schloegl_spec()
    steps = spec.steps
    y, b = np.random.default_rng(15).standard_normal((2, spec.grid.n_nodes))
    lu = steps.factor(y)
    held = steps.factor(-y)
    assert held is lu
    # SuperLU is deterministic: the held factor solves bit for bit like a
    # fresh one
    fresh = StepSystem(spec).factor(-y)
    assert held.solve(b).tobytes() == fresh.solve(b).tobytes()
    assert steps.factor(2.0 * y) is not lu
    assert steps.factor(y) is not lu


def test_linear_reaction_factors_its_step_matrix_once(splu_calls):
    # the linear reaction's B(y) = (1 + dt*c) I + dt*A_h is one matrix for
    # every state: the ordering probe and one factor serve the state,
    # adjoint and linearized sweeps (73 when each step factored)
    grid = sc.SpaceGrid(2, 12)
    tgrid = sc.TimeGrid(1.0, 24)
    spec = sc.ProblemSpec(
        kappa=0.1, gamma=1.0, grid=grid, tgrid=tgrid,
        diffusion=sc.isotropic(2, 1.0),
        nonlinearity=sc.NonlinearitySpec("linear", (2.0,)),
        y0=sc.spatial_preset("one-mode", grid),
        yd=sc.target_preset("bump", grid, tgrid))
    rng = np.random.default_rng(17)
    y = sc.solve_state(spec, random_control(spec, rng))
    sc.solve_adjoint(spec, y)
    sc.solve_linearized(spec, y, random_control(spec, rng))
    assert len(splu_calls) == 2


def singular_spec():
    # n = 1, h = 1/2: B = 1 + dt*8 + dt*(-9) = 0 at dt = 1
    grid = sc.SpaceGrid(1, 1)
    tgrid = sc.TimeGrid(1.0, 1)
    return sc.ProblemSpec(
        kappa=0.1, gamma=1.0, grid=grid, tgrid=tgrid,
        diffusion=sc.isotropic(1, 1.0),
        nonlinearity=sc.NonlinearitySpec("linear", (-9.0,)),
        y0=sc.spatial_preset("zero", grid),
        yd=sc.target_preset("bump", grid, tgrid))


def test_singular_step_matrix_raises_newton_error():
    spec = singular_spec()
    with pytest.raises(NewtonError, match="singular"):
        spec.steps.factor(spec.y0)
    assert spec.steps._held is None
    with pytest.raises(NewtonError,
                       match="^state solver failed at step 1: .*singular"):
        sc.solve_state(spec, random_control(spec, np.random.default_rng(18)))
    # from zero control the state step has an exactly zero residual and
    # factors nothing; the adjoint's first step factors B and fails
    y = sc.solve_state(spec, sc.field_per_interval(spec.grid, spec.tgrid))
    with pytest.raises(NewtonError,
                       match="^adjoint solver failed at step 1: .*singular"):
        sc.solve_adjoint(spec, y)


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


def test_adjoint_identity_on_a_nearly_singular_step():
    result = check_adjoint_identity(nearly_singular_spec(),
                                    np.random.default_rng(6))
    assert result.passed, result.detail


@pytest.mark.parametrize("make_spec", [schloegl_spec, nearly_singular_spec,
                                       indefinite_spec])
def test_factor_solves_like_fresh_splu(make_spec):
    # factor(y).solve agrees with the default pivoting LU of a freshly
    # assembled B(y) in the original order; with y this small the indefinite
    # problem's B(y) is negative definite
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
    # the cached step system (its work matrix) carries no state from one
    # solve into the next, nor into a solve at another budget sharing it
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
    assert np.max(np.abs(y.values)) < spec.nonlinearity.truncation.level


def test_clamp_level_resolved_at_construction():
    # a spec without a level gets the automatic one once, from its own
    # data; a changed budget keeps it, and an explicit level passes through
    spec = schloegl_spec()
    level = sc.auto_truncation_level(np.max(np.abs(spec.y0)),
                                     np.max(np.abs(spec.yd.values)),
                                     spec.gamma, spec.kappa)
    assert spec.nonlinearity.truncation == sc.TruncationSpec(level)
    for changed in (replace(spec, gamma=2.0 * spec.gamma),
                    spec.with_budget(2.0 * spec.gamma)):
        assert changed.nonlinearity.truncation.level == level
    explicit = step_system_spec("clamped-schloegl")
    assert explicit.nonlinearity.truncation.level == 0.05


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


def test_zero_reaction_step_is_one_solve(monkeypatch):
    # the step matrix is the constant I + dt*A_h: no Newton, no reaction
    def no_reaction(*args):
        raise AssertionError("the zero reaction's step evaluated a reaction")
    monkeypatch.setattr(pde, "eval_a_truncated", no_reaction)
    monkeypatch.setattr(pde, "eval_ay_truncated", no_reaction)
    spec = heat_spec(n=8, n_t=4)
    rng = np.random.default_rng(2)
    rhs, y_start = rng.standard_normal((2, spec.grid.n_nodes))
    steps = StepSystem(spec)
    y = steps.step(rhs, y_start)
    assert y.tobytes() == steps.factor(y_start).solve(rhs).tobytes()


class CountingFactor:
    """A factor whose solves are counted."""

    def __init__(self, lu):
        self.lu, self.solves = lu, 0

    def solve(self, b):
        self.solves += 1
        return self.lu.solve(b)


def chord_step_problem():
    """A step system, a zero-control step's (rhs, y_start), equal, and its
    Newton root, whose peak 0.76 is large enough for the reaction to
    matter: at 10x the root, dt*a' reaches 17, against dt*a' = -0.1 at 0."""
    spec = step_system_spec("anisotropic-schloegl")
    steps = spec.steps
    y_start = 3.0 * spec.y0
    return spec, steps, y_start, y_start, steps.step(y_start, y_start)


def step_residual(spec, y, rhs):
    return (y + spec.tgrid.dt * (spec.steps.operator_matrix @ y)
            + spec.tgrid.dt * pde.eval_a_truncated(spec.nonlinearity, y) - rhs)


def test_chord_on_a_stale_factor_matches_newton(splu_calls):
    # the factor and the start are at a perturbed root, as when a trial
    # starts from the accepted state: chord iterations alone reach the
    # tolerance, with no factorization
    spec, steps, rhs, y_start, newton = chord_step_problem()
    noise = np.random.default_rng(32).standard_normal(newton.size)
    stale = newton + 0.05 * noise
    lu = steps.factor(stale)
    del splu_calls[:]
    y = steps.step(rhs, y_start, (stale, lu))
    assert not splu_calls
    tol = pde._NEWTON_TOL * max(np.linalg.norm(rhs), 1.0)
    assert np.linalg.norm(step_residual(spec, y, rhs)) <= tol
    assert np.linalg.norm(y - newton) <= 1e-12 * np.linalg.norm(newton)


def test_chord_on_a_distant_factor_falls_back_to_newton(splu_calls):
    spec, steps, rhs, y_start, newton = chord_step_problem()
    lu = CountingFactor(steps.factor(10.0 * newton))
    del splu_calls[:]
    y = steps.step(rhs, y_start, (10.0 * newton, lu))
    assert 0 < lu.solves < pde._NEWTON_MAX_ITER
    assert splu_calls
    assert y.tobytes() == newton.tobytes()


def test_chord_stops_on_an_exactly_zero_residual(splu_calls):
    # rhs is the step operator evaluated at y, term by term as the residual
    # is, so the residual at y is 0.0: the chord must return y at once;
    # "stop once it no longer shrinks 4x" alone would spin to the iteration
    # cap, since "0 > 0.25 * 0" is false, and then fall back to Newton
    spec, steps, _, y_start, newton = chord_step_problem()
    rhs = step_residual(spec, newton, np.zeros_like(newton))
    assert not np.any(step_residual(spec, newton, rhs))
    lu = CountingFactor(steps.factor(newton))
    del splu_calls[:]
    y = steps.step(rhs, y_start, (newton, lu))
    assert lu.solves == 0 and not splu_calls
    assert y is newton


def refinement_problem(offset):
    """schloegl_spec, a state y under a random control, and factors of the
    step matrices at y + offset + 1e-3 noise, as an earlier accepted state
    would leave them."""
    spec = schloegl_spec()
    rng = np.random.default_rng(33)
    y = sc.solve_state(spec, random_control(spec, rng))
    noise = 1e-3 * rng.standard_normal(y.values.shape)
    factors = [spec.steps.factor(w)
               for w in (y.values + offset + noise)[1:]]
    return spec, y, factors


def test_adjoint_refined_on_stale_factors_matches_a_fresh_one(splu_calls):
    spec, y, factors = refinement_problem(0.0)
    stale = list(factors)
    fresh = sc.solve_adjoint(spec, y)
    del splu_calls[:]
    phi = sc.solve_adjoint(spec, y, factors)
    assert not splu_calls
    assert all(a is b for a, b in zip(factors, stale))
    assert (np.linalg.norm(phi.values - fresh.values)
            <= 1e-13 * np.linalg.norm(fresh.values))


@pytest.mark.parametrize("offset", [0.3, 2.0])
def test_adjoint_on_distant_factors_refactors_each_step_once(splu_calls,
                                                            offset):
    # a stale factor at y + 0.3 shrinks the residual only 40-130x per
    # correction, and at y + 2 (dt*a' about 1.2 larger) hardly at all: each
    # step factors B(y_m) once and solves directly, as a fresh sweep does.
    # A 4x rule would keep the factor at y + 0.3 for about eight
    # corrections, which cost more than the one factorization
    spec, y, factors = refinement_problem(offset)
    stale = list(factors)
    fresh = sc.solve_adjoint(spec, y)
    del splu_calls[:]
    phi = sc.solve_adjoint(spec, y, factors)
    assert len(splu_calls) == spec.tgrid.n_t == len(factors)
    assert not any(a is b for a, b in zip(factors, stale))
    assert phi.values.tobytes() == fresh.values.tobytes()


def test_adjoint_identity_with_a_refined_adjoint(splu_calls):
    # the transpose identity of check_adjoint_identity, at its tolerance,
    # with phi from refinement on stale factors
    spec, y, factors = refinement_problem(0.0)
    v = random_control(spec, np.random.default_rng(34))
    z = sc.solve_linearized(spec, y, v)
    del splu_calls[:]
    phi = sc.solve_adjoint(spec, y, factors)
    assert not splu_calls
    lhs = sc.l2_inner(like(y, y.values - spec.yd.values), z)
    rhs = sc.l2_inner(phi, v)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


def test_linearized_refined_on_held_factors_matches_factoring(splu_calls):
    # the forward sweep refines on held factors as the adjoint one does
    spec, y, factors = refinement_problem(0.0)
    v = random_control(spec, np.random.default_rng(35))
    fresh = sc.solve_linearized(spec, y, v)
    del splu_calls[:]
    z = sc.solve_linearized(spec, y, v, factors)
    assert not splu_calls
    assert (np.linalg.norm(z.values - fresh.values)
            <= 1e-12 * np.linalg.norm(fresh.values))


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


def test_a_failing_step_pays_for_one_newton_pass(splu_calls):
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
        del splu_calls[:]
        try:
            y = steps.step(y + dt * u.values[m], y)
        except NewtonError:
            break
    else:
        pytest.fail("every step converged")
    assert len(splu_calls) <= pde._NEWTON_MAX_ITER


def test_control_shape_rejected():
    spec = schloegl_spec()
    bad = sc.field_at_nodes(spec.grid, spec.tgrid)
    with pytest.raises(ValueError):
        sc.solve_state(spec, bad)


def reference_state(spec, u, accepted=None):
    """solve_state's values as a plain loop of StepSystem.step calls."""
    steps, dt = spec.steps, spec.tgrid.dt
    y = [spec.y0]
    for m in range(1, spec.tgrid.n_t + 1):
        chord = None if accepted is None else (
            accepted[0].values[m], accepted[1][m - 1])
        y.append(steps.step(y[m - 1] + dt * u.values[m - 1], y[m - 1], chord))
    return np.array(y)


def reference_adjoint(spec, y, factors=None):
    """solve_adjoint's values as a plain loop of StepSystem.linear_step
    calls."""
    steps, dt, n_t = spec.steps, spec.tgrid.dt, spec.tgrid.n_t
    factors = [None] * n_t if factors is None else factors
    p = [np.zeros(spec.grid.n_nodes)] * (n_t + 1)
    for m in range(n_t, 0, -1):
        p[m - 1], factors[m - 1] = steps.linear_step(
            p[m] + dt * (y.values[m] - spec.yd.values[m]), y.values[m],
            factors[m - 1])
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
    spec = schloegl_spec(n=6, n_t=8)
    if kind != "schloegl":
        spec = replace(spec, nonlinearity=sc.NonlinearitySpec(
            kind, (2.0,) if kind == "linear" else ()))
    rng = np.random.default_rng(77)
    u = random_control(spec, rng, scale=0.5)
    y = sc.solve_state(spec, u)
    assert y.values.tobytes() == reference_state(spec, u).tobytes()
    assert (sc.solve_adjoint(spec, y).values.tobytes()
            == reference_adjoint(spec, y).tobytes())
    assert (sc.solve_linearized(spec, y, u).values.tobytes()
            == reference_linearized(spec, y, u).tobytes())
    # held factors at y, then a nearby control: the state chords on them
    # and the adjoint refines on them, and may replace some
    factors = [None] * spec.tgrid.n_t
    sc.solve_adjoint(spec, y, factors)
    near = like(u, u.values + 1e-3 * rng.standard_normal(u.values.shape))
    held = list(factors)
    y_near = sc.solve_state(spec, near, (y, factors))
    assert (y_near.values.tobytes()
            == reference_state(spec, near, (y, held)).tobytes())
    phi_near = sc.solve_adjoint(spec, y_near, factors)
    assert (phi_near.values.tobytes()
            == reference_adjoint(spec, y_near, held).tobytes())
