from dataclasses import replace

import numpy as np
import pytest

import sparsecontrol as sc
from sparsecontrol.checks import check_curvature_fd, check_gradient_fd
from sparsecontrol.grid import like

from conftest import (Y0_ONLY_CLAMP_LEVEL, factorizations, linear_1d_spec,
                      random_control, schloegl_spec, with_clamp)


def test_zero_problem_zero_objective():
    spec = schloegl_spec(y0="zero", yd="zero")
    zero_nl = sc.ProblemSpec(
        kappa=spec.kappa, gamma=spec.gamma, grid=spec.grid, tgrid=spec.tgrid,
        diffusion=spec.diffusion, nonlinearity=sc.NonlinearitySpec("zero"),
        y0=spec.y0, yd=spec.yd)
    u = sc.field_per_interval(spec.grid, spec.tgrid)
    assert sc.eval_J(zero_nl, u) == 0.0


def test_heat_tracking_value_oracle():
    # a = 0, u = 0: J is half the squared distance between the discrete heat
    # decay of y0 and the target, accumulated by an explicit loop
    spec = linear_1d_spec()
    u = sc.field_per_interval(spec.grid, spec.tgrid)
    h = spec.grid.h
    lam_h = (2.0 - 2.0 * np.cos(np.pi * h)) / h**2
    dt, w = spec.tgrid.dt, spec.grid.cell_weight
    total = 0.0
    state = spec.y0.copy()
    for m in range(1, spec.tgrid.n_t + 1):
        state = state / (1.0 + dt * lam_h)
        total += dt * w * float(np.sum((state - spec.yd.values[m]) ** 2))
    assert sc.eval_J(spec, u) == pytest.approx(0.5 * total, rel=1e-10)


def test_objective_dominates_control_cost():
    spec = schloegl_spec()
    rng = np.random.default_rng(21)
    for _ in range(3):
        u = random_control(spec, rng)
        assert sc.eval_J(spec, u) >= 0.5 * spec.kappa * sc.l2_inner(u, u) - 1e-14


def test_gradient_is_kappa_u_at_matched_target():
    spec = schloegl_spec()
    rng = np.random.default_rng(23)
    u = random_control(spec, rng)
    y = sc.solve_state(spec, u)
    matched = sc.ProblemSpec(
        kappa=spec.kappa, gamma=spec.gamma, grid=spec.grid, tgrid=spec.tgrid,
        diffusion=spec.diffusion, nonlinearity=spec.nonlinearity,
        y0=spec.y0, yd=y)
    g = sc.eval_gradient(matched, u)
    assert np.allclose(g.values, spec.kappa * u.values, rtol=0, atol=1e-15)


def test_gradient_reduces_to_adjoint_at_zero_control():
    spec = schloegl_spec(y0="zero")
    u = sc.field_per_interval(spec.grid, spec.tgrid)
    g = sc.eval_gradient(spec, u)
    phi = sc.solve_adjoint(spec, sc.solve_state(spec, u))
    assert np.array_equal(g.values, phi.values)


def test_gradient_matches_central_differences():
    result = check_gradient_fd(np.random.default_rng(25))
    assert result.passed, result.detail


def test_curvature_zero_direction():
    spec = schloegl_spec()
    u = sc.field_per_interval(spec.grid, spec.tgrid)
    v = sc.field_per_interval(spec.grid, spec.tgrid)
    assert sc.eval_curvature(spec, u, v) == 0.0


def test_curvature_positive_without_reaction():
    spec = linear_1d_spec()
    rng = np.random.default_rng(27)
    u = random_control(spec, rng)
    v = random_control(spec, rng)
    q = sc.eval_curvature(spec, u, v)
    y = sc.solve_state(spec, u)
    z = sc.solve_linearized(spec, y, v)
    zi = sc.field_at_nodes(spec.grid, spec.tgrid, z.values)
    expected = sc.l2_inner(zi, zi) + spec.kappa * sc.l2_inner(v, v)
    assert q == pytest.approx(expected, rel=1e-12)
    assert q >= spec.kappa * sc.l2_inner(v, v)


def test_curvature_matches_second_differences():
    result = check_curvature_fd(np.random.default_rng(29))
    assert result.passed, result.detail


def test_curvature_polarization_symmetry():
    spec = schloegl_spec()
    rng = np.random.default_rng(31)
    u = random_control(spec, rng)
    v = random_control(spec, rng)
    w = random_control(spec, rng)
    def q(d):
        return sc.eval_curvature(spec, u, d)
    polar = 0.25 * (q(like(v, v.values + w.values))
                    - q(like(v, v.values - w.values)))
    split = 0.5 * (q(like(v, v.values + w.values)) - q(v) - q(w))
    assert polar == pytest.approx(split, rel=1e-8)


def test_curvature_coercivity_witness():
    spec = schloegl_spec()
    rng = np.random.default_rng(33)
    u = random_control(spec, rng)
    v = random_control(spec, rng)
    y = sc.solve_state(spec, u)
    phi = sc.solve_adjoint(spec, y)
    z = sc.solve_linearized(spec, y, v)
    weight = 1.0 - sc.eval_ayy(spec.nonlinearity, y.values[1:]) * phi.values
    zq = sc.field_at_nodes(spec.grid, spec.tgrid, z.values)
    bound = spec.kappa * sc.l2_inner(v, v) \
        - float(np.max(np.abs(weight))) * sc.l2_inner(zq, zq)
    assert sc.eval_curvature(spec, u, v) >= bound - 1e-12


def test_hessian_vector_matches_the_weighted_form():
    # <H v, v> equals the weighted tracking sum plus kappa <v, v>, H is
    # symmetric, and the product on the factors the adjoint sweep held
    # matches the factoring one, on a copy of the problem that holds none,
    # without a factorization
    spec = schloegl_spec()
    factoring = replace(spec)
    rng = np.random.default_rng(35)
    u, v, w = (random_control(spec, rng) for _ in range(3))
    y = sc.solve_state(spec, u)
    phi = sc.solve_adjoint(spec, y)
    z = sc.solve_linearized(factoring, y, v)
    weight = 1.0 - sc.eval_ayy(spec.nonlinearity, y.values[1:]) * phi.values
    assert np.array_equal(sc.curvature_weight(spec, y, phi), weight)
    formula = (spec.tgrid.dt * spec.grid.cell_weight
               * float(np.sum(weight * z.values[1:] ** 2))
               + spec.kappa * sc.l2_inner(v, v))
    hv = sc.hessian_vector(factoring, y, phi, v)
    assert sc.l2_inner(hv, v) == pytest.approx(formula, rel=1e-12)
    hw = sc.hessian_vector(factoring, y, phi, w)
    assert sc.l2_inner(hv, w) == pytest.approx(sc.l2_inner(v, hw), rel=1e-12)
    before = factorizations(spec.steps)
    held = sc.hessian_vector(spec, y, phi, v)
    assert factorizations(spec.steps) == before
    assert (np.linalg.norm(held.values - hv.values)
            <= 1e-12 * np.linalg.norm(hv.values))


@pytest.mark.filterwarnings("ignore::sparsecontrol.pde.TruncationActiveWarning")
def test_curvature_refuses_engaged_clamp():
    # the clamp-engaged Schloegl instance of the adjoint tests: a'' would be
    # the unclamped one, so the form must refuse rather than answer
    spec = with_clamp(schloegl_spec(), 0.05)
    rng = np.random.default_rng(6)
    u = random_control(spec, rng)
    v = random_control(spec, rng)
    with pytest.raises(ValueError, match="clamp level 0.05"):
        sc.eval_curvature(spec, u, v)


def test_curvature_ignores_initial_state_above_clamp():
    # the clamp reaches y_0 only, which the form does not read, so the form
    # is the one at the default (idle) level
    spec = schloegl_spec()
    u = sc.field_per_interval(spec.grid, spec.tgrid)
    v = random_control(spec, np.random.default_rng(6))
    clamped = with_clamp(spec, Y0_ONLY_CLAMP_LEVEL)
    assert sc.eval_curvature(clamped, u, v) == pytest.approx(
        sc.eval_curvature(spec, u, v), rel=1e-12)
