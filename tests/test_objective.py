from dataclasses import replace

import numpy as np
import pytest

import sparsecontrol as sc
from sparsecontrol.grid import like

from conftest import linear_1d_spec, random_control, schloegl_spec


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
    spec = schloegl_spec()
    rng = np.random.default_rng(25)
    eps = 1e-4
    for _ in range(3):
        u = random_control(spec, rng)
        v = random_control(spec, rng)
        g = sc.eval_gradient(spec, u)
        plus = sc.eval_J(spec, like(u, u.values + eps * v.values))
        minus = sc.eval_J(spec, like(u, u.values - eps * v.values))
        fd = (plus - minus) / (2 * eps)
        exact = sc.l2_inner(g, v)
        assert abs(fd - exact) <= 1e-6 * abs(exact)


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
    spec = schloegl_spec()
    rng = np.random.default_rng(29)
    eps = 1e-3
    for _ in range(3):
        u = random_control(spec, rng)
        v = random_control(spec, rng)
        mid = sc.eval_J(spec, u)
        plus = sc.eval_J(spec, like(u, u.values + eps * v.values))
        minus = sc.eval_J(spec, like(u, u.values - eps * v.values))
        fd = (plus - 2 * mid + minus) / eps**2
        q = sc.eval_curvature(spec, u, v)
        assert abs(fd - q) <= 1e-4 * abs(q)


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


@pytest.mark.filterwarnings("ignore::sparsecontrol.pde.TruncationActiveWarning")
def test_curvature_refuses_engaged_clamp():
    # the clamp-engaged Schloegl instance of the adjoint tests: a'' would be
    # the unclamped one, so the form must refuse rather than answer
    spec = replace(schloegl_spec(), nonlinearity=sc.NonlinearitySpec(
        "schloegl", (-1.0, 0.0, 1.0), truncation=sc.TruncationSpec(0.05)))
    rng = np.random.default_rng(6)
    u = random_control(spec, rng)
    v = random_control(spec, rng)
    with pytest.raises(ValueError, match="clamp level 0.05"):
        sc.eval_curvature(spec, u, v)


@pytest.mark.filterwarnings("ignore::sparsecontrol.pde.TruncationActiveWarning")
def test_curvature_ignores_initial_state_above_clamp():
    # a level between max|y_m|, m >= 1, and max|y_0|: the clamp never acts
    # on the states the form reads, so the form is the one at the default
    # (idle) level
    spec = schloegl_spec()
    u = sc.field_per_interval(spec.grid, spec.tgrid)
    later = float(np.max(np.abs(sc.solve_state(spec, u).values[1:])))
    level = 0.5 * (later + float(np.max(np.abs(spec.y0))))
    assert later < level <= float(np.max(np.abs(spec.y0)))
    clamped = replace(spec, nonlinearity=sc.NonlinearitySpec(
        "schloegl", (-1.0, 0.0, 1.0), truncation=sc.TruncationSpec(level)))
    v = random_control(spec, np.random.default_rng(6))
    assert sc.eval_curvature(clamped, u, v) == pytest.approx(
        sc.eval_curvature(spec, u, v), rel=1e-12)
