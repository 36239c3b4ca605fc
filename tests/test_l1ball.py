import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sparsecontrol as sc
from sparsecontrol.checks import (bisect_threshold,
                                  check_projection_oracle)
from sparsecontrol.grid import like
from sparsecontrol.l1ball import (_project_rows, project_field, project_slice,
                                  recover_multiplier)

slices = st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=50).map(np.array)
weights = st.floats(0.05, 3.0)
budgets = st.floats(0.01, 50.0)


def test_feasible_slice_passes_through():
    res = project_slice(np.array([0.3, -0.2]), 1.0, 2.0)
    assert res.threshold == 0.0
    assert np.array_equal(res.values, [0.3, -0.2])


def test_hand_example_unit_weight():
    res = project_slice(np.array([3.0, 1.0]), 1.0, 2.0)
    assert res.threshold == pytest.approx(1.0)
    assert np.allclose(res.values, [2.0, 0.0], atol=1e-15)


def test_hand_example_weighted_signed():
    res = project_slice(np.array([-3.0, 1.0]), 0.5, 1.0)
    assert res.threshold == pytest.approx(1.0)
    assert np.allclose(res.values, [-2.0, 0.0], atol=1e-15)


def test_tiny_budget_shrinks_to_origin():
    v = np.array([4.0, -2.0, 1.0])
    res = project_slice(v, 1.0, 1e-9)
    assert np.sum(np.abs(res.values)) == pytest.approx(1e-9, rel=1e-6)
    assert np.max(np.abs(res.values)) <= 2e-9


def test_invalid_arguments():
    with pytest.raises(ValueError):
        project_slice(np.array([1.0]), 1.0, 0.0)
    with pytest.raises(ValueError):
        project_slice(np.array([1.0]), -1.0, 1.0)


@settings(max_examples=400, derandomize=True)
@given(slices, weights, budgets)
def test_projection_properties(v, w, gamma):
    res = project_slice(v, w, gamma)
    total = w * np.sum(np.abs(res.values))
    assert total <= gamma + 1e-12 * max(1.0, gamma)
    if res.threshold > 0.0:
        assert total == pytest.approx(gamma, abs=1e-10 * max(1.0, gamma))
    else:
        assert np.array_equal(res.values, v)
    # threshold engages exactly when the input is (strictly) infeasible
    input_total = w * np.sum(np.abs(v))
    if input_total > gamma * (1.0 + 1e-10):
        assert res.threshold > 0.0
    if input_total < gamma * (1.0 - 1e-10):
        assert res.threshold == 0.0
    # idempotence, exact
    again = project_slice(res.values, w, gamma)
    assert np.array_equal(again.values, res.values)
    assert again.threshold == 0.0


@settings(max_examples=200, derandomize=True)
@given(slices, weights, budgets, st.integers(0, 2**31 - 1))
def test_nonexpansive(v, w, gamma, seed):
    rng = np.random.default_rng(seed)
    b = v + rng.standard_normal(v.size)
    pa = project_slice(v, w, gamma).values
    pb = project_slice(b, w, gamma).values
    assert np.sqrt(w * np.sum((pa - pb) ** 2)) \
        <= np.sqrt(w * np.sum((v - b) ** 2)) + 1e-12


def test_matches_bisection_oracle():
    result = check_projection_oracle(np.random.default_rng(123), 500)
    assert result.passed, result.detail


def test_project_rows_mixed_stack():
    w, gamma = 0.2, 0.5
    values = np.array([
        [5.0, -3.0, 2.0, 0.0],      # infeasible
        [0.1, -0.1, 0.0, 0.1],      # feasible
        [1.25, 0.0, -1.0, 0.25],    # exactly on budget: w * 2.5 == gamma
        [0.0, 0.0, 0.0, 0.0],       # all zero
        [2.0, -2.0, 2.0, -2.0],     # ties
    ])
    assert w * np.sum(np.abs(values[2])) == gamma
    projected, thresholds = _project_rows(values, w, gamma)
    for m in range(values.shape[0]):
        lam = bisect_threshold(values[m], w, gamma)
        assert abs(thresholds[m] - lam) <= 1e-10
        if thresholds[m] == 0.0:
            assert np.array_equal(projected[m], values[m])
        else:
            assert w * np.sum(np.abs(projected[m])) == pytest.approx(gamma)
    assert list(thresholds > 0.0) == [True, False, False, False, True]
    assert thresholds[4] == pytest.approx((8.0 - gamma / w) / 4.0)


def random_stack(rng, all_over):
    """(values, w, gamma): rows over budget, feasible, all zero, tied and
    all -0.0 mixed, or over budget only; signed zeros inside rows."""
    n, m = int(rng.integers(1, 30)), int(rng.integers(1, 8))
    w, gamma = float(10.0 ** rng.uniform(-1, 0.5)), float(rng.uniform(0.1, 5))
    kinds = np.zeros(m, int) if all_over else rng.integers(0, 5, m)
    values = np.empty((m, n))
    for row, kind in zip(values, kinds):
        v = rng.standard_normal(n)
        v[1:][rng.random(n - 1) < 0.2] = -0.0
        mass = gamma / w / np.sum(np.abs(v))
        if kind == 0:       # over budget
            row[:] = v * mass * 10.0 ** rng.uniform(0.01, 1.0)
        elif kind == 1:     # feasible
            row[:] = v * mass * rng.uniform(0.0, 0.99)
        elif kind == 2:
            row[:] = 0.0
        elif kind == 3:     # over budget, every magnitude tied
            row[:] = rng.choice([-1.0, 1.0], n) * gamma / w / n * 3.0
        else:
            row[:] = -0.0
    return values, kinds, w, gamma


def test_project_rows_equals_project_slice_bitwise():
    rng = np.random.default_rng(2024)
    branches = set()
    for trial in range(300):
        values, kinds, w, gamma = random_stack(rng, all_over=trial % 3 == 0)
        projected, thresholds = _project_rows(values, w, gamma)
        branches.add(bool(np.all(thresholds > 0.0)))
        for m, row in enumerate(values):
            single = project_slice(row, w, gamma)
            assert projected[m].tobytes() == single.values.tobytes()
            assert thresholds[m] == single.threshold
            assert abs(thresholds[m] - bisect_threshold(row, w, gamma)) <= 1e-10
            if kinds[m] in (1, 2, 4):       # feasible: passes through
                assert thresholds[m] == 0.0
                assert projected[m].tobytes() == row.tobytes()
    assert branches == {True, False}


@pytest.mark.parametrize("over_share", [1.0, 0.5])
def test_projection_allocates_few_full_size_arrays(over_share):
    # every fresh full-size temporary is page-faulted in on each call
    rng = np.random.default_rng(3)
    values = rng.standard_normal((200, 200))
    values[int(200 * over_share):] *= 1e-6      # these rows are feasible
    tracemalloc.start()
    try:
        _, thresholds = _project_rows(values, 1.0 / 201.0, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.mean(thresholds > 0.0) == over_share
    assert peak <= 5 * values.nbytes


def test_project_field_slicewise():
    grid = sc.SpaceGrid(1, 4)
    tgrid = sc.TimeGrid(1.0, 3)
    values = np.array([
        [0.1, -0.1, 0.0, 0.1],      # feasible
        [5.0, -3.0, 2.0, 0.0],      # infeasible
        [0.2, 0.0, 0.0, -0.2],      # feasible
    ])
    f = sc.field_per_interval(grid, tgrid, values)
    projected, thresholds = project_field(f, 0.5)
    assert np.array_equal(projected.values[0], values[0])
    assert np.array_equal(projected.values[2], values[2])
    assert thresholds[0] == 0.0 and thresholds[2] == 0.0
    assert thresholds[1] > 0.0
    # componentwise match with the slice routine
    per_slice = project_slice(values[1], grid.cell_weight, 0.5)
    assert np.array_equal(projected.values[1], per_slice.values)
    assert thresholds[1] == per_slice.threshold


def test_recover_multiplier_values():
    grid = sc.SpaceGrid(1, 2)
    tgrid = sc.TimeGrid(1.0, 1)
    u = sc.field_per_interval(grid, tgrid, np.array([[2.0, 0.0]]))
    phi = sc.field_per_interval(grid, tgrid, np.array([[-3.0, -1.0]]))
    mu = recover_multiplier(u, phi, 1.0)
    assert np.allclose(mu.values, [[1.0, 1.0]])
    # unconstrained stationarity: u = -phi/kappa gives mu = 0
    kappa = 0.7
    u2 = like(u, -phi.values / kappa)
    assert np.allclose(recover_multiplier(u2, phi, kappa).values, 0.0)
    # linearity in (u, phi)
    mu2 = recover_multiplier(like(u, 3.0 * u.values), like(phi, 3.0 * phi.values), 1.0)
    assert np.allclose(mu2.values, 3.0 * mu.values)


def test_recover_multiplier_shape_mismatch():
    grid = sc.SpaceGrid(1, 2)
    tgrid = sc.TimeGrid(1.0, 2)
    u = sc.field_per_interval(grid, tgrid)
    phi = sc.field_at_nodes(grid, tgrid)
    with pytest.raises(ValueError):
        recover_multiplier(u, phi, 1.0)


def test_soft_threshold_identity_chain():
    # project -phi/kappa, recover mu, check |phi| = kappa|u| + |mu| nodewise
    # and the support/sign structure of the multiplier
    rng = np.random.default_rng(7)
    kappa, gamma, w = 0.4, 1.3, 0.25
    for _ in range(50):
        phi = rng.standard_normal(12) * 3.0
        res = project_slice(-phi / kappa, w, gamma)
        u = res.values
        mu = -(phi + kappa * u)
        assert np.max(np.abs(np.abs(phi) - (kappa * np.abs(u) + np.abs(mu)))) <= 1e-12
        assert np.all(u * mu >= -1e-14)          # same signs
        if res.threshold > 0:
            on_support = np.abs(u) > 0
            assert np.all(np.abs(np.abs(mu[on_support]) / kappa
                                 - res.threshold) <= 1e-12)
            assert np.max(np.abs(mu)) / kappa == pytest.approx(res.threshold,
                                                               rel=1e-12)
        else:
            assert np.allclose(mu, 0.0, atol=1e-12)
