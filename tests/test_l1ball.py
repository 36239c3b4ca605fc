import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sparsecontrol as sc
from sparsecontrol.checks import (bisect_threshold,
                                  check_projection_oracle)
from sparsecontrol.grid import like
from sparsecontrol import l1ball
from sparsecontrol.l1ball import (_FEASIBLE_RTOL, _project_rows, _scan,
                                  project_field, project_slice,
                                  projection_derivative, recover_multiplier)

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


def full_scan_rows(values, w, gamma):
    """The projection kernel that scans every sorted column and restores
    signs by a product with np.sign: the reference for the bounded scan."""
    d = np.abs(values)
    total = w * np.sum(d, axis=1)
    over = ~(total <= gamma + _FEASIBLE_RTOL * np.maximum(1.0, total))
    thresholds = np.zeros(values.shape[0])
    if not np.any(over):
        return values.copy(), thresholds
    every = bool(np.all(over))
    d_over = d if every else d[over]
    d_sorted = np.sort(d_over, axis=1)[:, ::-1]
    lam_k = np.cumsum(d_sorted, axis=1)
    lam_k -= gamma / w
    lam_k /= np.arange(1, lam_k.shape[1] + 1)
    clears = lam_k >= 0.0
    np.greater_equal(lam_k[:, :-1], d_sorted[:, 1:], out=clears[:, :-1])
    lam = lam_k[np.arange(lam_k.shape[0]), np.argmax(clears, axis=1)]
    d_over -= lam[:, None]
    np.maximum(d_over, 0.0, out=d_over)
    d_over *= np.sign(values if every else values[over])
    thresholds[over] = lam
    if every:
        return d_over, thresholds
    projected = values.copy()
    projected[over] = d_over
    return projected, thresholds


def assert_matches_full_scan(values, w, gamma):
    projected, thresholds = _project_rows(values, w, gamma)
    reference, reference_thresholds = full_scan_rows(values, w, gamma)
    assert thresholds.tobytes() == reference_thresholds.tobytes()
    # np.copysign keeps the sign of a -0.0 entry of a row over budget,
    # which the product with np.sign(-0.0) = +0.0 drops; every other bit
    # is the reference's
    negative_zero = ((values == 0.0) & np.signbit(values)
                     & (thresholds > 0.0)[:, None])
    assert np.array_equal(np.signbit(projected),
                          np.signbit(reference) | negative_zero)
    assert np.abs(projected).tobytes() == np.abs(reference).tobytes()
    return thresholds


@pytest.mark.parametrize("min_size", [0, l1ball._BOUNDED_SCAN_MIN_SIZE],
                         ids=["every-stack", "default-floor"])
def test_bounded_scan_equals_the_full_scan_bitwise(min_size, monkeypatch):
    # the scan stops one column past the most entries above
    # max(lam_1, lam_n) in a row; the output is the full scan's, byte for
    # byte but for the sign of a -0.0 entry: mixed random stacks with
    # signed zeros, 200 x 200 stacks with small supports (a few large
    # entries over a low floor), and stacks whose support is every node.
    # With min_size 0 the small stacks are bounded too
    monkeypatch.setattr(l1ball, "_BOUNDED_SCAN_MIN_SIZE", min_size)
    scanned = []

    def recording(d_sorted, radius, k):
        scanned.append(k)
        return _scan(d_sorted, radius, k)

    monkeypatch.setattr(l1ball, "_scan", recording)
    rng = np.random.default_rng(2026)
    for trial in range(300):
        values, _, w, gamma = random_stack(rng, all_over=trial % 3 == 0)
        assert_matches_full_scan(values, w, gamma)
    for support in (1, 5, 21, 70):
        values = 1e-3 * rng.standard_normal((200, 200))
        for row in values:
            spikes = rng.choice(200, support, replace=False)
            row[spikes] = rng.choice([-1.0, 1.0], support) * rng.uniform(
                1.0, 2.0, support)
        w = 1.0 / 201.0
        del scanned[:]
        thresholds = assert_matches_full_scan(values, w, 0.5 * support * w)
        assert scanned == [support + 1]
        assert np.all(thresholds > 0.0)
        assert np.max(np.sum(np.abs(values) > thresholds[:, None],
                             axis=1)) <= support
    for n in (1, 2, 7, 200):
        values = rng.choice([-1.0, 1.0], (6, n)) * rng.uniform(1.0, 1.1, (6, n))
        w = 1.0 / (n + 1)
        gamma = 0.5 * w * float(np.min(np.sum(np.abs(values), axis=1)))
        thresholds = assert_matches_full_scan(values, w, gamma)
        assert np.all(np.abs(values) > thresholds[:, None])


def test_scan_too_short_falls_back_to_every_column():
    # a row whose breakpoint lies past the columns scanned, which only
    # roundoff at a tie makes the bound cause, is scanned in full
    d_sorted = np.array([[3.0, 2.5, 2.0, 1.5, 1.0, 0.5]])
    lam = _scan(d_sorted, 8.0, 6)
    assert lam[0] == (10.5 - 8.0) / 6.0
    for k in (1, 3, 5):
        assert _scan(d_sorted, 8.0, k).tobytes() == lam.tobytes()


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


def derivative_stack(rng, n_nodes, n_rows=6):
    """(pre-images, w, gamma): a random stack whose even rows are over
    budget and odd rows under it."""
    w, gamma = 1.0 / (n_nodes + 1), float(rng.uniform(0.1, 2.0))
    z = rng.standard_normal((n_rows, n_nodes))
    over = np.arange(n_rows) % 2 == 0
    factor = np.where(over, rng.uniform(1.5, 4.0, n_rows),
                      rng.uniform(0.2, 0.7, n_rows))
    z *= (factor * gamma / (w * np.sum(np.abs(z), axis=1)))[:, None]
    return z, w, gamma


@pytest.mark.parametrize("n_nodes", [1, 50])
@pytest.mark.parametrize("seed", range(4))
def test_projection_derivative_matches_difference_quotients(n_nodes, seed):
    rng = np.random.default_rng(seed)
    z, w, gamma = derivative_stack(rng, n_nodes)
    d = rng.standard_normal(z.shape)
    u, thresholds = _project_rows(z, w, gamma)
    active = thresholds > 0.0
    assert list(active) == [True, False] * 3
    eps = 1e-7
    up, up_thresholds = _project_rows(z + eps * d, w, gamma)
    down, down_thresholds = _project_rows(z - eps * d, w, gamma)
    # off the kinks: the support and the over-budget rows do not move
    for values, lam in ((up, up_thresholds), (down, down_thresholds)):
        assert np.array_equal(values != 0.0, u != 0.0)
        assert np.array_equal(lam > 0.0, active)
    quotient = (up - down) / (2.0 * eps)
    pd = projection_derivative(u, active, d)
    assert np.max(np.abs(quotient - pd)) <= 1e-6 * np.max(np.abs(pd))


@pytest.mark.parametrize("n_nodes", [1, 50])
@pytest.mark.parametrize("seed", range(4))
def test_projection_derivative_is_an_orthogonal_projection(n_nodes, seed):
    rng = np.random.default_rng(100 + seed)
    z, w, gamma = derivative_stack(rng, n_nodes)
    u, thresholds = _project_rows(z, w, gamma)
    active = thresholds > 0.0
    x, y = rng.standard_normal((2,) + z.shape)
    px, py = (projection_derivative(u, active, v) for v in (x, y))
    # idempotent and symmetric (the Q inner product of uniform weights)
    assert (np.max(np.abs(projection_derivative(u, active, px) - px))
            <= 1e-14 * np.max(np.abs(px)))
    assert (abs(np.vdot(px, y) - np.vdot(x, py))
            <= 1e-14 * np.linalg.norm(x) * np.linalg.norm(y))
    # the identity, bit for bit, on the rows under budget
    assert px[~active].tobytes() == x[~active].tobytes()
    # on the active rows: zero off the support, and sign(u) is annihilated
    assert np.all(px[active][u[active] == 0.0] == 0.0)
    assert np.all(projection_derivative(u, active, np.sign(u))[active] == 0.0)
    # accepts the flattened stack, as a Lanczos matvec passes it
    assert np.array_equal(projection_derivative(u, active, x.ravel()), px)
