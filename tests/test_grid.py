import numpy as np
import pytest

import sparsecontrol as sc
from sparsecontrol.grid import like


def small_field(values, n_t=2, T=1.0, semantics="per-interval"):
    grid = sc.SpaceGrid(1, 1)
    tgrid = sc.TimeGrid(T, n_t)
    return sc.SpaceTimeField(grid, tgrid, np.asarray(values, dtype=float),
                             semantics)


def test_space_grid_basics():
    grid = sc.SpaceGrid(2, 7)
    assert grid.h * (grid.n_per_axis + 1) == pytest.approx(1.0, abs=1e-16)
    assert grid.n_nodes == 49
    assert grid.cell_weight == pytest.approx(grid.h**2)
    assert grid.coords().shape == (49, 2)


def test_time_grid_basics():
    tgrid = sc.TimeGrid(2.0, 8)
    assert tgrid.dt * tgrid.n_t == pytest.approx(2.0, rel=1e-15)
    assert tgrid.node_times()[0] == 0.0
    assert tgrid.node_times()[-1] == pytest.approx(2.0)
    assert len(tgrid.interval_times()) == 8


@pytest.mark.parametrize("bad", [
    dict(n_dim=3, n_per_axis=4),
    dict(n_dim=1, n_per_axis=0),
])
def test_space_grid_rejects(bad):
    with pytest.raises(ValueError):
        sc.SpaceGrid(**bad)


def test_field_shape_validation():
    grid = sc.SpaceGrid(1, 3)
    tgrid = sc.TimeGrid(1.0, 4)
    with pytest.raises(ValueError):
        sc.SpaceTimeField(grid, tgrid, np.zeros((4, 3)), "at-nodes")
    with pytest.raises(ValueError):
        sc.SpaceTimeField(grid, tgrid, np.full((4, 3), np.nan), "per-interval")


def test_l2_inner_zero_field():
    f = small_field(np.zeros((2, 1)))
    assert sc.l2_inner(f, f) == 0.0


def test_l2_inner_hand_quadrature():
    # n_per_axis=1 so h=1/2, n_t=2 with T=1 so dt=1/2: two slices of dt*w
    f = small_field(np.ones((2, 1)))
    assert sc.l2_inner(f, f) == pytest.approx(0.5, rel=1e-15)


def test_l2_inner_negation():
    rng = np.random.default_rng(3)
    f = small_field(rng.standard_normal((2, 1)))
    g = like(f, -f.values)
    assert sc.l2_inner(f, g) == pytest.approx(-sc.l2_inner(f, f), rel=1e-15)


def test_l2_inner_symmetric_bilinear():
    rng = np.random.default_rng(11)
    grid = sc.SpaceGrid(2, 4)
    tgrid = sc.TimeGrid(1.5, 5)
    def rand():
        return sc.field_per_interval(grid, tgrid,
                                     rng.standard_normal((5, 16)))
    f, g, w = rand(), rand(), rand()
    assert sc.l2_inner(f, g) == pytest.approx(sc.l2_inner(g, f), rel=1e-14)
    lhs = sc.l2_inner(like(f, 2.0 * f.values + w.values), g)
    rhs = 2.0 * sc.l2_inner(f, g) + sc.l2_inner(w, g)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    assert sc.l2_inner(f, f) > 0.0


def test_l2_inner_shape_mismatch():
    f = small_field(np.ones((2, 1)))
    g = sc.field_per_interval(sc.SpaceGrid(1, 2), sc.TimeGrid(1.0, 2))
    with pytest.raises(ValueError):
        sc.l2_inner(f, g)


def test_mixed_semantics_alignment():
    # at-nodes slice 0 is initial data and stays out of the quadrature
    grid = sc.SpaceGrid(1, 1)
    tgrid = sc.TimeGrid(1.0, 2)
    state = sc.field_at_nodes(grid, tgrid, np.array([[7.0], [1.0], [1.0]]))
    control = sc.field_per_interval(grid, tgrid, np.ones((2, 1)))
    assert sc.l2_inner(state, control) == pytest.approx(0.5, rel=1e-15)


def test_quadrature_consistency_refines_first_order():
    # integral of 1 over (0,1)^2 x (0,T): dropped boundary cells cost O(h)
    T = 2.0
    errors = []
    for n in (4, 8, 16):
        grid = sc.SpaceGrid(2, n)
        tgrid = sc.TimeGrid(T, 6)
        ones = sc.field_per_interval(grid, tgrid,
                                     np.ones((6, grid.n_nodes)))
        value = sc.l2_inner(ones, ones)
        errors.append(abs(value - T))
        assert abs(value - T) <= 2.1 * T * grid.h
    assert errors[2] < errors[1] < errors[0]


def test_slice_l1_norm_hand_sum():
    # the per-slice weighted l1 norm the library reduces rows to
    f = small_field(np.array([[3.0], [-1.0]]))
    zero = like(f, np.zeros_like(f.values))
    # cell_weight = 1/2
    l1 = sc.classify_slices(f, zero, 1.0).l1_norms
    assert l1 == pytest.approx([1.5, 0.5])
    grid = sc.SpaceGrid(1, 2)
    two = sc.SpaceTimeField(grid, sc.TimeGrid(1.0, 1),
                            np.array([[3.0, -1.0]]), "per-interval")
    l1 = sc.classify_slices(two, like(two, np.zeros_like(two.values)),
                            1.0).l1_norms
    assert l1[0] == pytest.approx(grid.cell_weight * 4.0)


def test_diffusion_tensor_validation():
    with pytest.raises(ValueError):
        sc.DiffusionTensor(((1.0, 0.5), (0.4, 1.0)))   # not symmetric
    with pytest.raises(ValueError):
        sc.DiffusionTensor(((1.0, 2.0), (2.0, 1.0)))   # indefinite
    t = sc.DiffusionTensor(((2.0, 0.5), (0.5, 1.0)))
    assert np.linalg.eigvalsh(t.as_array()).min() > 0.0
    assert sc.isotropic(1, 3.0).as_array()[0, 0] == 3.0
