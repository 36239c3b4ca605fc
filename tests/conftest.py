from collections import Counter
from dataclasses import replace

import pytest

import sparsecontrol as sc
from sparsecontrol.grid import like


def schloegl_spec(n=8, n_t=10, T=1.0, kappa=0.1, gamma=1.0, diff=1.0,
                  roots=(-1.0, 0.0, 1.0), y0="one-mode", yd="bump", n_dim=2):
    grid = sc.SpaceGrid(n_dim, n)
    tgrid = sc.TimeGrid(T, n_t)
    return sc.ProblemSpec(
        kappa=kappa, gamma=gamma, grid=grid, tgrid=tgrid,
        diffusion=sc.isotropic(n_dim, diff),
        nonlinearity=sc.NonlinearitySpec("schloegl", roots),
        y0=sc.spatial_preset(y0, grid),
        yd=sc.target_preset(yd, grid, tgrid))


def active_schloegl_spec(gamma=0.05):
    """The canonical active-budget instance: most slices bind the budget
    with a nonzero multiplier and the control is spatially sparse."""
    grid = sc.SpaceGrid(2, 12)
    tgrid = sc.TimeGrid(1.0, 24)
    yd = sc.target_preset("bump", grid, tgrid)
    return sc.ProblemSpec(
        kappa=0.3, gamma=gamma, grid=grid, tgrid=tgrid,
        diffusion=sc.isotropic(2, 0.3),
        nonlinearity=sc.NonlinearitySpec("schloegl", (-1.0, 0.0, 1.0)),
        y0=sc.spatial_preset("zero", grid),
        yd=like(yd, 2.0 * yd.values))


def linear_1d_spec(gamma=1e6, kappa=0.1, n=12, n_t=10, T=0.5):
    grid = sc.SpaceGrid(1, n)
    tgrid = sc.TimeGrid(T, n_t)
    return sc.ProblemSpec(
        kappa=kappa, gamma=gamma, grid=grid, tgrid=tgrid,
        diffusion=sc.isotropic(1, 1.0),
        nonlinearity=sc.NonlinearitySpec("zero"),
        y0=sc.spatial_preset("one-mode", grid),
        yd=sc.target_preset("zero", grid, tgrid))


# schloegl_spec() at zero control has max|y_0| = 0.970 and max|y_m| = 0.339
# for m >= 1: at this level the clamp reaches y_0 only, where it never acts
Y0_ONLY_CLAMP_LEVEL = 0.654


def with_clamp(spec, level):
    """spec with the reaction clamp at an explicit level."""
    return replace(spec, truncation=level)


def factorizations(steps):
    """The factorizations a step system has counted (StepSystem.work), by
    kind, kinds with none left out: separable_factors, separable_rejected
    and superlu_factors."""
    return +Counter({kind: steps.work[kind] for kind in (
        "separable_factors", "separable_rejected", "superlu_factors")})


def random_control(spec, rng, scale=1.0):
    values = scale * rng.standard_normal((spec.tgrid.n_t, spec.grid.n_nodes))
    return sc.field_per_interval(spec.grid, spec.tgrid, values)


@pytest.fixture(scope="session")
def active_solve():
    """Converged solve of the canonical active instance, shared across
    structure tests."""
    spec = active_schloegl_spec()
    report = sc.solve(spec, sc.OptimizerConfig(tol=1e-11, max_iter=400))
    assert report.converged
    return spec, report
