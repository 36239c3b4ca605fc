from dataclasses import replace

import pytest
from scipy.linalg.lapack import dpttrf
from scipy.sparse.linalg import splu

import sparsecontrol as sc
from sparsecontrol import pde
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


@pytest.fixture
def splu_calls(monkeypatch):
    """One entry per factorization the package makes from here on, the name
    of the routine: "splu" (sparse) or "dpttrf" (the zero reaction's
    constant tridiagonal matrix)."""
    calls = []

    def counting(name, factorize):
        def factorize_counted(*args, **kwargs):
            calls.append(name)
            return factorize(*args, **kwargs)
        return factorize_counted

    for name, factorize in (("splu", splu), ("dpttrf", dpttrf)):
        monkeypatch.setattr(pde, name, counting(name, factorize))
    return calls


@pytest.fixture
def triangular_solves(monkeypatch):
    """One entry per pair of triangular solves the package makes on a
    factor of a state-dependent step matrix from here on, "superlu"
    (_SparseFactor.solve)."""
    calls = []
    solve = pde._SparseFactor.solve

    def superlu_counted(self, b):
        calls.append("superlu")
        return solve(self, b)

    monkeypatch.setattr(pde._SparseFactor, "solve", superlu_counted)
    return calls
