"""Uniform tensor grids on the unit box and the discrete space-time norms.

Space is the unit interval or unit square with homogeneous Dirichlet data;
only interior nodes are stored, spacing h = 1/(n_per_axis+1), and every node
carries the lumped quadrature weight h^n_dim.  Time is a uniform grid on
(0, T).  State-like fields live at the time nodes t_0..t_nt; control-like
fields (control, adjoint, multiplier) live per time interval, interval m
being represented at its right node t_m.  Time quadrature always uses the
right-endpoint rectangle rule, so every field contributes exactly n_t slices
of weight dt regardless of semantics, and slice 0 of a node field (the
initial datum) never enters an integral.  This is the alignment under which
the backward solve in :mod:`sparsecontrol.pde` is the exact transpose of the
forward linearization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

AT_NODES = "at-nodes"
PER_INTERVAL = "per-interval"


@dataclass(frozen=True)
class SpaceGrid:
    """Interior nodes of (0,1)^n_dim, n_dim in {1, 2}, uniform spacing."""

    n_dim: int
    n_per_axis: int

    def __post_init__(self):
        if self.n_dim not in (1, 2):
            raise ValueError(f"n_dim must be 1 or 2, got {self.n_dim}")
        if self.n_per_axis < 1:
            raise ValueError(f"n_per_axis must be >= 1, got {self.n_per_axis}")

    @property
    def h(self) -> float:
        return 1.0 / (self.n_per_axis + 1)

    @property
    def cell_weight(self) -> float:
        return self.h**self.n_dim

    @property
    def n_nodes(self) -> int:
        return self.n_per_axis**self.n_dim

    def axis_coords(self) -> np.ndarray:
        """Interior coordinates along one axis: h, 2h, ..., 1-h."""
        return self.h * np.arange(1, self.n_per_axis + 1)

    def coords(self) -> np.ndarray:
        """Node coordinates, shape (n_nodes, n_dim), row-major over axes."""
        x = self.axis_coords()
        if self.n_dim == 1:
            return x[:, None]
        x1, x2 = np.meshgrid(x, x, indexing="ij")
        return np.column_stack([x1.ravel(), x2.ravel()])


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on (0, T) with n_t steps."""

    T: float
    n_t: int

    def __post_init__(self):
        if not 0 < self.T < np.inf:
            raise ValueError(f"horizon T must be finite and > 0, got {self.T}")
        if self.n_t < 1:
            raise ValueError(f"n_t must be >= 1, got {self.n_t}")

    @property
    def dt(self) -> float:
        return self.T / self.n_t

    def node_times(self) -> np.ndarray:
        """t_m = m*dt for m = 0..n_t."""
        return self.dt * np.arange(self.n_t + 1)

    def interval_times(self) -> np.ndarray:
        """Right node of every interval: t_1..t_nt."""
        return self.dt * np.arange(1, self.n_t + 1)


@dataclass
class SpaceTimeField:
    """Values of a space-time function on the grid.

    values has shape (n_slices, n_nodes): n_t+1 slices for at-node fields,
    n_t for per-interval fields.  Row k of a per-interval field is the value
    on the interval (t_k, t_{k+1}].  Treat instances as immutable once
    built; library code never mutates them in place.
    """

    grid: SpaceGrid
    tgrid: TimeGrid
    values: np.ndarray
    slice_semantics: str = AT_NODES

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.slice_semantics not in (AT_NODES, PER_INTERVAL):
            raise ValueError(f"unknown slice semantics {self.slice_semantics!r}")
        expected = (self.n_slices, self.grid.n_nodes)
        if self.values.shape != expected:
            raise ValueError(
                f"field values have shape {self.values.shape}, expected {expected}"
            )
        if not np.isfinite(self.values).all():
            raise ValueError("field values must be finite")

    @property
    def n_slices(self) -> int:
        n_t = self.tgrid.n_t
        return n_t + 1 if self.slice_semantics == AT_NODES else n_t

    def copy(self) -> "SpaceTimeField":
        return SpaceTimeField(self.grid, self.tgrid, self.values.copy(),
                              self.slice_semantics)

    def integration_slices(self) -> np.ndarray:
        """The n_t slices entering time quadrature, aligned at right nodes."""
        if self.slice_semantics == AT_NODES:
            return self.values[1:]
        return self.values


def field_at_nodes(grid, tgrid, values=None) -> SpaceTimeField:
    if values is None:
        values = np.zeros((tgrid.n_t + 1, grid.n_nodes))
    return SpaceTimeField(grid, tgrid, values, AT_NODES)


def field_per_interval(grid, tgrid, values=None) -> SpaceTimeField:
    if values is None:
        values = np.zeros((tgrid.n_t, grid.n_nodes))
    return SpaceTimeField(grid, tgrid, values, PER_INTERVAL)


def like(f: SpaceTimeField, values: np.ndarray) -> SpaceTimeField:
    """New field sharing f's grids and semantics."""
    return SpaceTimeField(f.grid, f.tgrid, values, f.slice_semantics)


def require_field(f: SpaceTimeField, semantics: str, spec, name: str):
    """ValueError naming the field unless it has the slice semantics given
    and lives on the grids of spec, a ProblemSpec."""
    if f.slice_semantics != semantics:
        raise ValueError(f"{name} must be {semantics}, not {f.slice_semantics}")
    if f.grid != spec.grid or f.tgrid != spec.tgrid:
        raise ValueError(f"{name} lives on different grids")


@dataclass(frozen=True)
class DiffusionTensor:
    """Constant symmetric diffusion tensor a_ij, uniformly elliptic.

    The smallest eigenvalue is checked to be strictly positive at
    construction.
    """

    matrix: tuple = field(default=((1.0,),))

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (1, 2):
            raise ValueError(f"diffusion tensor must be 1x1 or 2x2, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("diffusion tensor entries must be finite")
        if not np.allclose(m, m.T, rtol=0.0, atol=1e-14):
            raise ValueError("diffusion tensor must be symmetric")
        lam = np.linalg.eigvalsh(m).min()
        if lam <= 0.0:
            raise ValueError(f"diffusion tensor must be positive definite, "
                             f"smallest eigenvalue {lam}")
        object.__setattr__(self, "matrix", tuple(tuple(row) for row in m))

    @property
    def n_dim(self) -> int:
        return len(self.matrix)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.matrix, dtype=float)


def isotropic(n_dim: int, coefficient: float = 1.0) -> DiffusionTensor:
    return DiffusionTensor(tuple(tuple(coefficient * float(i == j) for j in range(n_dim))
                                 for i in range(n_dim)))


def _check_compatible(f: SpaceTimeField, g: SpaceTimeField):
    if f.grid != g.grid or f.tgrid != g.tgrid:
        raise ValueError("fields live on different grids")


def l2_inner(f: SpaceTimeField, g: SpaceTimeField) -> float:
    """Discrete inner product of the Q = Omega x (0,T) integral of f*g.

    Sums dt * cell_weight * f * g over the n_t quadrature slices both fields
    define (right-node aligned).
    """
    _check_compatible(f, g)
    fv = f.integration_slices()
    gv = g.integration_slices()
    return float(f.tgrid.dt * f.grid.cell_weight * np.sum(fv * gv))


def l2_norm(f: SpaceTimeField) -> float:
    return float(np.sqrt(max(l2_inner(f, f), 0.0)))
