"""Canonical initial-datum and target shapes used by configs and tests.

* ``zero``          identically 0
* ``one-mode``      product of first sine modes, prod_i sin(pi x_i)
* ``bump``          off-center Gaussian, clipped to vanish before the
                    boundary (compact support inside the domain)
* ``constant(c)``   the constant c
"""

from __future__ import annotations

import re

import numpy as np

from .grid import SpaceGrid, SpaceTimeField, TimeGrid, field_at_nodes

_CONSTANT_RE = re.compile(r"^constant\(\s*([-+0-9.eE]+)\s*\)$")

_BUMP_CENTER = (0.3, 0.6)
_BUMP_WIDTH = 0.15
_BUMP_RADIUS = 0.35


def _bump(coords: np.ndarray) -> np.ndarray:
    center = np.asarray(_BUMP_CENTER[:coords.shape[1]])
    r2 = np.sum((coords - center) ** 2, axis=1)
    raw = np.exp(-r2 / (2.0 * _BUMP_WIDTH**2))
    cut = np.exp(-_BUMP_RADIUS**2 / (2.0 * _BUMP_WIDTH**2))
    return np.maximum(raw - cut, 0.0) / (1.0 - cut)


def spatial_preset(name, grid: SpaceGrid) -> np.ndarray:
    """Evaluate a named shape (or a plain number) on the interior nodes."""
    if isinstance(name, (int, float)) and not isinstance(name, bool):
        return np.full(grid.n_nodes, float(name))
    match = isinstance(name, str) and _CONSTANT_RE.match(name)
    if match:
        return np.full(grid.n_nodes, float(match.group(1)))
    if name == "zero":
        return np.zeros(grid.n_nodes)
    if name == "one-mode":
        return np.prod(np.sin(np.pi * grid.coords()), axis=1)
    if name == "bump":
        return _bump(grid.coords())
    raise ValueError(f"unknown spatial preset {name!r}")


def target_preset(name, grid: SpaceGrid, tgrid: TimeGrid) -> SpaceTimeField:
    """Named target as an at-nodes field, constant in time."""
    shape = spatial_preset(name, grid)
    return field_at_nodes(grid, tgrid,
                          np.tile(shape, (tgrid.n_t + 1, 1)))
