"""Problem definition: tracking objective weights, control budget, grids,
diffusion, reaction term, initial datum and target."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .grid import (AT_NODES, DiffusionTensor, SpaceGrid, SpaceTimeField,
                   TimeGrid)
from .nonlinearity import (NonlinearitySpec, auto_truncation_level,
                           with_truncation)


@dataclass(eq=False)
class ProblemSpec:
    """Everything defining one control problem instance.

    kappa is the quadratic control-cost weight (strictly positive), gamma the
    per-time-slice l1 budget.  The reaction clamp level is resolved at
    construction.  Treat instances as immutable; the cached step system is
    rebuilt by a dataclasses.replace copy and shared by with_budget.
    """

    kappa: float
    gamma: float
    grid: SpaceGrid
    tgrid: TimeGrid
    diffusion: DiffusionTensor
    nonlinearity: NonlinearitySpec
    y0: np.ndarray
    yd: SpaceTimeField

    def __post_init__(self):
        if not 0 < self.kappa < np.inf:
            raise ValueError(f"kappa must be finite and > 0, got {self.kappa}")
        if not 0 < self.gamma < np.inf:
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")
        if self.diffusion.n_dim != self.grid.n_dim:
            raise ValueError("diffusion tensor dimension does not match the grid")
        self.y0 = np.asarray(self.y0, dtype=float)
        if self.y0.shape != (self.grid.n_nodes,):
            raise ValueError(f"y0 has shape {self.y0.shape}, "
                             f"expected ({self.grid.n_nodes},)")
        if not np.all(np.isfinite(self.y0)):
            raise ValueError("y0 must be finite")
        if self.yd.slice_semantics != AT_NODES:
            raise ValueError("target yd must be an at-nodes field")
        if self.yd.grid != self.grid or self.yd.tgrid != self.tgrid:
            raise ValueError("target yd lives on different grids")
        if self.nonlinearity.truncation is None:
            level = auto_truncation_level(np.abs(self.y0).max(),
                                          np.abs(self.yd.values).max(),
                                          self.gamma, self.kappa)
            self.nonlinearity = with_truncation(self.nonlinearity, float(level))

    @cached_property
    def steps(self):
        """The implicit Euler step system shared by every sweep on this
        problem."""
        from .pde import StepSystem

        return StepSystem(self)

    def with_budget(self, gamma: float) -> ProblemSpec:
        """This problem at budget gamma, sharing its step system: the budget
        enters neither A_h, dt nor the resolved clamp level."""
        spec = replace(self, gamma=gamma)
        spec.steps = self.steps
        return spec
