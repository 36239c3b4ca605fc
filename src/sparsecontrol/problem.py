"""Problem definition: tracking objective weights, control budget, grids,
diffusion, reaction term, reaction clamp level, initial datum and target."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .grid import (AT_NODES, DiffusionTensor, SpaceGrid, SpaceTimeField,
                   TimeGrid, require_field)
from .nonlinearity import NonlinearitySpec, auto_truncation_level


@dataclass(eq=False)
class ProblemSpec:
    """Everything defining one control problem instance.

    kappa is the quadratic control-cost weight (strictly positive), gamma the
    per-time-slice l1 budget.  truncation is the level M of the reaction
    clamp f_M (see nonlinearity): None resolves at construction to
    auto_truncation_level of y0, yd, gamma and kappa, and after construction
    it is a finite float > 0.  Treat instances as immutable; the cached step
    system is rebuilt by a dataclasses.replace copy and shared by
    with_budget.
    """

    kappa: float
    gamma: float
    grid: SpaceGrid
    tgrid: TimeGrid
    diffusion: DiffusionTensor
    nonlinearity: NonlinearitySpec
    y0: np.ndarray
    yd: SpaceTimeField
    truncation: float | None = None

    def __post_init__(self):
        if not 0 < self.kappa < np.inf:
            raise ValueError(f"kappa must be finite and > 0, got {self.kappa}")
        if not 1.0 / float(self.kappa) < np.inf:
            raise ValueError(f"kappa = {self.kappa} is so small that the "
                             "gradient step 1/kappa overflows")
        if not 0 < self.gamma < np.inf:
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")
        if self.diffusion.n_dim != self.grid.n_dim:
            raise ValueError("diffusion tensor dimension does not match the grid")
        with np.errstate(over="ignore"):
            # 4 sum|a_ij| / h^2 bounds every row sum of |A_h|
            scale = (4.0 * np.abs(self.diffusion.as_array()).sum()
                     * self.tgrid.dt / self.grid.h**2)
        if not np.isfinite(scale):
            raise ValueError(
                f"the step matrix I + dt*A_h overflows (dt = T / n_t = "
                f"{self.tgrid.dt:.3g}, h = {self.grid.h:.3g}); lower T, "
                "diffusion or n_per_axis, or raise n_t")
        self.y0 = np.asarray(self.y0, dtype=float)
        if self.y0.shape != (self.grid.n_nodes,):
            raise ValueError(f"y0 has shape {self.y0.shape}, "
                             f"expected ({self.grid.n_nodes},)")
        if not np.all(np.isfinite(self.y0)):
            raise ValueError("y0 must be finite")
        require_field(self.yd, AT_NODES, self, "target yd")
        y0_max, yd_max = np.abs(self.y0).max(), np.abs(self.yd.values).max()
        # the sum of squares the tracking term 1/2 ||y - yd||^2 forms for a
        # residual of size |y0| + |yd| at every node and step
        with np.errstate(over="ignore"):
            tracking = (y0_max + yd_max)**2 * self.tgrid.n_t * self.grid.n_nodes
        if not np.isfinite(tracking):
            raise ValueError(
                f"the tracking term 1/2 ||y - yd||^2 overflows at max|y0| = "
                f"{y0_max:.3g}, max|yd| = {yd_max:.3g}; lower y0 or yd")
        if self.truncation is None:
            with np.errstate(over="ignore"):
                level = auto_truncation_level(y0_max, yd_max, self.gamma,
                                              self.kappa)
            if not np.isfinite(level):
                raise ValueError(
                    "the automatic clamp level 10 (|y0| + |yd| + gamma/kappa "
                    f"+ 1) overflows at gamma = {self.gamma}, kappa = "
                    f"{self.kappa}; set truncation, or lower y0, yd or "
                    "gamma/kappa")
            self.truncation = level
        elif not 0 < self.truncation < np.inf:
            raise ValueError(f"truncation level must be finite and > 0, "
                             f"got {self.truncation}")
        self.truncation = float(self.truncation)

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
