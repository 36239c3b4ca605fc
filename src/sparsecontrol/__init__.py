"""Sparse optimal control of semilinear reaction-diffusion equations under a
pointwise-in-time l1 budget, with a first-order verification harness."""

from .grid import (AT_NODES, PER_INTERVAL, DiffusionTensor, SpaceGrid,
                   SpaceTimeField, TimeGrid, field_at_nodes,
                   field_per_interval, isotropic, l2_inner, l2_norm, like)
from .nonlinearity import (NonlinearitySpec, TruncationSpec,
                           auto_truncation_level, eval_a, eval_a_truncated,
                           eval_ay, eval_ay_truncated, eval_ayy, f_M,
                           f_M_prime, with_truncation)
from .pde import (NewtonError, TruncationActiveWarning, elliptic_matrix,
                  solve_adjoint, solve_linearized, solve_state)
from .l1ball import (ProjectionResult, project_field, project_slice,
                     recover_multiplier)
from .problem import ProblemSpec
from .objective import (curvature_weight, curvature_with_state,
                        eval_curvature, eval_gradient, eval_J, hessian_vector,
                        objective_value)
from .optimizer import (KKTResiduals, OptimizerConfig, SolveReport,
                        kkt_residuals, solve)
from .diagnostics import SliceActivity, classify_slices, second_order_bound
from .stability import (StabilityReport, fit_rate, gamma_sweep,
                        rescale_into_ball)
from .presets import spatial_preset, target_preset
from .runconfig import ConfigError, RunConfig, build_problem_spec, load_config, \
    parse_config
from .fieldio import read_field, write_field

__version__ = "0.1.0"
