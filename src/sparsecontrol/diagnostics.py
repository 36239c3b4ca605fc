"""Slice activity classification and second-order cone diagnostics.

A time slice is *binding* when its weighted l1 norm sits on the budget
gamma (within tolerance) and *multiplier-active* when additionally the
multiplier slice is not identically zero.  Critical directions v are those
with (approximately) vanishing first-order change and budget-compatible
one-sided l1 derivatives; the extended cone relaxes the equalities to a
tau-band.  The coercivity probe samples feasible directions inside that
band and reports the smallest observed Rayleigh quotient of the
second-order form.  Sampling can only falsify coercivity, never certify
it; the sampling scheme is recorded in the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import SpaceTimeField, l2_inner, l2_norm, like
from .l1ball import l1_directional_derivative, project_field, recover_multiplier
from .objective import curvature_with_state
from .pde import solve_adjoint, solve_state
from .problem import ProblemSpec


@dataclass
class SliceActivity:
    """Per-slice budget activity of a control/multiplier pair."""

    l1_norms: np.ndarray
    binding: np.ndarray
    multiplier_active: np.ndarray
    tol: float

    @property
    def n_multiplier_active(self) -> int:
        return int(np.sum(self.multiplier_active))


def classify_slices(u: SpaceTimeField, mu: SpaceTimeField,
                    gamma: float) -> SliceActivity:
    """Flag binding and multiplier-active slices; 1e-8 * gamma is the
    numeric stand-in for exact equality."""
    tol = 1e-8 * gamma
    l1 = u.grid.cell_weight * np.sum(np.abs(u.values), axis=1)
    mu_inf = np.max(np.abs(mu.values), axis=1)
    binding = np.abs(l1 - gamma) <= tol
    multiplier_active = binding & (mu_inf > tol)
    return SliceActivity(l1, binding, multiplier_active, tol)


@dataclass
class ConeReport:
    """Extended-cone membership of one direction."""

    first_order_change: float        # <phi + kappa*u, v>
    slice_derivatives: np.ndarray    # one-sided l1 derivative per slice
    direction_norm: float
    tau: float
    member: bool


def cone_membership(spec: ProblemSpec, u: SpaceTimeField, phi: SpaceTimeField,
                    mu: SpaceTimeField, v: SpaceTimeField,
                    tau: float) -> ConeReport:
    """Test v against the tau-extended critical cone at (u, phi, mu)."""
    gradient = like(u, phi.values + spec.kappa * u.values)
    change = l2_inner(gradient, v)
    vnorm = l2_norm(v)
    jprime = l1_directional_derivative(u.values, v.values, u.grid.cell_weight)
    activity = classify_slices(u, mu, spec.gamma)
    bound = tau * vnorm
    binding_only = activity.binding & ~activity.multiplier_active
    ok = (abs(change) <= bound
          and np.all(np.abs(jprime[activity.multiplier_active]) <= bound)
          and np.all(jprime[binding_only] <= bound))
    return ConeReport(change, jprime, vnorm, tau, bool(ok))


@dataclass
class CoercivityProbe:
    """Smallest observed Rayleigh quotient over sampled cone directions."""

    min_quotient: float | None
    quotients: list = field(default_factory=list)
    sampled: int = 0
    accepted: int = 0
    seed: int | None = None
    sampling: str = ""


def coercivity_probe(spec: ProblemSpec, u: SpaceTimeField, sample_count: int,
                     tau: float, seed: int = 0) -> CoercivityProbe:
    """Sample normalized feasible perturbation differences, keep those in
    the tau-extended cone, and return the minimum of Q(v)/||v||^2.

    An empty sample after filtering is reported (min_quotient None), not
    fatal.
    """
    rng = np.random.default_rng(seed)
    y = solve_state(spec, u)
    phi = solve_adjoint(spec, y)
    mu = recover_multiplier(u, phi, spec.kappa)
    sigma = 0.5 * max(1.0, float(np.max(np.abs(u.values), initial=0.0)))
    report = CoercivityProbe(
        min_quotient=None, seed=seed,
        sampling=(f"v = normalize(proj(u + xi) - u), xi iid normal(0, "
                  f"{sigma:.3g}^2) per node, default_rng({seed})"))
    for _ in range(sample_count):
        xi = sigma * rng.standard_normal(u.values.shape)
        perturbed, _ = project_field(like(u, u.values + xi), spec.gamma)
        direction = perturbed.values - u.values
        norm = l2_norm(like(u, direction))
        if norm == 0.0:
            continue
        v = like(u, direction / norm)
        report.sampled += 1
        if not cone_membership(spec, u, phi, mu, v, tau).member:
            continue
        quotient = curvature_with_state(spec, y, phi, v)
        report.accepted += 1
        report.quotients.append(quotient)
    if report.quotients:
        report.min_quotient = min(report.quotients)
    return report
