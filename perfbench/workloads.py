"""Benchmark workloads: base configs, seed jitter and the per-op output gate.

Each workload is one CLI command (``solve`` or ``sweep``) on one generated
YAML config.  The seed only jitters ``gamma`` and ``diffusion``, and only
narrowly: at low kappa the outer iteration count is very sensitive to both
(at kappa 1.5e-4 a 10% change takes a sweep from about 200 to over 800
iterations), so the jitter is a small grid of levels, every one of which is
known to converge well clear of ``max_iter`` (see README.md).

The sizes keep one op near half a second, so that a run holds dozens of ops
and its median resists the shared machine's bursts of slowness.
"""

from __future__ import annotations

import copy

SCHLOEGL = {"kind": "schloegl", "params": [-1.0, 0.0, 1.0]}

WORKLOADS = {
    "solve-2d-schloegl": {
        "command": "solve",
        "why": "per-step assembly and sparse factorization dominate "
               "(104 splu calls, about 70% of an op)",
        "config": {
            "problem": {"n_dim": 2, "n_per_axis": 32, "n_t": 4, "T": 1.0,
                        "kappa": 0.3, "gamma": 0.05, "diffusion": 0.3,
                        "nonlinearity": SCHLOEGL, "y0": "zero", "yd": "bump"},
            "optimizer": {"tol": 1e-10, "max_iter": 400},
            "output": {"dump_fields": False},
        },
    },
    "solve-1d-long": {
        "command": "solve",
        "why": "projection, per-slice Python loops and field dumps dominate; "
               "one shared factorization, so splu does almost nothing",
        "config": {
            "problem": {"n_dim": 1, "n_per_axis": 200, "n_t": 200, "T": 1.0,
                        "kappa": 0.01, "gamma": 0.05, "diffusion": 0.1,
                        "nonlinearity": {"kind": "zero", "params": []},
                        "y0": "zero", "yd": "bump"},
            "optimizer": {"tol": 1e-10, "max_iter": 2000},
            "output": {"dump_fields": True},
        },
    },
    "sweep-2d-lowkappa": {
        "command": "sweep",
        "why": "dozens of warm-started outer iterations on a tiny grid; "
               "per-call pde overhead outweighs factorization",
        "config": {
            "problem": {"n_dim": 2, "n_per_axis": 10, "n_t": 4, "T": 1.0,
                        "kappa": 2e-3, "gamma": 0.05, "diffusion": 0.3,
                        "nonlinearity": SCHLOEGL, "y0": "zero", "yd": "bump"},
            "optimizer": {"tol": 1e-8, "max_iter": 2000},
            "output": {"dump_fields": False},
        },
    },
}

# relative jitter per level; levels are -1, 0, +1 for gamma and diffusion
JITTER_STEP = 0.001
N_LEVELS = 9


def jitter_levels(seed: int) -> tuple[int, int]:
    """(gamma level, diffusion level), each in {-1, 0, 1}."""
    k = seed % N_LEVELS
    return k % 3 - 1, k // 3 - 1


def make_config(name: str, seed: int) -> dict:
    """The config the program receives for this workload and seed."""
    cfg = copy.deepcopy(WORKLOADS[name]["config"])
    g_level, d_level = jitter_levels(seed)
    problem = cfg["problem"]
    problem["gamma"] = problem["gamma"] * (1.0 + JITTER_STEP * g_level)
    problem["diffusion"] = problem["diffusion"] * (1.0 + JITTER_STEP * d_level)
    cfg["seed"] = 0
    return cfg


# acceptance criterion 5 of the repo's test suite, plus a minimum share of
# multiplier-active slices so the budget really binds
KKT_MAX = 1e-6
IDENTITY_GAP_MAX = 1e-7
MIN_ACTIVE_SHARE = 0.30


def gate_solve(exit_code: int, report: dict) -> str | None:
    """None when a solve's report.json passes, else the reason it fails."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    if report["converged"] is not True:
        return "not converged"
    if report["truncation_inactive"] is not True:
        return "reaction clamp engaged"
    kkt = report["kkt_residuals"]
    worst = max(kkt, key=kkt.get)
    if kkt[worst] > KKT_MAX:
        return f"kkt {worst} = {kkt[worst]:.3g} > {KKT_MAX:g}"
    if kkt["identity_gap"] > IDENTITY_GAP_MAX:
        return f"identity_gap = {kkt['identity_gap']:.3g}"
    active = report["slice_activity"]["multiplier_active"]
    share = sum(active) / len(active)
    if share < MIN_ACTIVE_SHARE:
        return f"multiplier-active share {share:.2f} < {MIN_ACTIVE_SHARE}"
    return None


def gate_sweep(exit_code: int, report: dict) -> str | None:
    """None when a sweep's stability.json passes, else the reason it fails."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    if report["converged"] is not True:
        return "not converged"
    if report["regime"] != "active":
        return f"regime {report['regime']!r}"
    if report["exponent"] is None:
        return "no rate exponent fitted"
    return None


GATES = {"solve": ("report.json", gate_solve),
         "sweep": ("stability.json", gate_sweep)}
