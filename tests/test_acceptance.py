"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each (run with ``pytest tests/test_acceptance.py -s`` to see
the table)."""

import json

import numpy as np

import sparsecontrol as sc
from sparsecontrol.checks import (check_adjoint_identity, check_curvature_fd,
                                  check_gradient_fd, check_mms_convergence,
                                  check_nonexpansive, check_projection_oracle)
from sparsecontrol.cli import main
from sparsecontrol.grid import like
from sparsecontrol.nonlinearity import f_M, f_M_prime

from conftest import active_schloegl_spec, linear_1d_spec, schloegl_spec


def criterion(number, passed, detail):
    print(f"[ACCEPTANCE] criterion {number}: "
          f"{'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {number}: {detail}"


def check_criterion(number, results):
    """One criterion made of checks-module oracles, with their details."""
    criterion(number, all(r.passed for r in results),
              "; ".join(f"{r.name}: {r.detail}" for r in results))


def test_criterion_1_projection_oracle():
    # deviation from bisection, exact idempotence, then nonexpansiveness
    rng = np.random.default_rng(101)
    check_criterion(1, [check_projection_oracle(rng, 1000),
                        check_nonexpansive(rng, 1000)])


def test_criterion_2_gradient_exactness():
    rng = np.random.default_rng(102)
    check_criterion(2, [
        check_adjoint_identity(schloegl_spec(n=8, n_t=10), rng, n_pairs=10),
        check_adjoint_identity(schloegl_spec(n=16, n_t=32), rng, n_pairs=10),
        check_gradient_fd(rng, n_pairs=10)])


def test_criterion_3_curvature():
    check_criterion(3, [check_curvature_fd(np.random.default_rng(103),
                                           n_dirs=10)])


def test_criterion_4_pde_convergence():
    check_criterion(4, [check_mms_convergence()])


def test_criterion_5_kkt_suite(active_solve):
    spec, report = active_solve
    share = report.activity.n_multiplier_active / report.u.n_slices
    kkt_ok = report.kkt.max() <= 1e-6
    sparsity_ok = True
    mu_infs = np.max(np.abs(report.mu.values), axis=1)
    for m, mu_inf in enumerate(mu_infs):
        phi_abs = np.abs(report.phi.values[m])
        zero = report.u.values[m] == 0.0
        sparsity_ok = sparsity_ok and bool(
            np.all(phi_abs[zero] <= mu_inf + 1e-7)
            and np.all(phi_abs[~zero] >= mu_inf - 1e-7))
    identity_ok = report.kkt.identity_gap <= 1e-7
    threshold_ok = True
    for lam, mu_inf in zip(report.thresholds, mu_infs):
        if lam > 0.0:
            threshold_ok = threshold_ok and abs(spec.kappa * lam - mu_inf) \
                <= 1e-6 * mu_inf
    criterion(5, share >= 0.30 and kkt_ok and sparsity_ok and identity_ok
              and threshold_ok,
              f"multiplier-active share {share:.2f} (>=0.30), kkt max "
              f"{report.kkt.max():.2e} (<=1e-6), sparsity rule "
              f"{'holds' if sparsity_ok else 'fails'}, slice norm identity "
              f"{report.kkt.identity_gap:.2e} (<=1e-7), threshold identity "
              f"{'holds' if threshold_ok else 'fails'}")


def test_criterion_6_unconstrained_regime():
    cfg = sc.OptimizerConfig(tol=1e-12, max_iter=3000)
    big = sc.solve(linear_1d_spec(gamma=1e6), cfg)
    huge = sc.solve(linear_1d_spec(gamma=1e9), cfg)
    gap = sc.l2_norm(like(big.u, big.u.values - huge.u.values))
    mu_peak = np.max(np.abs(big.mu.values))

    spec = linear_1d_spec(gamma=1e6)
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu
    n, n_t, dt = spec.grid.n_nodes, spec.tgrid.n_t, spec.tgrid.dt
    a_h = sc.elliptic_matrix(spec.grid, spec.diffusion)
    lu = splu((sp.identity(n) + dt * a_h).tocsc())
    free = np.zeros((n_t, n))
    state = spec.y0.copy()
    for m in range(n_t):
        state = lu.solve(state)
        free[m] = state
    columns = np.zeros((n_t * n, n_t * n))
    for k in range(n_t):
        for i in range(n):
            z = np.zeros(n)
            rows = np.zeros((n_t, n))
            for m in range(n_t):
                rhs = z.copy()
                if m == k:
                    rhs[i] += dt
                z = lu.solve(rhs)
                rows[m] = z
            columns[:, k * n + i] = rows.ravel()
    optimal = np.linalg.solve(
        columns.T @ columns + spec.kappa * np.eye(n_t * n),
        columns.T @ (spec.yd.values[1:].ravel() - free.ravel()))
    lq_gap = sc.l2_norm(like(big.u, big.u.values - optimal.reshape(n_t, n)))
    criterion(6, big.converged and huge.converged and gap <= 1e-8
              and mu_peak <= 1e-10 and lq_gap <= 1e-6,
              f"budget 1e6 vs 1e9 distance {gap:.2e} (<=1e-8), multiplier "
              f"peak {mu_peak:.2e} (<=1e-10), dense-oracle gap {lq_gap:.2e} "
              f"(<=1e-6)")


def test_criterion_7_stability_sweep(active_solve):
    spec, _ = active_solve
    cfg = sc.OptimizerConfig(tol=1e-11, max_iter=400)
    deltas = 0.0005 * 10.0 ** np.linspace(0.0, 1.5, 5)
    gammas = [spec.gamma] + [spec.gamma - d for d in deltas]
    sweep = sc.gamma_sweep(spec, gammas, cfg)
    self_distance = sweep.distances[sweep.gammas.index(spec.gamma)]
    inactive = sc.gamma_sweep(active_schloegl_spec(gamma=1e6),
                              [1e6, 9e5, 1.2e6], cfg)
    inactive_ok = all(d <= 10.0 * cfg.tol for d in inactive.distances)
    exponent = "none" if sweep.exponent is None else f"{sweep.exponent:.3f}"
    criterion(7, sweep.converged and sweep.exponent is not None
              and sweep.exponent >= 0.45 and self_distance == 0.0
              and inactive.converged and inactive_ok,
              f"fitted exponent {exponent} (>=0.45) over "
              f"{len(deltas)} budgets spanning 1.5 decades, self distance "
              f"{self_distance}, inactive-regime distances all <= 10x tol: "
              f"{inactive_ok}")


def test_criterion_8_clamp_properties(active_solve):
    M = 1.7
    h = 5e-7
    c1_gap = max(abs(float(f_M(M, s + h) - f_M(M, s - h)) / (2 * h)
                     - float(f_M_prime(M, s)))
                 for s in (M, M + 1.0, -M, -(M + 1.0)))
    s = np.linspace(-25.0, 25.0, 200001)
    d = f_M_prime(M, s)
    monotone = bool(np.all(d >= 0.0))
    bounded = bool(np.all(d <= 4.0 / 3.0 + 1e-12))
    values = f_M(M, s)
    nondecreasing = bool(np.all(np.diff(values) >= -1e-15))
    _, report = active_solve
    criterion(8, c1_gap <= 1e-6 and monotone and bounded and nondecreasing
              and report.truncation_inactive,
              f"C1 breakpoint gap {c1_gap:.2e} (<=1e-6), derivative in "
              f"[0, 4/3]: {bounded}, monotone: {monotone and nondecreasing}, "
              f"clamp inactive at the converged solution: "
              f"{report.truncation_inactive}")


ACCEPT_SOLVE_CONFIG = """
problem:
  n_dim: 2
  n_per_axis: 12
  n_t: 24
  T: 1.0
  kappa: 0.3
  gamma: 0.05
  diffusion: 0.3
  nonlinearity:
    kind: schloegl
    params: [-1.0, 0.0, 1.0]
  y0: zero
  yd: bump
optimizer:
  tol: 1.0e-10
  max_iter: 400
output:
  dump_fields: true
seed: 2024
"""


def test_criterion_9_determinism(tmp_path):
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(ACCEPT_SOLVE_CONFIG, encoding="utf-8")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["solve", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        outs.append(out)
    report_a = (outs[0] / "report.json").read_bytes()
    report_b = (outs[1] / "report.json").read_bytes()
    csv_a = (outs[0] / "timeseries.csv").read_bytes()
    csv_b = (outs[1] / "timeseries.csv").read_bytes()
    fields_same = all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
                      for f in ("u.pfld", "y.pfld", "phi.pfld", "mu.pfld"))
    payload = json.loads(report_a.decode("utf-8"))
    criterion(9, report_a == report_b and csv_a == csv_b and fields_same
              and payload["converged"],
              "identical config and seed give byte-identical report.json, "
              "timeseries.csv, and field dumps")
