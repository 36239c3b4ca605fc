"""Command-line entry point.

Subcommands:

* ``solve``  run the projected-gradient solver, write report.json,
  timeseries.csv, and (optionally) binary field dumps
* ``check``  run the property suite, print a pass/fail table
* ``sweep``  solve across a list of budgets, write stability.csv/.json

Exit codes: 0 success, 1 config or command-line error, 2 solver/sweep
nonconvergence, 3 property-suite failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .checks import run_checks
from .fieldio import write_field
from .optimizer import SolveReport, solve
from .pde import NewtonError
from .runconfig import ConfigError, RunConfig, load_config
from .stability import gamma_sweep

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NONCONVERGED = 2
EXIT_CHECK_FAILED = 3

TIMESERIES_COLUMNS = ("t", "∥u(t)∥₁",
                      "∥μ(t)∥_∞", "λ_t",
                      "sparsity fraction")


def _json_dump(path: Path, payload: dict):
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _report_payload(cfg: RunConfig, report: SolveReport) -> dict:
    act = report.activity
    return {
        "config": cfg.to_dict(),
        "converged": report.converged,
        "iterations": report.iterations,
        "message": report.message,
        "objective": report.objective,
        "objective_history": list(report.j_history),
        "fixed_point_residuals": list(report.residual_history),
        "step_sizes": list(report.step_history),
        "kkt_residuals": report.kkt.as_dict(),
        "truncation_inactive": report.truncation_inactive,
        "slice_activity": {
            "l1_norms": [float(x) for x in act.l1_norms],
            "binding": [bool(b) for b in act.binding],
            "multiplier_active": [bool(b) for b in act.multiplier_active],
            "thresholds": [float(x) for x in report.thresholds],
            "tolerance": act.tol,
        },
    }


def _write_timeseries(path: Path, report: SolveReport):
    times = report.u.tgrid.interval_times()
    act = report.activity
    mu_inf = np.max(np.abs(report.mu.values), axis=1)
    zero_frac = np.mean(report.u.values == 0.0, axis=1)
    lines = [",".join(TIMESERIES_COLUMNS)]
    for m in range(report.u.n_slices):
        lines.append(",".join(repr(float(x)) for x in (
            times[m], act.l1_norms[m], mu_inf[m], report.thresholds[m],
            zero_frac[m])))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_solve(cfg: RunConfig, out_dir: Path) -> int:
    spec = cfg.problem_spec()
    report = solve(spec, cfg.optimizer_config())
    _json_dump(out_dir / "report.json", _report_payload(cfg, report))
    _write_timeseries(out_dir / "timeseries.csv", report)
    if cfg.output["dump_fields"]:
        for name, fld in (("u", report.u), ("y", report.y),
                          ("phi", report.phi), ("mu", report.mu)):
            write_field(out_dir / f"{name}.pfld", fld)
    return EXIT_OK if report.converged else EXIT_NONCONVERGED


def cmd_check(cfg: RunConfig, seed: int) -> int:
    results = run_checks(cfg.problem_spec(), seed)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{r.name:<{width}}  {'PASS' if r.passed else 'FAIL'}  {r.detail}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


def _default_gammas(gamma: float) -> list:
    deltas = 0.01 * gamma * 10.0 ** np.linspace(0.0, 1.5, 5)
    return [gamma] + [gamma - d for d in deltas]


def cmd_sweep(cfg: RunConfig, out_dir: Path, gammas=None) -> int:
    spec = cfg.problem_spec()
    if gammas is None:
        gammas = _default_gammas(spec.gamma)
    report = gamma_sweep(spec, gammas, cfg.optimizer_config())
    lines = ["γ′,distance"]
    for g, d in zip(report.gammas, report.distances):
        lines.append(f"{g!r},{d!r}")
    (out_dir / "stability.csv").write_text("\n".join(lines) + "\n",
                                           encoding="utf-8")
    _json_dump(out_dir / "stability.json", {
        "base_gamma": report.base_gamma,
        "gammas": list(report.gammas),
        "distances": list(report.distances),
        "iterations": list(report.iterations),
        "exponent": report.exponent,
        "L": report.constant,
        "regime": report.regime,
        "second_order_bound": report.second_order_bound,
        "converged": report.converged,
        "warnings": list(report.warnings),
        "config": cfg.to_dict(),
    })
    return EXIT_OK if report.converged else EXIT_NONCONVERGED


class _Parser(argparse.ArgumentParser):
    """Ends a bad command line with the config-error code; argparse's own
    code 2 is the nonconvergence code here.  Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sparsecontrol",
        description="budget-constrained sparse control of reaction-diffusion "
                    "equations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (("solve", "run one solve"),
                       ("check", "run the property suite"),
                       ("sweep", "run a budget-stability sweep")):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", required=True, help="path to the YAML config")
        p.add_argument("--out", default=None,
                       help="output directory (default: config output.directory)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        if name == "sweep":
            p.add_argument("--gammas", default=None,
                           help="comma-separated budget list (default: "
                                "log-spaced decrements below gamma)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        gammas = None
        if getattr(args, "gammas", None):
            gammas = [float(tok) for tok in args.gammas.split(",") if tok.strip()]
            if not all(0 < g < np.inf for g in gammas):
                raise ConfigError(f"--gammas must be finite and > 0, "
                                  f"got {args.gammas}")
        out_dir = Path(args.out if args.out is not None
                       else cfg.output["directory"])
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "solve":
            return cmd_solve(cfg, out_dir)
        if args.command == "check":
            return cmd_check(cfg, cfg.seed)
        return cmd_sweep(cfg, out_dir, gammas)
    except NewtonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
