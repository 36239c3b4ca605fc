import contextlib
import io
import json
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import ArpackNoConvergence

import sparsecontrol as sc
from sparsecontrol import checks, diagnostics, optimizer, runconfig
from sparsecontrol.cli import main
from sparsecontrol.fieldio import read_field, write_field
from sparsecontrol.pde import NewtonError
from sparsecontrol.runconfig import ConfigError, parse_config

FAST_SOLVE = """
problem:
  n_dim: 1
  n_per_axis: 10
  n_t: 8
  T: 0.5
  kappa: 0.2
  gamma: 0.1
  diffusion: 1.0
  nonlinearity:
    kind: schloegl
    params: [-1.0, 0.0, 1.0]
  y0: zero
  yd: bump
optimizer:
  tol: 1.0e-9
  max_iter: 300
seed: 5
"""


def write_config(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_solve_writes_outputs(tmp_path):
    cfg = write_config(tmp_path, FAST_SOLVE)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert report["truncation_inactive"] is True
    # effective config embedded with defaults resolved
    assert report["config"]["problem"]["kappa"] == 0.2
    assert report["config"]["optimizer"] == {"max_iter": 300, "tol": 1e-9}
    assert report["config"]["seed"] == 5
    lines = (out / "timeseries.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,∥u(t)∥₁,∥μ(t)∥_∞,λ_t,sparsity fraction"
    assert len(lines) == 1 + 8


def test_solve_dumps_fields_when_asked(tmp_path):
    cfg = write_config(tmp_path, FAST_SOLVE + "output:\n  dump_fields: true\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    values, n_per_axis, n_dim = read_field(out / "u.pfld")
    assert (n_per_axis, n_dim) == (10, 1)
    assert values.shape == (8, 10)
    y_values, _, _ = read_field(out / "y.pfld")
    assert y_values.shape == (9, 10)


def test_field_dump_round_trip(tmp_path):
    grid = sc.SpaceGrid(2, 3)
    tgrid = sc.TimeGrid(1.0, 2)
    rng = np.random.default_rng(0)
    f = sc.field_per_interval(grid, tgrid, rng.standard_normal((2, 9)))
    path = tmp_path / "f.pfld"
    write_field(path, f)
    raw = path.read_bytes()
    assert raw[:4] == b"PFLD"
    assert np.frombuffer(raw[4:16], dtype="<u4").tolist() == [2, 3, 2]
    values, _, _ = read_field(path)
    assert np.array_equal(values, f.values)


@pytest.mark.parametrize("raw", [b"", b"PFLD"])
def test_field_dump_with_a_short_header_is_truncated(tmp_path, raw):
    path = tmp_path / "f.pfld"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match="field dump is truncated"):
        read_field(path)


def test_malformed_config_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, "problem:\n  n_per_axiss: 4\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "n_per_axiss" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["initial_step", "armijo_c", "backtrack",
                                 "max_backtracks"])
def test_step_rule_takes_no_settings(tmp_path, capsys, key):
    cfg = write_config(tmp_path, f"optimizer:\n  {key}: 0.5\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert f"optimizer.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["solve", "--config", "run.yaml", "--bogus"],
                                  []])
def test_usage_error_exits_one(argv, capsys):
    # 2 is the nonconvergence code
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 1
    assert "error" in capsys.readouterr().err


def test_domain_error_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, "problem:\n  kappa: -1.0\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "kappa" in capsys.readouterr().err


_STEP_OVERFLOW = "problem block: the step matrix I + dt*A_h overflows"


@pytest.mark.parametrize("command, text, block", [
    (["solve"], "problem: {T: .inf}", "problem block"),
    (["solve"], "problem: {T: .nan}", "problem block"),
    (["solve"], "problem: {n_t: .inf}", "problem block"),
    (["solve"], "problem: {diffusion: [[.inf]]}", "problem block"),
    (["solve"], "problem: {diffusion: .nan}", "problem block"),
    (["solve"], "problem: {nonlinearity: {kind: linear, params: [.inf]}}",
     "problem.nonlinearity"),
    (["solve"], "problem: {nonlinearity: {kind: linear, params: [.nan]}}",
     "problem.nonlinearity"),
    (["solve"], "problem: {kappa: .inf}", "problem block"),
    (["solve"], "problem: {gamma: .inf}", "problem block"),
    (["solve"], "problem: {gamma: .nan}", "problem block"),
    (["solve"], "problem: {truncation: .inf}", "problem.truncation"),
    (["solve"], "problem: {truncation: .nan}", "problem.truncation"),
    (["solve"], "optimizer: {tol: .inf}", "optimizer block"),
    (["solve"], "optimizer: {max_iter: .inf}", "optimizer block"),
    (["sweep", "--gammas", "0.05,inf"], "{}", "--gammas"),
    (["sweep", "--gammas", "0.05,nan"], "{}", "--gammas"),
    (["sweep", "--gammas", "0.05,-0.01"], "{}", "--gammas"),
    # counts must be integers: int() would truncate 2.7 to 2, and YAML's
    # true is a Python int
    (["solve"], "problem: {n_dim: 1.5}", "problem block"),
    (["solve"], "problem: {n_per_axis: 4.9}", "problem block"),
    (["solve"], "problem: {n_t: 2.7}", "problem block"),
    (["solve"], "problem: {n_t: true}", "problem block"),
    (["solve"], "optimizer: {max_iter: true}", "optimizer block"),
    (["solve"], "seed: true", "seed"),
    # a string or a list where a number is wanted names its key
    (["solve"], "optimizer: {tol: abc}", "optimizer.tol must be a number"),
    (["solve"], "problem: {kappa: abc}", "problem.kappa must be a number"),
    (["solve"], "problem: {T: abc}", "problem.T must be a number"),
    (["solve"], "problem: {diffusion: abc}", "problem.diffusion must be a "),
    (["solve"], "problem: {gamma: [1]}", "problem.gamma must be a number"),
    # a bool or a string where a number is wanted names its key
    (["solve"], "problem: {truncation: true}", "problem.truncation"),
    (["solve"], "problem: {truncation: '2.5'}", "problem.truncation"),
    (["solve"], "problem: {nonlinearity: {kind: linear, params: [true]}}",
     "problem.nonlinearity.params"),
    (["solve"], "problem: {nonlinearity: {kind: linear, params: ['2']}}",
     "problem.nonlinearity.params"),
    (["solve"], "problem: {y0: true}", "problem.y0"),
    (["solve"], "problem: {yd: false}", "problem.yd"),
    (["solve"], "problem: {diffusion: [[true]]}", "problem.diffusion"),
    (["sweep", "--gammas", "0.05,abc"], "{}", "--gammas"),
    # finite numbers whose products overflow: the step matrix, the first
    # gradient step or the automatic clamp level would not be finite
    (["solve"], "problem: {T: 1.0e308, n_t: 1}", _STEP_OVERFLOW),
    (["solve"], "problem: {diffusion: 1.0e308, yd: bump}", _STEP_OVERFLOW),
    (["solve"], "problem: {n_dim: 2, n_per_axis: 3, T: 1.0e308, n_t: 1}",
     _STEP_OVERFLOW),
    (["check"], "problem: {n_dim: 2, n_per_axis: 3, T: 1.0e308, n_t: 1}",
     _STEP_OVERFLOW),
    (["solve"], "problem: {kappa: 1.0e-320, yd: bump, truncation: 10.0}",
     "problem block: kappa = 1e-320 is so small that the gradient step "
     "1/kappa overflows"),
    (["solve"], "problem: {kappa: 1.0e-320, yd: bump}",
     "problem block: kappa = 1e-320 is so small"),
    (["solve"], "problem: {gamma: 1.0e308, yd: bump}",
     "problem block: the automatic clamp level 10 (|y0| + |yd| + "
     "gamma/kappa + 1) overflows"),
    # the tracking term 1/2 ||y - yd||^2 would be infinite, which is not
    # valid JSON, or overflow on the way
    (["solve"], "problem: {yd: constant(1e307)}",
     "problem block: the tracking term 1/2 ||y - yd||^2 overflows at "
     "max|y0| = 0, max|yd| = 1e+307"),
    (["solve"], "problem: {yd: constant(1e154)}",
     "problem block: the tracking term 1/2 ||y - yd||^2 overflows at "
     "max|y0| = 0, max|yd| = 1e+154"),
    (["sweep"], "problem: {y0: constant(1e200)}",
     "problem block: the tracking term 1/2 ||y - yd||^2 overflows at "
     "max|y0| = 1e+200, max|yd| = 0"),
    # an empty budget list must not fall back to the default budgets
    (["sweep", "--gammas", ""], "{}", "--gammas must list budgets"),
    (["sweep", "--gammas", ","], "{}", "--gammas must list budgets"),
    # --seed keeps the config's seed rule: a negative seed would land in a
    # report.json that parse_config rejects, or reach numpy's generator
    (["solve", "--seed", "-1"], "{}",
     "--seed must be a nonnegative integer, got -1"),
    (["check", "--seed", "-1"], "{}",
     "--seed must be a nonnegative integer, got -1"),
    (["sweep", "--seed", "-1"], "{}",
     "--seed must be a nonnegative integer, got -1"),
])
def test_non_finite_input_is_a_config_error(tmp_path, capsys, command, text,
                                            block):
    cfg = write_config(tmp_path, text + "\n")
    out = tmp_path / "out"
    assert main([command[0], "--config", cfg, "--out", str(out)]
                + command[1:]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"error: {block}") and "Traceback" not in err


@pytest.mark.parametrize("error, message", [
    (MemoryError("Unable to allocate 3.0 GiB for an array"),
     "Unable to allocate 3.0 GiB for an array"),
    (MemoryError(), "out of memory")])
def test_out_of_memory_is_a_config_error(tmp_path, capsys, monkeypatch,
                                         error, message):
    # a grid too large for memory, such as n_t: 100000000, ends in numpy's
    # MemoryError while the target is built, or in Python's own without a
    # message; stand either in without allocating anything
    def too_large(*args):
        raise error

    monkeypatch.setattr(runconfig, "target_preset", too_large)
    cfg = write_config(tmp_path, "problem: {yd: bump}\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["3", "null", "true", "[out]"])
def test_output_directory_must_be_a_string(tmp_path, capsys, monkeypatch,
                                           value):
    # without --out the directory comes from the config; Path(3) would
    # raise a TypeError with a traceback
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, f"output: {{directory: {value}}}\n")
    assert main(["solve", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: output.directory must be a string")
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["run.yaml"]


def test_iteration_cap_exits_two_with_partial_report(tmp_path):
    cfg = write_config(tmp_path, FAST_SOLVE.replace("max_iter: 300",
                                                    "max_iter: 1"))
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False
    assert (out / "timeseries.csv").exists()


# 1 + dt*a'(0) = 1 - 0.25*30 < 0: some trial controls admit no implicit
# step solution
NEWTON_FAILURE_SOLVE = """
problem:
  n_dim: 2
  n_per_axis: 10
  n_t: 4
  kappa: 0.1
  gamma: 10.0
  nonlinearity:
    kind: polynomial
    params: [0.0, -30.0, 0.0, 1.0]
  y0: one-mode
  yd: constant(3)
optimizer:
  max_iter: 3
"""


def test_newton_failure_on_trial_is_rejected_not_fatal(tmp_path, capsys):
    cfg = write_config(tmp_path, NEWTON_FAILURE_SOLVE)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert "error" not in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False
    assert report["iterations"] == 3
    assert (out / "timeseries.csv").exists()


# 1 + dt*a'(0) = 1 - 0.05*30 < 0 and the diffusion is too weak to help: the
# initial state solve itself fails
INITIAL_STATE_FAILURE_SOLVE = """
problem:
  n_dim: 2
  n_per_axis: 8
  n_t: 2
  T: 0.1
  diffusion: 1.0e-4
  nonlinearity:
    kind: polynomial
    params: [0.0, -30.0, 0.0, 1.0]
  y0: one-mode
  yd: bump
"""


def test_initial_state_failure_exits_two_and_writes_nothing(tmp_path, capsys):
    cfg = write_config(tmp_path, INITIAL_STATE_FAILURE_SOLVE)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: state solver failed at step ")
    assert list(out.iterdir()) == []


# the automatic clamp level sits far above exp's double range, so a
# line-search trial state overflows the reaction inside Newton
EXP_OVERFLOW_SOLVE = """
problem:
  n_dim: 1
  n_per_axis: 8
  n_t: 1
  kappa: 1.0e-3
  gamma: 1000.0
  diffusion: 1.0e-3
  nonlinearity: exponential
  yd: constant(50)
optimizer:
  max_iter: 10
"""


def test_reaction_overflow_on_trial_is_rejected_not_fatal(tmp_path, capsys):
    cfg = write_config(tmp_path, EXP_OVERFLOW_SOLVE)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == ""
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False
    assert (out / "timeseries.csv").exists()


def test_seed_override_lands_in_report(tmp_path):
    cfg = write_config(tmp_path, FAST_SOLVE)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out),
                 "--seed", "99"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["seed"] == 99


def test_sweep_writes_outputs(tmp_path):
    cfg = write_config(tmp_path, FAST_SOLVE)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out),
                 "--gammas", "0.1,0.09,0.08"]) == 0
    lines = (out / "stability.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "γ′,distance"
    assert len(lines) == 4
    payload = json.loads((out / "stability.json").read_text())
    assert payload["base_gamma"] == 0.1
    assert payload["regime"] in ("active", "inactive")
    assert len(payload["distances"]) == 3
    assert payload["second_order_bound"] <= 0.2
    # the base budget's row is the base solve: its iterations are in
    # report.json's of a solve on the same config
    assert len(payload["iterations"]) == 3
    assert all(type(n) is int and n >= 0 for n in payload["iterations"])
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "so")]) == 0
    report = json.loads((tmp_path / "so" / "report.json").read_text())
    assert payload["iterations"][-1] == report["iterations"]


@pytest.mark.filterwarnings(
    "ignore::sparsecontrol.pde.TruncationActiveWarning")
def test_sweep_warns_when_the_clamp_engages(tmp_path):
    cfg = write_config(tmp_path, FAST_SOLVE.replace(
        "  y0: zero\n", "  y0: zero\n  truncation: 0.002\n"))
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out),
                 "--gammas", "0.1,0.09,0.08"]) == 0
    payload = json.loads((out / "stability.json").read_text())
    assert ("reaction clamp engaged at gamma'=[0.08, 0.09, 0.1]; the "
            "distances and the fit describe the clamped equation"
            in payload["warnings"])
    # the second-order form is not defined on the clamped equation
    assert payload["second_order_bound"] is None


# one node, one step, a negative curvature weight at the solution; the
# hull of the critical cone has dimension 0 at kappa 0.1 (the slice is
# multiplier-active) and 1 at kappa 1, gamma 10 (it is free)
ONE_UNKNOWN = ("problem: {n_dim: 1, n_per_axis: 1, n_t: 1, kappa: %s, "
               "gamma: %s, diffusion: 0.1, nonlinearity: {kind: schloegl, "
               "params: [-1.0, 0.0, 1.0]}, y0: constant(2), yd: zero}\n")


@pytest.mark.parametrize("kappa, gamma", [(0.1, 0.05), (1.0, 10.0)])
def test_sweep_on_one_unknown_writes_a_finite_bound(tmp_path, kappa, gamma):
    cfg = write_config(tmp_path, ONE_UNKNOWN % (kappa, gamma))
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    bound = json.loads((out / "stability.json").read_text())[
        "second_order_bound"]
    assert np.isfinite(bound) and 0.0 < bound <= kappa


def test_sweep_bound_is_kappa_where_the_lanczos_operator_is_zero(tmp_path):
    # every slice is multiplier-active and the hull lives on the last one,
    # whose response reaches only the last step, where W_- vanishes: the
    # operator P S* W_- S P is 0, and ARPACK fails on it
    cfg = write_config(tmp_path, (
        "problem: {n_dim: 2, n_per_axis: 5, n_t: 7, kappa: 0.01, gamma: 0.02, "
        "diffusion: 0.1, nonlinearity: {kind: schloegl, params: [-1.0, 0.0, "
        "1.0]}, y0: constant(2), yd: zero}\noptimizer: {max_iter: 8}\n"))
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "stability.json").read_text())
    assert payload["converged"] and payload["second_order_bound"] == 0.01


def test_sweep_writes_a_null_bound_when_arpack_does_not_converge(
        tmp_path, monkeypatch):
    # 96 unknowns with a negative curvature weight, where Lanczos runs:
    # when ARPACK does not converge the bound is null, a warning names
    # that, and the sweep still exits 0 with its fit
    calls = []

    def no_convergence(*args, **kwargs):
        calls.append(1)
        raise ArpackNoConvergence("ARPACK error -1: No convergence", [], [])

    monkeypatch.setattr(diagnostics, "eigsh", no_convergence)
    cfg = write_config(tmp_path, (
        "problem: {n_dim: 2, n_per_axis: 4, n_t: 6, kappa: 0.1, gamma: 0.05, "
        "diffusion: 0.1, nonlinearity: {kind: schloegl, params: [-1.0, 0.0, "
        "1.0]}, y0: constant(2), yd: zero}\n"))
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "stability.json").read_text())
    assert calls and payload["converged"]
    assert payload["second_order_bound"] is None
    assert any("ARPACK" in w and "did not converge" in w
               for w in payload["warnings"])


def test_sweep_aborts_at_a_budget_that_does_not_converge(tmp_path):
    # the base solve converges in 6 iterations; at gamma' = 0.2 the
    # iteration cap of 8 is reached, and the sweep stops with what it has
    cfg = write_config(tmp_path, (
        "problem: {n_dim: 2, n_per_axis: 10, n_t: 4, kappa: 0.002, "
        "gamma: 0.05, diffusion: 0.3, nonlinearity: {kind: schloegl, "
        "params: [-1.0, 0.0, 1.0]}, yd: bump}\noptimizer: {max_iter: 8}\n"))
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out),
                 "--gammas", "0.05,0.2,1.0"]) == 2
    payload = json.loads((out / "stability.json").read_text())
    assert payload["converged"] is False
    assert payload["gammas"] == [0.05] and payload["iterations"] == [6]
    assert payload["warnings"][0] == ("solve at gamma'=0.2 did not converge; "
                                      "sweep aborted")
    assert (out / "stability.csv").read_text(
        encoding="utf-8").splitlines()[1:] == ["0.05,0.0"]


def test_check_passes_and_corrupt_adjoint_fails(tmp_path, capsys,
                                                monkeypatch):
    cfg = write_config(tmp_path, FAST_SOLVE)
    assert main(["check", "--config", cfg]) == 0
    table = capsys.readouterr().out
    assert "projection-oracle" in table and "FAIL" not in table
    # negative control: an adjoint off by a relative 1e-3 must fail
    exact = checks.solve_adjoint

    def corrupt(spec, y):
        phi = exact(spec, y)
        return sc.like(phi, phi.values * (1.0 + 1e-3))

    monkeypatch.setattr(checks, "solve_adjoint", corrupt)
    assert main(["check", "--config", cfg]) == 3
    rows = capsys.readouterr().out.splitlines()
    assert [r.split()[0] for r in rows if "FAIL" in r] == ["adjoint-identity"]


# 1 + dt*a'(0) = 1 - 0.0535*30 < 0: the random controls of the adjoint
# check's draws admit no implicit step solution that Newton reaches
CHECK_STATE_FAILURE = """
problem:
  n_dim: 2
  n_per_axis: 4
  n_t: 2
  T: 0.107
  diffusion: 0.092
  nonlinearity:
    kind: polynomial
    params: [0.0, -30.0, 0.0, 1.0]
"""


def test_check_state_failure_is_a_failed_row(tmp_path, capsys):
    cfg = write_config(tmp_path, CHECK_STATE_FAILURE)
    assert main(["check", "--config", cfg]) == 3
    out = capsys.readouterr().out
    failed = [r for r in out.splitlines() if "FAIL" in r]
    assert len(failed) == 1
    assert failed[0].split()[0] == "adjoint-identity"
    # the sweep's own error names the stage, once
    assert failed[0].split("FAIL", 1)[1].strip().startswith(
        "failed on draw 1, 2, 3, 4, 5 of 5: state solver failed at step 2: ")


# at dt = 1 every step matrix is exactly singular: one interior node,
# h = 1/2, B = 1 + dt*8 + dt*(-9) = 0; three, h = 1/4,
# B = tridiag(-16, 1 + 32 - 33, -16), whose first and last rows agree
SINGULAR_STEPS = ["""
problem: {n_per_axis: 1, n_t: 1, T: 1.0, diffusion: 1.0,
          nonlinearity: {kind: linear, params: [-9.0]}, yd: bump}
""", """
problem: {n_dim: 1, n_per_axis: 3, n_t: 1, T: 1.0, diffusion: 1.0,
          nonlinearity: {kind: linear, params: [-33.0]}, yd: bump}
"""]


@pytest.mark.parametrize("command, code", [("solve", 2), ("sweep", 2),
                                           ("check", 3)])
def test_singular_step_matrix_is_a_named_failure(tmp_path, capsys, command,
                                                 code):
    for i, text in enumerate(SINGULAR_STEPS):
        cfg = write_config(tmp_path, text)
        out = tmp_path / f"out{i}"
        assert main([command, "--config", cfg, "--out", str(out)]) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if command == "check":
            failed = [r for r in captured.out.splitlines() if "FAIL" in r]
            assert [r.split()[0] for r in failed] == ["adjoint-identity"]
            assert "exactly singular" in failed[0]
        else:
            # the initial state solve factors nothing; the first adjoint
            # sweep fails, and no point with an adjoint exists to report
            assert captured.err.startswith(
                "error: adjoint solver failed at step 1: ")
            assert "exactly singular" in captured.err
            assert list(out.iterdir()) == []


def test_adjoint_failure_after_an_accepted_step_exits_two_with_outputs(
        tmp_path, capsys, monkeypatch):
    exact, calls = optimizer.solve_adjoint, []

    def failing_second(spec, y, near=None):
        calls.append(None)
        if len(calls) == 2:
            raise NewtonError("adjoint solver failed at step 3: singular")
        return exact(spec, y, near)

    monkeypatch.setattr(optimizer, "solve_adjoint", failing_second)
    cfg = write_config(tmp_path, FAST_SOLVE)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == ""
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False
    assert report["message"] == "adjoint solver failed at step 3: singular"
    assert len(report["objective_history"]) == 1
    assert (out / "timeseries.csv").exists()


def test_check_suite_robust_across_seeds():
    # the shipped defaults must pass, whatever the seed
    cfg = parse_config("{}")
    spec = cfg.problem_spec()
    for seed in (1, 2, 3, 4, 5):
        results = checks.run_checks(spec, seed)
        assert all(r.passed for r in results), \
            [r.detail for r in results if not r.passed]


def test_readme_example_config_parses_alike_under_both_loaders():
    # parse_config uses libyaml's loader where PyYAML has it; it must give
    # the pure-Python safe loader's values
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    text = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
    expected = yaml.load(
        text, Loader=runconfig._with_exponent_floats(yaml.SafeLoader))
    assert expected["problem"]["nonlinearity"]["kind"] == "schloegl"
    assert yaml.load(text, Loader=runconfig._YAML_LOADER) == expected
    if yaml.__with_libyaml__:
        assert runconfig._YAML_LOADER.__bases__ == (yaml.CSafeLoader,)


@pytest.mark.parametrize("block, key, text, value", [
    ("optimizer", "tol", "1e-10", 1e-10),
    ("problem", "kappa", "3e-1", 0.3),
    ("problem", "gamma", "+5E-2", 0.05),
    ("problem", "T", ".5e1", 5.0),
])
def test_float_without_a_dot_is_a_float(tmp_path, block, key, text, value):
    # PyYAML's own resolver reads these as strings
    assert isinstance(yaml.safe_load(text), str)
    cfg = parse_config(f"{block}: {{{key}: {text}}}\n")
    assert type(cfg.to_dict()[block][key]) is float
    assert cfg.to_dict()[block][key] == value
    # ... and the loader of the pure-Python fallback reads them alike
    loader = runconfig._with_exponent_floats(yaml.SafeLoader)
    assert yaml.load(text, Loader=loader) == value


def test_float_without_a_dot_is_echoed_as_a_float(tmp_path):
    cfg = write_config(tmp_path, FAST_SOLVE.replace(
        "  kappa: 0.2\n", "  kappa: 2e-1\n").replace(
        "  tol: 1.0e-9\n", "  tol: 1e-9\n"))
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    config = json.loads((out / "report.json").read_text())["config"]
    assert config["problem"]["kappa"] == 0.2
    assert config["optimizer"]["tol"] == 1e-9


def test_parse_config_strictness():
    with pytest.raises(ConfigError):
        parse_config("bogus_top: 1\n")
    with pytest.raises(ConfigError):
        parse_config("optimizer:\n  tolerance: 1.0\n")
    with pytest.raises(ConfigError):
        parse_config("seed: -3\n")
    with pytest.raises(ConfigError):
        parse_config("problem:\n  nonlinearity: {kind: nosuch}\n")
    cfg = parse_config("{}")
    assert cfg.problem["n_dim"] == 1
    assert cfg.optimizer["tol"] == 1e-8
    assert cfg.seed == 0


def test_optimizer_config_fields_are_the_optimizer_block_keys():
    # every field of OptimizerConfig is a config key, and nothing else is
    assert ({f.name for f in fields(sc.OptimizerConfig)}
            == set(parse_config("{}").optimizer))


def test_parse_config_matrix_diffusion_and_presets():
    cfg = parse_config("""
problem:
  n_dim: 2
  n_per_axis: 4
  diffusion: [[2.0, 0.3], [0.3, 1.0]]
  y0: constant(0.25)
  yd: one-mode
""")
    spec = cfg.problem_spec()
    assert spec.diffusion.as_array()[0, 1] == 0.3
    assert np.all(spec.y0 == 0.25)
    with pytest.raises(ConfigError):
        parse_config("problem:\n  n_dim: 2\n  diffusion: [[1.0, 0.0]]\n")


def test_parse_config_shorthand_forms():
    cfg = parse_config("""
problem:
  nonlinearity: exponential
  truncation: 2.5
  y0: 0.5
""")
    spec = cfg.problem_spec()
    assert spec.nonlinearity.kind == "exponential"
    assert spec.truncation == 2.5
    assert np.all(spec.y0 == 0.5)
    with pytest.raises(ConfigError):
        parse_config("problem:\n  truncation: never\n")


def _log_uniform(low, high):
    return st.floats(np.log10(low), np.log10(high)).map(lambda e: 10.0 ** e)


_NONLINEARITIES = st.one_of(
    st.just({"kind": "zero", "params": []}),
    st.just({"kind": "exponential", "params": []}),
    st.just({"kind": "polynomial", "params": [0.0, -30.0, 0.0, 1.0]}),
    st.builds(lambda c: {"kind": "linear", "params": [c]},
              st.floats(-20.0, 20.0)),
    st.builds(lambda r: {"kind": "schloegl", "params": sorted(r)},
              st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3)),
    st.builds(lambda c: {"kind": "polynomial", "params": c + [1.0]},
              st.lists(st.floats(-30.0, 30.0), min_size=3, max_size=3)))

_SHAPES = st.sampled_from(["zero", "one-mode", "bump", "constant(2)"])

_CONFIGS = st.fixed_dictionaries({
    "problem": st.fixed_dictionaries({
        "n_dim": st.integers(1, 2),
        "n_per_axis": st.integers(2, 6),
        "n_t": st.integers(1, 4),
        "T": _log_uniform(0.01, 3.0),
        "kappa": _log_uniform(1e-3, 1.0),
        "gamma": _log_uniform(1e-3, 10.0),
        "diffusion": _log_uniform(1e-4, 1.0),
        "nonlinearity": _NONLINEARITIES,
        "truncation": st.one_of(st.just("auto"), _log_uniform(0.05, 20.0)),
        "y0": _SHAPES,
        "yd": _SHAPES,
    }),
    "optimizer": st.fixed_dictionaries({"max_iter": st.integers(1, 20)}),
})


def _run_on(command, config, tmp):
    """Run command on config under tmp; (exit code, out dir, stderr,
    stdout)."""
    cfg = Path(tmp) / "run.yaml"
    cfg.write_text(yaml.safe_dump(config), encoding="utf-8")
    out = Path(tmp) / "out"
    err, table = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(table):
        code = main([command, "--config", str(cfg), "--out", str(out)])
    assert "Traceback" not in err.getvalue()
    return code, out, err.getvalue(), table.getvalue()


@pytest.mark.filterwarnings("ignore::sparsecontrol.pde.TruncationActiveWarning")
@settings(max_examples=30, derandomize=True, deadline=None)
@given(_CONFIGS)
def test_solve_ends_in_a_report_or_a_named_state_failure(config):
    # every valid config exits 0 or 2 without a traceback; only a failed
    # initial state or adjoint solve leaves no outputs (see
    # test_initial_state_failure_exits_two_and_writes_nothing)
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err, _ = _run_on("solve", config, tmp)
        assert code in (0, 2), err
        if code == 2 and "solver failed" in err:
            assert list(out.iterdir()) == []
        else:
            report = json.loads((out / "report.json").read_text())
            assert report["converged"] is (code == 0)
            assert (out / "timeseries.csv").exists()


@pytest.mark.filterwarnings("ignore::sparsecontrol.pde.TruncationActiveWarning")
@settings(max_examples=20, derandomize=True, deadline=None)
@given(_CONFIGS)
def test_sweep_ends_in_outputs_or_a_named_state_failure(config):
    # as for solve: a state or adjoint solve that fails before any budget
    # is solved leaves no outputs, anything else writes both files
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err, _ = _run_on("sweep", config, tmp)
        assert code in (0, 2), err
        if code == 2 and "solver failed" in err:
            assert list(out.iterdir()) == []
        else:
            payload = json.loads((out / "stability.json").read_text())
            assert payload["converged"] is (code == 0)
            assert (out / "stability.csv").exists()
            bound = payload["second_order_bound"]
            kappa = payload["config"]["problem"]["kappa"]
            assert bound is None or (np.isfinite(bound) and bound <= kappa)


# one check runs the whole property suite, over a second
@pytest.mark.filterwarnings("ignore::sparsecontrol.pde.TruncationActiveWarning")
@settings(max_examples=3, derandomize=True, deadline=None)
@given(_CONFIGS)
def test_check_ends_in_a_table(config):
    with tempfile.TemporaryDirectory() as tmp:
        code, _, err, table = _run_on("check", config, tmp)
    assert code in (0, 3), err
    verdicts = [row.split()[1] for row in table.splitlines()]
    assert verdicts and set(verdicts) <= {"PASS", "FAIL"}
    assert (code == 3) is ("FAIL" in verdicts)
