import json

import numpy as np
import pytest

import sparsecontrol as sc
from sparsecontrol import checks
from sparsecontrol.cli import main
from sparsecontrol.fieldio import read_field, write_field
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


def test_iteration_cap_exits_two_with_partial_report(tmp_path):
    cfg = write_config(tmp_path, FAST_SOLVE.replace("max_iter: 300",
                                                    "max_iter: 1"))
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False
    assert (out / "timeseries.csv").exists()


# 1 + dt*(lambda_min(A_h) + c_a) < 0: some trial controls admit no implicit
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


def test_check_suite_robust_across_seeds():
    # the shipped defaults must pass, whatever the seed
    cfg = parse_config("{}")
    spec = cfg.problem_spec()
    for seed in (1, 2, 3, 4, 5):
        results = checks.run_checks(spec, seed)
        assert all(r.passed for r in results), \
            [r.detail for r in results if not r.passed]


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
    assert spec.nonlinearity.truncation.level == 2.5
    assert np.all(spec.y0 == 0.5)
    with pytest.raises(ConfigError):
        parse_config("problem:\n  truncation: never\n")
