"""Run configuration: YAML parsing with strict key validation.

A config file has a ``problem`` block, optional ``optimizer`` and ``output``
blocks, and a ``seed``.  Unknown keys anywhere are rejected with the
offending key path in the error message.  The fully resolved configuration
(defaults filled in) round-trips into report files.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields

import numpy as np
import yaml

from .grid import DiffusionTensor, SpaceGrid, TimeGrid, isotropic
from .nonlinearity import KINDS, NonlinearitySpec, TruncationSpec
from .optimizer import OptimizerConfig
from .presets import spatial_preset, target_preset
from .problem import ProblemSpec


class ConfigError(ValueError):
    """Malformed run configuration."""


def _with_exponent_floats(loader: type) -> type:
    """A subclass of loader that reads 1e-10, an exponent without a dot, as
    a float, as YAML 1.2 does; PyYAML's YAML 1.1 resolver reads a string."""
    subclass = type(f"Exponent{loader.__name__}", (loader,), {})
    subclass.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
        r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
        list("-+.0123456789"))
    return subclass


# libyaml's parser where PyYAML was built with it, about 7x faster than the
# pure-Python one.  Both use the safe constructor and resolver, plus the
# float resolver above, so a text both accept parses to the same values;
# libyaml also accepts a tab as separating white space, as the YAML spec
# does and PyYAML's scanner does not
_YAML_LOADER = _with_exponent_floats(
    getattr(yaml, "CSafeLoader", yaml.SafeLoader))


_TOP_KEYS = {"problem", "optimizer", "output", "seed"}

# the allowed keys of each block are the keys of its defaults
_PROBLEM_DEFAULTS = {
    "n_dim": 1, "n_per_axis": 16, "n_t": 16, "T": 1.0,
    "kappa": 0.1, "gamma": 1.0,
    "diffusion": 1.0,
    "nonlinearity": {"kind": "zero", "params": []},
    "truncation": "auto",
    "y0": "zero", "yd": "zero",
}
# the initial control is not a config key
_OPTIMIZER_DEFAULTS = {f.name: f.default for f in fields(OptimizerConfig)
                       if f.name != "u0"}
_OUTPUT_DEFAULTS = {"directory": ".", "dump_fields": False}


def _reject_unknown(block: dict, allowed, path: str):
    if not isinstance(block, dict):
        raise ConfigError(f"section {path!r} must be a mapping")
    for key in block:
        if key not in allowed:
            raise ConfigError(f"unknown key {path}.{key}" if path else
                              f"unknown key {key}")


def _merged(block, defaults, path):
    block = {} if block is None else block
    _reject_unknown(block, defaults, path)
    out = dict(defaults)
    out.update(block)
    return out


@dataclass
class RunConfig:
    problem: dict
    optimizer: dict
    output: dict
    seed: int

    def to_dict(self) -> dict:
        """Fully resolved configuration, JSON-serializable."""
        return {
            "problem": dict(self.problem),
            "optimizer": dict(self.optimizer),
            "output": dict(self.output),
            "seed": self.seed,
        }

    def problem_spec(self) -> ProblemSpec:
        return build_problem_spec(self.problem)

    def optimizer_config(self) -> OptimizerConfig:
        return OptimizerConfig(**self.optimizer)


def _coerce_diffusion(entry, n_dim: int) -> DiffusionTensor:
    if _is_number(entry):
        return isotropic(n_dim, float(entry))
    try:
        matrix = np.asarray(entry, dtype=float)
    except (TypeError, ValueError):
        matrix = None
    if matrix is None or matrix.shape != (n_dim, n_dim):
        raise ConfigError(f"problem.diffusion must be a number or an "
                          f"{n_dim}x{n_dim} matrix, got {entry!r}")
    return DiffusionTensor(tuple(tuple(row) for row in matrix))


def _coerce_nonlinearity(entry, truncation) -> NonlinearitySpec:
    if isinstance(entry, str):
        entry = {"kind": entry, "params": []}
    entry = _merged(entry, _PROBLEM_DEFAULTS["nonlinearity"],
                    "problem.nonlinearity")
    if entry["kind"] not in KINDS:
        raise ConfigError(f"problem.nonlinearity.kind must be one of {KINDS}")
    trunc = None
    if truncation not in ("auto", None):
        try:
            trunc = TruncationSpec(float(truncation))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"problem.truncation must be 'auto' or a "
                              f"positive number: {exc}") from exc
    try:
        return NonlinearitySpec(entry["kind"], tuple(entry["params"] or ()),
                                trunc)
    except ValueError as exc:
        raise ConfigError(f"problem.nonlinearity: {exc}") from exc


def _is_integer(value) -> bool:
    """An int and not a bool, which YAML's true and false are."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_integer(value) or isinstance(value, float)


def _require_numbers(block: dict, keys, path: str):
    for key in keys:
        if not _is_number(block[key]):
            raise ConfigError(f"{path}.{key} must be a number, got "
                              f"{block[key]!r}")


def build_problem_spec(problem: dict) -> ProblemSpec:
    _require_numbers(problem, ("T", "kappa", "gamma"), "problem")
    try:
        for key in ("n_dim", "n_per_axis", "n_t"):
            if not _is_integer(problem[key]):
                raise ValueError(f"{key} must be an integer, got "
                                 f"{problem[key]!r}")
        grid = SpaceGrid(problem["n_dim"], problem["n_per_axis"])
        tgrid = TimeGrid(float(problem["T"]), problem["n_t"])
        diffusion = _coerce_diffusion(problem["diffusion"], grid.n_dim)
        nonlinearity = _coerce_nonlinearity(problem["nonlinearity"],
                                            problem["truncation"])
        y0 = spatial_preset(problem["y0"], grid)
        yd = target_preset(problem["yd"], grid, tgrid)
        return ProblemSpec(
            kappa=float(problem["kappa"]), gamma=float(problem["gamma"]),
            grid=grid, tgrid=tgrid, diffusion=diffusion,
            nonlinearity=nonlinearity, y0=y0, yd=yd)
    except ConfigError:
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"problem block: {exc}") from exc


def parse_config(text: str) -> RunConfig:
    try:
        raw = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    _reject_unknown(raw, _TOP_KEYS, "")
    problem = _merged(raw.get("problem"), _PROBLEM_DEFAULTS, "problem")
    optimizer = _merged(raw.get("optimizer"), _OPTIMIZER_DEFAULTS, "optimizer")
    output = _merged(raw.get("output"), _OUTPUT_DEFAULTS, "output")
    seed = raw.get("seed", 0)
    if not _is_integer(seed) or seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    _require_numbers(optimizer, ("tol",), "optimizer")
    cfg = RunConfig(problem, optimizer, output, seed)
    # fail fast on domain errors so the CLI can exit with a config error
    cfg.problem_spec()
    try:
        cfg.optimizer_config()
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"optimizer block: {exc}") from exc
    if not isinstance(cfg.output["dump_fields"], bool):
        raise ConfigError("output.dump_fields must be a boolean")
    return cfg


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())
