"""Reaction terms a(y), their y-derivatives, and the smooth clamp used to
keep solver iterates bounded.

Built-in kinds (all autonomous in (x, t)):

* ``zero``          a(y) = 0
* ``linear``        a(y) = c*y
* ``exponential``   a(y) = exp(y)
* ``schloegl``      a(y) = (y - z1)(y - z2)(y - z3), the cubic
                    bistable / Nagumo reaction
* ``polynomial``    odd degree with positive leading coefficient,
                    coefficients ascending: c0 + c1*y + ...

Every kind but ``exponential`` is a polynomial: its spec computes once the
ascending coefficients of a, a' and a'' (Schloegl's from its roots), and
each is one Horner evaluation.

The clamp f_M maps the real line onto [-M-1, M+1].  With the overshoot
e = clip(|s| - M, 0, 1),

    f_M(s) = sign(s) (min(|s|, M) + e + e^2 - e^3),   f_M'(s) = 1 + 2e - 3e^2:

the identity on (-M, M), bit for bit, a cubic blend on [M, M+1] (mirrored
for s < 0), constant beyond; C^1 with 0 <= f_M' <= 4/3, the maximum at
e = 1/3.  The clamped reaction is a_M(y) = a(f_M(y)) with derivative
a'(f_M(y)) * f_M'(y); when every |y| < M (clamp_idle) the clamp is not
evaluated at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

KINDS = ("zero", "linear", "exponential", "schloegl", "polynomial")

# exp(y) overflows double precision slightly above this
_EXP_MAX_ARG = 700.0


@dataclass(frozen=True)
class TruncationSpec:
    """Clamp level M > 0 for the reaction term."""

    level: float

    def __post_init__(self):
        if not 0 < self.level < np.inf:
            raise ValueError(f"truncation level must be finite and > 0, "
                             f"got {self.level}")


@dataclass(frozen=True)
class NonlinearitySpec:
    kind: str
    params: tuple = ()
    truncation: TruncationSpec | None = None
    _coefficients: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if not np.all(np.isfinite(self.params)):
            raise ValueError(f"parameters must be finite, got {self.params}")
        n = len(self.params)
        if self.kind == "linear" and n != 1:
            raise ValueError("linear kind takes one parameter (the slope)")
        if self.kind == "schloegl" and n != 3:
            raise ValueError("schloegl kind takes three root parameters")
        if self.kind in ("zero", "exponential") and n != 0:
            raise ValueError(f"{self.kind} kind takes no parameters")
        if self.kind == "polynomial":
            if n < 2 or n % 2 != 0:
                raise ValueError("polynomial coefficients must run up to an odd degree")
            if self.params[-1] <= 0:
                raise ValueError("polynomial leading coefficient must be positive")
        object.__setattr__(self, "_coefficients",
                           _polynomial_form(self.kind, self.params))


def _polynomial_form(kind: str, params: tuple):
    """Ascending coefficients of a, a' and a'' as tuples of Python floats;
    None for the exponential kind."""
    if kind == "exponential":
        return None
    if kind in ("zero", "linear"):
        a = (0.0,) + params
    elif kind == "schloegl":
        a = np.polynomial.polynomial.polyfromroots(params)
    else:
        a = params
    return tuple(tuple(float(c) for c in np.polynomial.polynomial.polyder(a, k))
                 for k in range(3))


def _evaluate(spec: NonlinearitySpec, y, order: int):
    """The order-th derivative of a at y: exp, or Horner's rule over the
    cached coefficients (zero coefficients skipped)."""
    y = np.asarray(y, dtype=float)
    if spec.kind == "exponential":
        if np.max(y, initial=-np.inf) > _EXP_MAX_ARG:
            raise OverflowError("exponential reaction evaluated outside double range; "
                                "enable truncation or reduce the state magnitude")
        return np.exp(y)
    coeffs = spec._coefficients[order]
    if len(coeffs) == 1:
        return np.full_like(y, coeffs[0])
    out = coeffs[-1] * y
    for c in coeffs[-2:0:-1]:
        if c:
            out += c
        out *= y
    if coeffs[0]:
        out += coeffs[0]
    return out


def eval_a(spec: NonlinearitySpec, y):
    """Reaction value a(y); accepts scalars or arrays."""
    return _evaluate(spec, y, 0)


def eval_ay(spec: NonlinearitySpec, y):
    """First derivative a'(y)."""
    return _evaluate(spec, y, 1)


def eval_ayy(spec: NonlinearitySpec, y):
    """Second derivative a''(y)."""
    return _evaluate(spec, y, 2)


def f_M(trunc: TruncationSpec, s):
    """C^1 clamp of the real line onto [-M-1, M+1]."""
    s = np.asarray(s, dtype=float)
    e = np.clip(np.abs(s) - trunc.level, 0.0, 1.0)      # the overshoot
    return np.copysign(np.minimum(np.abs(s), trunc.level) + e + e * e
                       - e * e * e, s)


def f_M_prime(trunc: TruncationSpec, s):
    """Derivative of the clamp; values in [0, 4/3]."""
    e = np.clip(np.abs(np.asarray(s, dtype=float)) - trunc.level, 0.0, 1.0)
    return 1.0 + 2.0 * e - 3.0 * e * e


def _require_truncation(spec: NonlinearitySpec) -> TruncationSpec:
    if spec.truncation is None:
        raise ValueError("nonlinearity spec carries no truncation level")
    return spec.truncation


def clamp_idle(trunc: TruncationSpec, y) -> bool:
    """True when every |y| < M, where f_M is the identity and f_M' is
    exactly 1.0, so the clamped reaction equals the plain one bit for bit.
    False for NaN input."""
    return bool(np.max(np.abs(y), initial=0.0) < trunc.level)


def eval_a_truncated(spec: NonlinearitySpec, y):
    """Clamped reaction a(f_M(y))."""
    trunc = _require_truncation(spec)
    if clamp_idle(trunc, y):
        return eval_a(spec, y)
    return eval_a(spec, f_M(trunc, y))


def eval_ay_truncated(spec: NonlinearitySpec, y):
    """Derivative of the clamped reaction: a'(f_M(y)) * f_M'(y)."""
    trunc = _require_truncation(spec)
    if clamp_idle(trunc, y):
        return eval_ay(spec, y)
    return eval_ay(spec, f_M(trunc, y)) * f_M_prime(trunc, y)


def with_truncation(spec: NonlinearitySpec, level: float) -> NonlinearitySpec:
    return NonlinearitySpec(spec.kind, spec.params, TruncationSpec(level))


def auto_truncation_level(y0_max: float, yd_max: float, gamma: float,
                          kappa: float) -> float:
    """Default clamp level, generous against the a-priori solution bound.

    Chosen so that the clamp is inactive at any reasonable solution; the
    solvers assert inactivity after the fact.
    """
    return 10.0 * (abs(yd_max) + abs(y0_max) + gamma / kappa + 1.0)
