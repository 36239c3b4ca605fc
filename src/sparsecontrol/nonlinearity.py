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

Every kind stores an analytic global lower bound ``c_a`` for a'(y); the
bound is asserted in tests, it never enters a computation.

The clamp f_M maps the real line onto [-M-1, M+1], is the identity on
(-M, M), and blends with a cubic on [M, M+1] (mirrored on the negative
side).  It is C^1 with 0 <= f_M' <= 4/3; the maximum 4/3 of the blend
derivative 1 - 2(M-s) - 3(M-s)^2 is attained at s = M + 1/3.  The clamped
reaction is a_M(y) = a(f_M(y)) with derivative a'(f_M(y)) * f_M'(y).
When every |y| < M (clamp_idle) the clamp is not evaluated at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KINDS = ("zero", "linear", "exponential", "schloegl", "polynomial")

# exp(y) overflows double precision slightly above this
_EXP_MAX_ARG = 700.0


@dataclass(frozen=True)
class TruncationSpec:
    """Clamp level M > 0 for the reaction term."""

    level: float

    def __post_init__(self):
        if not self.level > 0:
            raise ValueError(f"truncation level must be > 0, got {self.level}")


@dataclass(frozen=True)
class NonlinearitySpec:
    kind: str
    params: tuple = ()
    truncation: TruncationSpec | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
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

    @property
    def c_a(self) -> float:
        """Analytic global lower bound of a'(y)."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "linear":
            return self.params[0]
        if self.kind == "exponential":
            return 0.0
        if self.kind == "schloegl":
            z1, z2, z3 = self.params
            s1 = z1 + z2 + z3
            s2 = z1 * z2 + z1 * z3 + z2 * z3
            # a'(y) = 3y^2 - 2*s1*y + s2, minimized at y = s1/3
            return s2 - s1 * s1 / 3.0
        return _poly_derivative_min(self.params)


def _poly_derivative_min(coeffs: tuple) -> float:
    """Global minimum of the derivative of c0 + c1*y + ... over the reals.

    The derivative has even degree and positive leading coefficient, so the
    minimum sits at a real root of the second derivative.
    """
    deriv = np.polynomial.polynomial.polyder(np.asarray(coeffs))
    if len(deriv) == 1:
        return float(deriv[0])
    dderiv = np.polynomial.polynomial.polyder(deriv)
    roots = np.polynomial.polynomial.polyroots(dderiv)
    crit = np.real(roots[np.abs(np.imag(roots)) < 1e-10])
    if crit.size == 0:
        return float(np.polynomial.polynomial.polyval(0.0, deriv))
    return float(np.min(np.polynomial.polynomial.polyval(crit, deriv)))


def _check_exp_range(y):
    if np.max(y, initial=-np.inf) > _EXP_MAX_ARG:
        raise OverflowError("exponential reaction evaluated outside double range; "
                            "enable truncation or reduce the state magnitude")


def eval_a(spec: NonlinearitySpec, y):
    """Reaction value a(y); accepts scalars or arrays."""
    y = np.asarray(y, dtype=float)
    if spec.kind == "zero":
        return np.zeros_like(y)
    if spec.kind == "linear":
        return spec.params[0] * y
    if spec.kind == "exponential":
        _check_exp_range(y)
        return np.exp(y)
    if spec.kind == "schloegl":
        z1, z2, z3 = spec.params
        return (y - z1) * (y - z2) * (y - z3)
    return np.polynomial.polynomial.polyval(y, np.asarray(spec.params))


def eval_ay(spec: NonlinearitySpec, y):
    """First derivative a'(y)."""
    y = np.asarray(y, dtype=float)
    if spec.kind == "zero":
        return np.zeros_like(y)
    if spec.kind == "linear":
        return np.full_like(y, spec.params[0])
    if spec.kind == "exponential":
        _check_exp_range(y)
        return np.exp(y)
    if spec.kind == "schloegl":
        z1, z2, z3 = spec.params
        s1 = z1 + z2 + z3
        s2 = z1 * z2 + z1 * z3 + z2 * z3
        return 3.0 * y * y - 2.0 * s1 * y + s2
    c = np.polynomial.polynomial.polyder(np.asarray(spec.params))
    return np.polynomial.polynomial.polyval(y, c)


def eval_ayy(spec: NonlinearitySpec, y):
    """Second derivative a''(y)."""
    y = np.asarray(y, dtype=float)
    if spec.kind == "zero":
        return np.zeros_like(y)
    if spec.kind == "linear":
        return np.zeros_like(y)
    if spec.kind == "exponential":
        _check_exp_range(y)
        return np.exp(y)
    if spec.kind == "schloegl":
        z1, z2, z3 = spec.params
        s1 = z1 + z2 + z3
        return 6.0 * y - 2.0 * s1
    c = np.polynomial.polynomial.polyder(np.asarray(spec.params), 2)
    return np.polynomial.polynomial.polyval(y, c)


def f_M(trunc: TruncationSpec, s):
    """Five-branch C^1 clamp of the real line onto [-M-1, M+1]."""
    M = trunc.level
    s = np.asarray(s, dtype=float)
    up = M - s
    dn = M + s
    return np.select(
        [s > M + 1.0, s >= M, s > -M, s >= -M - 1.0],
        [M + 1.0,
         s + up * up + up * up * up,
         s,
         s - dn * dn - dn * dn * dn],
        default=-M - 1.0,
    )


def f_M_prime(trunc: TruncationSpec, s):
    """Branchwise derivative of the clamp; values in [0, 4/3]."""
    M = trunc.level
    s = np.asarray(s, dtype=float)
    up = M - s
    dn = M + s
    return np.select(
        [s > M + 1.0, s >= M, s > -M, s >= -M - 1.0],
        [0.0,
         1.0 - 2.0 * up - 3.0 * up * up,
         1.0,
         1.0 - 2.0 * dn - 3.0 * dn * dn],
        default=0.0,
    )


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
    if spec.kind == "zero":
        return np.zeros_like(y, dtype=float)
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
