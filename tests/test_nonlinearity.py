import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sparsecontrol as sc
from sparsecontrol.nonlinearity import (NonlinearitySpec, clamp_idle, eval_a,
                                        eval_a_truncated, eval_ay,
                                        eval_ay_truncated, eval_ayy, f_M,
                                        f_M_prime)

CUBIC = NonlinearitySpec("schloegl", (0.0, 0.0, 0.0))          # a(y) = y^3
BISTABLE = NonlinearitySpec("schloegl", (-1.0, 0.0, 1.0))      # a(y) = y^3 - y
EXP = NonlinearitySpec("exponential")

ALL_KINDS = [
    NonlinearitySpec("zero"),
    NonlinearitySpec("linear", (2.5,)),
    EXP,
    BISTABLE,
    NonlinearitySpec("schloegl", (0.3, -0.7, 2.0)),
    NonlinearitySpec("polynomial", (1.0, -4.0, 0.0, 0.5)),
]


# the case-by-case closed forms the coefficient form replaced, kept as
# references
def reference_derivative(spec, y, order):
    y = np.asarray(y, dtype=float)
    if spec.kind == "zero" or (spec.kind == "linear" and order == 2):
        return np.zeros_like(y)
    if spec.kind == "linear":
        return spec.params[0] * y if order == 0 else np.full_like(y, spec.params[0])
    if spec.kind == "schloegl":
        z1, z2, z3 = spec.params
        s1 = z1 + z2 + z3
        s2 = z1 * z2 + z1 * z3 + z2 * z3
        return ((y - z1) * (y - z2) * (y - z3), 3.0 * y * y - 2.0 * s1 * y + s2,
                6.0 * y - 2.0 * s1)[order]
    c = np.polynomial.polynomial.polyder(np.asarray(spec.params), order)
    return np.polynomial.polynomial.polyval(y, c)


def reference_clamp(M, s):
    """The five-branch np.select clamp at level M and its derivative."""
    s = np.asarray(s, dtype=float)
    up, dn = M - s, M + s
    conditions = [s > M + 1.0, s >= M, s > -M, s >= -M - 1.0]
    value = np.select(conditions, [M + 1.0, s + up * up + up * up * up, s,
                                   s - dn * dn - dn * dn * dn], default=-M - 1.0)
    slope = np.select(conditions, [0.0, 1.0 - 2.0 * up - 3.0 * up * up, 1.0,
                                   1.0 - 2.0 * dn - 3.0 * dn * dn], default=0.0)
    return value, slope


def reference_slope_min(spec):
    """inf over the real line of a'(y), from the closed forms above.

    a' is constant for zero and linear, tends to 0 from above for exp, and
    for a cubic is a parabola with its vertex where a'' vanishes.
    """
    if spec.kind == "zero":
        return 0.0
    if spec.kind == "linear":
        return spec.params[0]
    if spec.kind == "exponential":
        return 0.0
    if spec.kind == "schloegl":
        vertex = sum(spec.params) / 3.0
    else:
        c = spec.params
        assert len(c) == 4, "closed form covers cubics only"
        vertex = -c[2] / (3.0 * c[3])
    return float(reference_derivative(spec, vertex, 1))


POLYNOMIAL_KINDS = [spec for spec in ALL_KINDS if spec.kind != "exponential"]


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("spec", POLYNOMIAL_KINDS,
                         ids=lambda s: s.kind + str(s.params))
def test_coefficient_form_matches_closed_forms(spec, order):
    y = np.linspace(-3.0, 3.0, 601)
    value = (eval_a, eval_ay, eval_ayy)[order](spec, y)
    reference = reference_derivative(spec, y, order)
    if spec.kind in ("zero", "linear"):
        assert value.tobytes() == reference.tobytes()
    else:
        scale = max(float(np.max(np.abs(reference))), 1.0)
        assert np.max(np.abs(value - reference)) <= 1e-14 * scale


@pytest.mark.parametrize("roots", [(-1.0, 0.0, 1.0), (0.3, -0.7, 2.0)])
def test_schloegl_slope_bound_closed_form(roots):
    # a'(y) = 3y^2 - 2*s1*y + s2 is minimal at y = s1/3
    z1, z2, z3 = roots
    s1 = z1 + z2 + z3
    s2 = z1 * z2 + z1 * z3 + z2 * z3
    spec = NonlinearitySpec("schloegl", roots)
    bound = s2 - s1 * s1 / 3.0
    assert abs(float(eval_ay(spec, s1 / 3.0)) - bound) <= 1e-12
    y = np.linspace(-30.0, 30.0, 2001)
    assert np.all(eval_ay(spec, y) >= bound - 1e-12)


@pytest.mark.parametrize("level", [0.05, 1.7, 3.0])
def test_clamp_matches_five_branch_form(level):
    M = level
    s = np.concatenate([np.linspace(-M - 3.0, M + 3.0, 20001),
                        [-M - 1.0, -M, M, M + 1.0, M + 1.0 / 3.0]])
    inside = np.abs(s) < M
    ref_value, ref_slope = reference_clamp(M, s)
    tol = 4.0 * np.finfo(float).eps * (M + 1.0)
    for new, ref in ((f_M(M, s), ref_value), (f_M_prime(M, s), ref_slope)):
        assert new[inside].tobytes() == ref[inside].tobytes()
        assert np.max(np.abs(new[~inside] - ref[~inside])) <= tol


def test_cubic_values():
    assert eval_a(CUBIC, 2.0) == pytest.approx(8.0)
    assert eval_ay(CUBIC, 2.0) == pytest.approx(12.0)
    assert eval_ayy(CUBIC, 2.0) == pytest.approx(12.0)


def test_exponential_values_and_overflow():
    assert eval_a(EXP, 0.0) == pytest.approx(1.0)
    assert eval_ay(EXP, 0.0) == pytest.approx(1.0)
    with pytest.raises(OverflowError):
        eval_a(EXP, 800.0)


def test_bistable_derivative_lower_bound():
    # a'(y) = 3y^2 - 1 has its minimum -1 at y = 0
    assert reference_slope_min(BISTABLE) == pytest.approx(-1.0)
    assert eval_ay(BISTABLE, 0.0) == pytest.approx(-1.0)
    assert eval_ay(BISTABLE, 1e-3) > eval_ay(BISTABLE, 0.0)
    assert eval_ay(BISTABLE, -1e-3) > eval_ay(BISTABLE, 0.0)


@pytest.mark.parametrize("spec", ALL_KINDS, ids=lambda s: s.kind + str(s.params))
def test_derivative_lower_bound_sampled(spec):
    # a' stays above its closed-form infimum and comes within sampling
    # distance of it
    low = reference_slope_min(spec)
    y = np.linspace(-30.0, 30.0, 2001)
    slope = eval_ay(spec, y)
    assert np.all(slope >= low - 1e-9 * max(1.0, abs(low)))
    assert np.min(slope) - low <= 0.1


@pytest.mark.parametrize("spec", ALL_KINDS, ids=lambda s: s.kind + str(s.params))
def test_finite_difference_consistency(spec):
    rng = np.random.default_rng(17)
    y = rng.uniform(-3.0, 3.0, 40)
    h = 1e-5
    fd_first = (eval_a(spec, y + h) - eval_a(spec, y - h)) / (2 * h)
    scale = np.maximum(np.abs(eval_ay(spec, y)), 1.0)
    assert np.all(np.abs(fd_first - eval_ay(spec, y)) / scale <= 1e-6)
    fd_second = (eval_ay(spec, y + h) - eval_ay(spec, y - h)) / (2 * h)
    scale2 = np.maximum(np.abs(eval_ayy(spec, y)), 1.0)
    assert np.all(np.abs(fd_second - eval_ayy(spec, y)) / scale2 <= 1e-6)


def test_spec_validation():
    with pytest.raises(ValueError):
        NonlinearitySpec("unknown")
    with pytest.raises(ValueError):
        NonlinearitySpec("schloegl", (1.0,))
    with pytest.raises(ValueError):
        NonlinearitySpec("polynomial", (1.0, 2.0, -3.0))  # even degree


def test_clamp_branches():
    s = np.array([-5.0, -3.0, -2.5, -2.0, -1.0, 0.0, 1.9, 2.0, 2.5, 3.0, 9.0])
    out = f_M(2.0, s)
    assert np.all(out[np.abs(s) < 2.0] == s[np.abs(s) < 2.0])
    assert out[0] == -3.0 and out[-1] == 3.0
    assert f_M(2.0, 2.0) == pytest.approx(2.0)
    assert f_M_prime(2.0, 2.0) == pytest.approx(1.0)
    assert f_M_prime(2.0, 3.0) == pytest.approx(0.0)
    assert f_M(2.0, 3.0) == pytest.approx(3.0)


def test_clamp_c1_at_breakpoints():
    M = 1.7
    h = 5e-7
    for s in (M, M + 1.0, -M, -(M + 1.0)):
        fd = (f_M(M, s + h) - f_M(M, s - h)) / (2 * h)
        assert abs(fd - f_M_prime(M, s)) <= 1e-6


@settings(max_examples=300, derandomize=True)
@given(st.floats(0.05, 20.0), st.floats(-40.0, 40.0))
def test_clamp_derivative_bounds(level, s):
    d = float(f_M_prime(level, s))
    assert 0.0 <= d <= 4.0 / 3.0 + 1e-12


@settings(max_examples=300, derandomize=True)
@given(st.floats(0.05, 20.0), st.floats(-40.0, 40.0), st.floats(0.0, 5.0))
def test_clamp_nondecreasing(level, s, gap):
    assert f_M(level, s + gap) >= f_M(level, s) - 1e-12


def test_clamp_derivative_peak_is_four_thirds():
    # the blend derivative 1 - 2(M-s) - 3(M-s)^2 peaks at s = M + 1/3
    assert f_M_prime(3.0, 3.0 + 1.0 / 3.0) == pytest.approx(4.0 / 3.0)
    s = np.linspace(-10, 10, 100001)
    assert float(np.max(f_M_prime(3.0, s))) <= 4.0 / 3.0 + 1e-12


@pytest.mark.parametrize("level", [0.1, 0.5, 2.0])
@pytest.mark.parametrize("spec", ALL_KINDS, ids=lambda s: s.kind + str(s.params))
def test_clamped_derivative_lower_bound(spec, level):
    # a_M' = a'(f_M) * f_M' >= (4/3)*min(inf a', 0), since 0 <= f_M' <= 4/3
    y = np.linspace(-level - 3.0, level + 3.0, 20001)
    slope = eval_ay_truncated(spec, level, y)
    low = reference_slope_min(spec)
    bound = (4.0 / 3.0) * min(low, 0.0)
    assert np.min(slope) >= bound - 1e-12 * max(1.0, abs(low))


def test_truncated_reaction():
    spec = CUBIC
    y = np.linspace(-1.9, 1.9, 17)
    assert np.allclose(eval_a_truncated(spec, 2.0, y), eval_a(spec, y),
                       rtol=0, atol=0)
    assert eval_a_truncated(spec, 2.0, 5.0) == pytest.approx(27.0)  # (M+1)^3
    assert eval_ay_truncated(spec, 2.0, 5.0) == 0.0
    # globally bounded by the max of |a| on [-M-1, M+1]
    wide = np.linspace(-100, 100, 5001)
    assert np.max(np.abs(eval_a_truncated(spec, 2.0, wide))) <= 27.0 + 1e-12


def test_truncated_zero_reaction():
    spec = NonlinearitySpec("zero")
    y = np.linspace(-100.0, 100.0, 7)
    out = eval_a_truncated(spec, 2.0, y)
    assert out.dtype == float
    assert np.array_equal(out, eval_a(spec, f_M(2.0, y)))


# at level M = 2: strictly inside (-M, M), exactly at +-M, beyond M + 1, NaN
CLAMP_PROBES = {
    "inside": np.array([-1.999, -0.5, -0.0, 0.0, 0.7, 1.999]),
    "at-level": np.array([-2.0, -1.0, 0.5, 2.0]),
    "beyond": np.array([-3.5, 0.3, 3.01, 40.0]),
    "nan": np.array([0.1, np.nan, -1.0]),
}


@pytest.mark.parametrize("probe", sorted(CLAMP_PROBES))
@pytest.mark.parametrize("spec", ALL_KINDS, ids=lambda s: s.kind + str(s.params))
def test_truncated_equals_clamp_formula_bitwise(spec, probe):
    # the idle-clamp shortcut must not change a single bit
    y = CLAMP_PROBES[probe]
    assert clamp_idle(2.0, y) == (probe == "inside")
    value = eval_a(spec, f_M(2.0, y))
    slope = eval_ay(spec, f_M(2.0, y)) * f_M_prime(2.0, y)
    assert eval_a_truncated(spec, 2.0, y).tobytes() == value.tobytes()
    assert eval_ay_truncated(spec, 2.0, y).tobytes() == slope.tobytes()


def test_truncated_derivative_fd():
    spec = BISTABLE
    y = np.linspace(-3.0, 3.0, 201)   # crosses all clamp branches
    h = 1e-6
    fd = (eval_a_truncated(spec, 1.3, y + h)
          - eval_a_truncated(spec, 1.3, y - h)) / (2 * h)
    assert np.max(np.abs(fd - eval_ay_truncated(spec, 1.3, y))) <= 1e-5


def test_auto_truncation_level():
    level = sc.auto_truncation_level(1.0, 2.0, 0.5, 0.1)
    assert level == pytest.approx(10.0 * (2.0 + 1.0 + 5.0 + 1.0))
