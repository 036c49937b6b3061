import math

import numpy as np
import pytest

from vanetcov.quadrature import (
    NonConvergenceError,
    QuadratureSpec,
    integrate,
    integrate_with_panels,
    resum_panels,
)


def test_constant():
    value, err = integrate(lambda x: np.ones_like(x), 0.0, 1.0)
    assert abs(value - 1.0) <= max(err, 1e-12)


def test_exponential_tail():
    value, err = integrate(lambda x: np.exp(-x), 0.0, np.inf)
    assert abs(value - 1.0) < 1e-6
    assert abs(value - 1.0) <= err


def test_quarter_circle_endpoint_singularity():
    # same sqrt(rho^2 - u^2) pattern the association integral carries
    value, err = integrate(lambda u: 2.0 * np.sqrt(np.clip(1.0 - u * u, 0.0, None)),
                           0.0, 1.0)
    assert abs(value - math.pi / 2) <= err
    assert err < 2e-6


def test_polynomial_is_near_exact():
    value, _ = integrate(lambda x: 7 * x ** 6, 0.0, 1.0)
    assert value == pytest.approx(1.0, abs=1e-13)


def test_slow_power_tail():
    value, err = integrate(lambda x: x ** -1.5, 1.0, np.inf)
    assert abs(value - 2.0) <= max(err, 1e-6)


def test_error_bound_is_honest():
    cases = [
        (lambda x: np.sin(x), 0.0, math.pi, 2.0),
        (lambda x: np.exp(-x * x), 0.0, np.inf, math.sqrt(math.pi) / 2),
        (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4),
    ]
    for f, a, b, truth in cases:
        value, err = integrate(f, a, b)
        assert abs(value - truth) <= err + 1e-14


def test_reversed_limits_negate():
    v1, _ = integrate(lambda x: x, 0.0, 2.0)
    v2, _ = integrate(lambda x: x, 2.0, 0.0)
    assert v1 == pytest.approx(-v2, rel=1e-12)


def test_scalar_only_integrand_raises():
    # integrands map node arrays to arrays; nothing loops over scalars
    with pytest.raises(TypeError):
        integrate(lambda x: math.exp(-x), 0.0, np.inf)
    with pytest.raises(ValueError, match=r"shape \(\) for nodes of shape \(15,\)"):
        integrate(lambda x: 1.0, 0.0, 1.0)


def test_nonconvergence_raised():
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-15, max_depth=3)
    with pytest.raises(NonConvergenceError):
        integrate(lambda u: 2.0 * np.sqrt(np.clip(1.0 - u * u, 0.0, None)),
                  0.0, 1.0, spec)


def test_nonfinite_integrand_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        integrate(lambda x: np.full_like(x, np.nan), 0.0, 1.0)


def test_divergent_integral_raises():
    # 1/x on (0, 1]: nodes are interior so every evaluation is finite, but
    # refinement can never meet tolerance
    with pytest.raises(NonConvergenceError):
        integrate(lambda x: 1.0 / x, 0.0, 1.0)


def test_panel_below_resolution_raises_before_sampling_the_edge():
    # a tail decaying barely faster than 1/w: the panels near the mapped
    # endpoint s = 1 shrink until a node would round onto it
    with pytest.raises(NonConvergenceError, match="below floating-point resolution"):
        integrate(lambda w: w / (w ** 2.001 + 1.0), 0.0, np.inf)


def test_infinite_lower_rejected():
    with pytest.raises(ValueError, match="lower limit"):
        integrate(lambda x: np.exp(x), -np.inf, 0.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_depth=0)


def test_panel_resum_matches_adaptive():
    f = lambda x: np.exp(-x) * np.sin(3 * x)
    value, err, panels = integrate_with_panels(f, 0.0, 4.0)
    again, err2 = resum_panels(f, panels)
    assert again == pytest.approx(value, abs=1e-14)
    assert err2 == pytest.approx(err, abs=1e-14)


def test_tolerance_scales_work():
    loose = QuadratureSpec(rel_tol=1e-3, abs_tol=1e-6)
    tight = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-13)
    truth = 1.0 - math.cos(1.0)
    v_loose, e_loose = integrate(lambda x: np.sin(x), 0.0, 1.0, loose)
    v_tight, e_tight = integrate(lambda x: np.sin(x), 0.0, 1.0, tight)
    assert abs(v_loose - truth) <= e_loose + 1e-14
    assert abs(v_tight - truth) <= e_tight + 1e-14
    assert e_tight <= e_loose + 1e-14
