import math

import numpy as np
import pytest

from vanetcov import quadrature
from vanetcov.quadrature import (
    NonConvergenceError,
    QuadratureSpec,
    integrate,
    integrate_segments,
    integrate_with_panels,
    resum_panels,
)


def test_constant():
    value, err = integrate(lambda x: np.ones_like(x), 0.0, 1.0)
    assert abs(value - 1.0) <= max(err, 1e-12)


def test_quarter_circle_endpoint_singularity():
    # same sqrt(rho^2 - u^2) pattern the association integral carries
    value, err = integrate(lambda u: 2.0 * np.sqrt(np.clip(1.0 - u * u, 0.0, None)),
                           0.0, 1.0)
    assert abs(value - math.pi / 2) <= err
    assert err < 2e-6


def test_polynomial_is_near_exact():
    value, _ = integrate(lambda x: 7 * x ** 6, 0.0, 1.0)
    assert value == pytest.approx(1.0, abs=1e-13)


def test_error_bound_is_honest():
    cases = [
        (lambda x: np.sin(x), 0.0, math.pi, 2.0),
        (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4),
    ]
    for f, a, b, truth in cases:
        value, err = integrate(f, a, b)
        assert abs(value - truth) <= err + 1e-14


@pytest.mark.parametrize("integrator", [integrate, integrate_with_panels])
@pytest.mark.parametrize("lower, upper", [
    (0.0, np.inf), (-np.inf, 0.0), (0.0, np.nan), (1.0, 0.0), (0.0, 0.0)])
def test_limits_must_be_finite_and_increasing(integrator, lower, upper):
    # ranges are finite and forward; anything else is refused before any
    # panel is formed, with both limits named
    def f(x):
        raise AssertionError("the integrand must not be called")
    with pytest.raises(ValueError, match=f"lower limit {lower} and upper limit {upper}"):
        integrator(f, lower, upper)


def test_scalar_only_integrand_raises():
    # integrands map node arrays to arrays; nothing loops over scalars
    with pytest.raises(TypeError):
        integrate(lambda x: math.exp(-x), 0.0, 1.0)
    with pytest.raises(ValueError, match=r"shape \(\) for nodes of shape \(15,\)"):
        integrate(lambda x: 1.0, 0.0, 1.0)


def test_nonconvergence_raised():
    # 1/x: the panel at 0 splits until it is as deep as refinement goes
    with pytest.raises(NonConvergenceError, match="at depth 48"):
        integrate(lambda x: 1.0 / x, 0.0, 1.0)


def test_nonfinite_integrand_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        integrate(lambda x: np.full_like(x, np.nan), 0.0, 1.0)


def test_divergent_integral_raises():
    # 1/x on (0, 1]: nodes are interior so every evaluation is finite, but
    # refinement can never meet tolerance
    with pytest.raises(NonConvergenceError):
        integrate(lambda x: 1.0 / x, 0.0, 1.0)


def test_panel_below_resolution_raises_before_sampling_the_edge():
    # a singularity barely too strong to integrate: the panels next to
    # x = 1 shrink until a node would round onto it
    with pytest.raises(NonConvergenceError, match="below floating-point resolution"):
        integrate(lambda x: (1.0 - x) ** -1.001, 0.0, 1.0)


def test_infinite_lower_rejected():
    with pytest.raises(ValueError, match="lower limit"):
        integrate(lambda x: np.exp(x), -np.inf, 0.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)


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


def _three(fns):
    """A (3, 15) integrand: one row per component."""
    return lambda x: np.stack([fn(x) for fn in fns])


@pytest.mark.parametrize("fns, lower, upper, truths", [
    ((np.sin, lambda x: x * x, lambda x: 1.0 / (1.0 + x)), 0.0, math.pi,
     (2.0, math.pi ** 3 / 3.0, math.log1p(math.pi))),
])
def test_vector_integrand_meets_each_component_error(fns, lower, upper, truths):
    spec = QuadratureSpec()
    value, err = integrate(_three(fns), lower, upper, spec)
    assert value.shape == err.shape == (3,)
    for v, e, truth in zip(value, err, truths):
        assert abs(v - truth) <= e + 1e-14
        assert e <= max(spec.abs_tol, spec.rel_tol * abs(v))


@pytest.mark.parametrize("f, lower, upper", [
    (lambda x: np.exp(-x) * np.sin(3 * x), 0.0, 4.0),
    (lambda u: 2.0 * np.sqrt(np.clip(1.0 - u * u, 0.0, None)), 0.0, 1.0),
])
def test_one_component_vector_matches_scalar_bit_for_bit(f, lower, upper):
    value, err = integrate(f, lower, upper)
    vec_value, vec_err = integrate(lambda x: f(x)[None, :], lower, upper)
    assert (vec_value.tolist(), vec_err.tolist()) == ([value], [err])


def test_vector_panel_resum_matches_adaptive():
    f = _three((lambda x: np.exp(-x) * np.sin(3 * x), np.cos, lambda x: x ** 4))
    value, err, panels = integrate_with_panels(f, 0.0, 4.0)
    again, err2 = resum_panels(f, panels)
    np.testing.assert_array_equal(again, value)
    np.testing.assert_array_equal(err2, err)


def test_vector_integrand_of_the_wrong_shape_raises():
    with pytest.raises(ValueError, match=r"shape \(2, 14\) for nodes of shape \(15,\)"):
        integrate(lambda x: np.ones((2, 14)), 0.0, 1.0)


def test_vector_integrand_with_one_nonfinite_component_raises():
    def f(x):
        out = np.stack([np.sin(x), np.cos(x)])
        out[1, 3] = np.nan
        return out
    with pytest.raises(ValueError, match="non-finite"):
        integrate(f, 0.0, 1.0)


DYADIC = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0]


@pytest.mark.parametrize("f", [
    np.sqrt,
    lambda x: np.exp(-x),
    lambda x: 1.0 / (1.0 + x * x),
    lambda x: np.exp(-x) * np.sin(3.0 * x),
], ids=["sqrt", "exp", "lorentz", "damped_sine"])
def test_segments_refine_each_segment_as_alone_bit_for_bit(f):
    calls = []

    def counted(x):
        calls.append(x.size)
        return f(x)
    got = integrate_segments(counted, DYADIC)
    want = [integrate_with_panels(f, a, b) for a, b in zip(DYADIC, DYADIC[1:])]
    assert got == want
    # one call per round: every segment's whole range, then the two halves
    # of each segment still above tolerance
    splits = [len(panels) - 1 for _, _, panels in want]
    assert len(calls) == 1 + max(splits)
    assert sum(calls) == 15 * sum(2 * s + 1 for s in splits)
    assert calls[0] == 15 * (len(DYADIC) - 1)


@pytest.mark.parametrize("f, edges, lone", [
    # 1/x: the panel at 0 splits until it is as deep as refinement goes
    (lambda x: 1.0 / x, [0.0, 1.0, 2.0], (0.0, 1.0)),
    # a node would round onto the singular edge x = 1
    (lambda x: np.abs(1.0 - x) ** -1.001, [0.0, 0.5, 1.0], (0.5, 1.0)),
], ids=["depth", "resolution"])
def test_segments_fail_as_the_segment_alone(f, edges, lone):
    with pytest.raises(NonConvergenceError) as alone:
        integrate_with_panels(f, *lone)
    with pytest.raises(NonConvergenceError) as batched:
        integrate_segments(f, edges)
    assert str(batched.value) == str(alone.value)


def test_segments_exhaust_the_panel_budget_as_the_segment_alone(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 64)
    # a line on [0, 1], settled in round 0; no panel set resolves [1, 2]
    f = lambda x: np.where(x < 1.0, x, np.sin(1e4 * x))
    with pytest.raises(NonConvergenceError, match="panel budget 64") as alone:
        integrate_with_panels(f, 1.0, 2.0)
    with pytest.raises(NonConvergenceError) as batched:
        integrate_segments(f, [0.0, 1.0, 2.0])
    assert str(batched.value) == str(alone.value)


def test_segments_take_increasing_finite_edges_and_vector_integrands():
    with pytest.raises(ValueError, match="lower limit 1.0 and upper limit 1.0"):
        integrate_segments(np.exp, [0.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="upper limit inf"):
        integrate_segments(np.exp, [0.0, np.inf])
    with pytest.raises(ValueError, match="at least two edges"):
        integrate_segments(np.exp, [0.0])
    f = _three((np.sqrt, np.cos, lambda x: np.exp(-x) * np.sin(3.0 * x)))
    got = integrate_segments(f, [0.0, 1.0, 2.0])
    want = [_reference(f, a, b) for a, b in [(0.0, 1.0), (1.0, 2.0)]]
    assert _bits(got) == _bits(want)


def _reference_panel(f, a, b):
    xs, half = quadrature._place(a, b)
    return quadrature._sums(np.asarray(f(xs), dtype=float), half, a, b)


def _reference(f, lower, upper, spec=QuadratureSpec()):
    """Worst-panel refinement with one integrand call per panel, on the
    engine's own ledger; returns (value, error, panel edge list)."""
    panels = quadrature._Panels(lower, upper, *_reference_panel(f, lower, upper))
    while (halves := panels.split(spec)) is not None:
        panels.store(*[_reference_panel(f, a, b) for a, b in halves])
    return panels.total, panels.error, list(panels.edges)


def _bits(result):
    """A nested result with every array turned into a list, for == tests."""
    if isinstance(result, (list, tuple)):
        return [_bits(part) for part in result]
    return result.tolist() if isinstance(result, np.ndarray) else result


REFERENCE_CASES = [
    (lambda x: np.ones_like(x), 0.0, 1.0, QuadratureSpec()),
    (lambda u: 2.0 * np.sqrt(np.clip(1.0 - u * u, 0.0, None)), 0.0, 1.0, QuadratureSpec()),
    (lambda x: 7 * x ** 6, 0.0, 1.0, QuadratureSpec()),
    (np.sin, 0.0, math.pi, QuadratureSpec()),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, QuadratureSpec()),
    (lambda x: np.exp(-x) * np.sin(3 * x), 0.0, 4.0, QuadratureSpec()),
    (np.sin, 0.0, 1.0, QuadratureSpec(rel_tol=1e-3, abs_tol=1e-6)),
    (np.sin, 0.0, 1.0, QuadratureSpec(rel_tol=1e-9, abs_tol=1e-13)),
    (_three((np.sin, lambda x: x * x, lambda x: 1.0 / (1.0 + x))), 0.0, math.pi,
     QuadratureSpec()),
    (_three((lambda x: np.exp(-x) * np.sin(3 * x), np.cos, lambda x: x ** 4)), 0.0, 4.0,
     QuadratureSpec()),
]


@pytest.mark.parametrize("f, lower, upper, spec", REFERENCE_CASES,
                         ids=["one", "circle", "x6", "sin", "lorentz", "damped_sine",
                              "loose", "tight", "three", "three_damped"])
def test_rounds_match_the_per_panel_loop_bit_for_bit(f, lower, upper, spec):
    want = _reference(f, lower, upper, spec)
    assert _bits(integrate_with_panels(f, lower, upper, spec)) == _bits(want)
    assert _bits(integrate(f, lower, upper, spec)) == _bits(want[:2])


@pytest.mark.parametrize("f, lower, upper, max_panels", [
    (lambda x: 1.0 / x, 0.0, 1.0, quadrature._MAX_PANELS),
    (lambda x: (1.0 - x) ** -1.001, 0.0, 1.0, quadrature._MAX_PANELS),
    (lambda x: np.sin(1e4 * x), 1.0, 2.0, 64),
], ids=["depth", "resolution", "budget"])
def test_rounds_fail_as_the_per_panel_loop(monkeypatch, f, lower, upper, max_panels):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", max_panels)
    with pytest.raises(NonConvergenceError) as reference:
        _reference(f, lower, upper)
    for integrator in (integrate, integrate_with_panels):
        with pytest.raises(NonConvergenceError) as rounds:
            integrator(f, lower, upper)
        assert str(rounds.value) == str(reference.value)


@pytest.mark.parametrize("f", [np.sqrt, _three((np.sin, np.sqrt, np.exp))],
                         ids=["plain", "vector"])
def test_one_range_calls_the_integrand_once_per_round(f):
    # round 0 is the whole range, 15 nodes; every later round is the two
    # halves of the worst panel, 30 nodes
    calls = []

    def counted(x):
        calls.append(x.size)
        return f(x)
    _, _, panels = integrate_with_panels(counted, 0.0, 2.0)
    splits = len(panels) - 1
    assert splits > 0
    assert calls == [15] + [30] * splits
