"""Adaptive one-dimensional quadrature with an error ledger.

A 15-point Kronrod rule with its embedded 7-point Gauss rule drives panel
subdivision: the worst panel (largest |K15 - G7|) splits until the summed
error estimate meets max(abs_tol, rel_tol * |value|).  Semi-infinite upper
limits are mapped onto [0, 1) through u = a + s / (1 - s); the rule's nodes
are interior, so the endpoint is never sampled.

Integrands are called with a numpy array of nodes and must return the
matching array; any other shape raises ValueError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NonConvergenceError(RuntimeError):
    """The error estimate still exceeds tolerance at maximum refinement."""


@dataclass(frozen=True)
class QuadratureSpec:
    rel_tol: float = 1e-6
    abs_tol: float = 1e-10
    max_depth: int = 48

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")


DEFAULT_SPEC = QuadratureSpec()

_MAX_PANELS = 4096

# 15-point Kronrod extension of 7-point Gauss on [-1, 1].
_KRONROD_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_KRONROD_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_GAUSS_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])


def _panel(f, a, b):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    ys = np.asarray(f(mid + half * _KRONROD_NODES), dtype=float)
    if ys.shape != _KRONROD_NODES.shape:
        raise ValueError(f"integrand returned shape {ys.shape} for nodes of "
                         f"shape {_KRONROD_NODES.shape}; it must map a node "
                         "array to an array of the same shape")
    if not np.all(np.isfinite(ys)):
        raise ValueError(f"integrand returned non-finite values on [{a}, {b}]")
    k15 = half * float(_KRONROD_WEIGHTS @ ys)
    g7 = half * float(_GAUSS_WEIGHTS @ ys[1::2])
    return k15, abs(k15 - g7)


def _adaptive(f, lower, upper, spec: QuadratureSpec):
    """Worst-panel refinement; returns (value, error, panel edge list)."""
    val, err = _panel(f, lower, upper)
    panels = [(lower, upper, 0, val, err)]
    while True:
        total = math.fsum(p[3] for p in panels)
        total_err = math.fsum(p[4] for p in panels)
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        if total_err <= tol:
            return total, total_err, [(p[0], p[1]) for p in panels]
        worst = max(range(len(panels)), key=lambda i: panels[i][4])
        a, b, depth, _, _ = panels[worst]
        if depth >= spec.max_depth:
            raise NonConvergenceError(
                f"error {total_err:.3e} above tolerance {tol:.3e} at depth "
                f"{depth} on panel [{a}, {b}]")
        if len(panels) >= _MAX_PANELS:
            raise NonConvergenceError(
                f"panel budget {_MAX_PANELS} exhausted with error {total_err:.3e}")
        mid = 0.5 * (a + b)
        v1, e1 = _panel(f, a, mid)
        v2, e2 = _panel(f, mid, b)
        panels[worst] = (a, mid, depth + 1, v1, e1)
        panels.append((mid, b, depth + 1, v2, e2))


def integrate_with_panels(f, lower, upper, spec: QuadratureSpec | None = None):
    """Like :func:`integrate` over a finite range, also returning the refined
    panel edges so a perturbed integrand can be re-summed on the same grid."""
    if spec is None:
        spec = DEFAULT_SPEC
    return _adaptive(f, float(lower), float(upper), spec)


def resum_panels(f, panels):
    """GK15 sum of f over an existing panel set; returns (value, error)."""
    values, errors = [], []
    for a, b in panels:
        v, e = _panel(f, a, b)
        values.append(v)
        errors.append(e)
    return math.fsum(values), math.fsum(errors)


def integrate(f, lower, upper, spec: QuadratureSpec | None = None):
    """Integrate f over [lower, upper]; returns (value, error_bound).

    ``upper`` may be numpy.inf; ``lower`` must be finite.  The integrand may
    carry integrable endpoint singularities, which cost subdivision depth.
    Raises :class:`NonConvergenceError` when max_depth is exhausted with the
    error estimate above tolerance.
    """
    if spec is None:
        spec = DEFAULT_SPEC
    lower = float(lower)
    if not math.isfinite(lower):
        raise ValueError("lower limit must be finite")
    if math.isinf(upper):
        def mapped(s):
            return f(lower + s / (1.0 - s)) / (1.0 - s) ** 2

        return integrate(mapped, 0.0, 1.0, spec)
    upper = float(upper)
    if upper == lower:
        return 0.0, 0.0
    if upper < lower:
        value, err = integrate(f, upper, lower, spec)
        return -value, err
    value, err, _ = _adaptive(f, lower, upper, spec)
    return value, err
