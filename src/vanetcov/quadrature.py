"""Adaptive one-dimensional quadrature with an error ledger.

A 15-point Kronrod rule with its embedded 7-point Gauss rule drives panel
subdivision: the worst panel (largest |K15 - G7|) splits until the summed
error estimate meets max(abs_tol, rel_tol * |value|).  Ranges are finite and
forward, lower < upper: an infinite tail is the caller's to map onto a
bounded integrand.  The rule's nodes are interior, so the ends are never
sampled: a panel too narrow for its nodes to stay inside it in floating point
raises NonConvergenceError, as does a panel _MAX_DEPTH bisections deep whose
error is still above tolerance.

Integrands are called with a numpy array of nodes and must return the
matching array, or a (k, nodes) array for k integrals on one panel set; any
other shape raises ValueError.  A vector integrand's components each keep
their own fsum'd value and error and their own tolerance max(abs_tol,
rel_tol * |value|).  The panel with the largest error-to-tolerance ratio
splits, QUADPACK's worst-panel rule (Piessens et al., 1983) taken over
every component, and refinement stops only when every component meets its
tolerance.  Values and errors then come back as arrays of k.  A plain array
keeps its scalar dot products and sums, and a one-row vector integrand gives
the same value and error to the last bit.
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

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")


DEFAULT_SPEC = QuadratureSpec()

_MAX_DEPTH = 48
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
    xs = mid + half * _KRONROD_NODES
    if not (a < xs[0] and xs[-1] < b):
        # the outer nodes rounded onto the edges, where f may be singular
        raise NonConvergenceError(
            f"panel [{a}, {b}] is below floating-point resolution")
    ys = np.asarray(f(xs), dtype=float)
    if ys.ndim not in (1, 2) or ys.shape[-1:] != _KRONROD_NODES.shape:
        raise ValueError(f"integrand returned shape {ys.shape} for nodes of "
                         f"shape {_KRONROD_NODES.shape}; it must map a node "
                         "array to an array of the same shape, or to one row "
                         "per component")
    if not np.isfinite(ys).all():
        raise ValueError(f"integrand returned non-finite values on [{a}, {b}]")
    if ys.ndim == 1:
        k15 = half * float(_KRONROD_WEIGHTS @ ys)
        g7 = half * float(_GAUSS_WEIGHTS @ ys[1::2])
        return k15, abs(k15 - g7)
    k15 = half * (ys @ _KRONROD_WEIGHTS)
    g7 = half * (ys[:, 1::2] @ _GAUSS_WEIGHTS)
    return k15, np.abs(k15 - g7)


def _fsum(parts):
    """math.fsum over panels, component by component for a vector integrand."""
    if isinstance(parts[0], float):
        return math.fsum(parts)
    return np.array([math.fsum(c) for c in np.array(parts).T.tolist()])


def _adaptive(f, lower, upper, spec: QuadratureSpec):
    """Worst-panel refinement; returns (value, error, panel edge list).
    Raises ValueError unless both limits are finite and lower < upper."""
    lower, upper = float(lower), float(upper)
    if not -math.inf < lower < upper < math.inf:
        raise ValueError("integration needs finite limits with lower < upper, "
                         f"got lower limit {lower} and upper limit {upper}")
    val, err = _panel(f, lower, upper)
    panels = [(lower, upper, 0, val, err)]
    while True:
        total = _fsum([p[3] for p in panels])
        total_err = _fsum([p[4] for p in panels])
        if isinstance(total, float):
            tol = max(spec.abs_tol, spec.rel_tol * abs(total))
            done = total_err <= tol
            worst = max(range(len(panels)), key=lambda i: panels[i][4])
            report = total_err, tol
        else:
            # the worst panel of the component farthest above its tolerance
            # has the largest error-to-tolerance ratio
            tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total))
            done = np.all(total_err <= tol)
            errors = np.array([p[4] for p in panels])
            j = int(np.argmax(errors.max(axis=0) / tol))
            worst = int(np.argmax(errors[:, j]))
            report = total_err[j], tol[j]
        if done:
            return total, total_err, [(p[0], p[1]) for p in panels]
        a, b, depth, _, _ = panels[worst]
        if depth >= _MAX_DEPTH:
            raise NonConvergenceError(
                f"error {report[0]:.3e} above tolerance {report[1]:.3e} at depth "
                f"{depth} on panel [{a}, {b}]")
        if len(panels) >= _MAX_PANELS:
            raise NonConvergenceError(
                f"panel budget {_MAX_PANELS} exhausted with error {report[0]:.3e}")
        mid = 0.5 * (a + b)
        v1, e1 = _panel(f, a, mid)
        v2, e2 = _panel(f, mid, b)
        panels[worst] = (a, mid, depth + 1, v1, e1)
        panels.append((mid, b, depth + 1, v2, e2))


def integrate_with_panels(f, lower, upper, spec: QuadratureSpec = DEFAULT_SPEC):
    """Like :func:`integrate`, also returning the refined panel edges so a
    perturbed integrand can be re-summed on the same grid."""
    return _adaptive(f, lower, upper, spec)


def resum_panels(f, panels):
    """GK15 sum of f over an existing panel set; returns (value, error)."""
    values, errors = [], []
    for a, b in panels:
        v, e = _panel(f, a, b)
        values.append(v)
        errors.append(e)
    return _fsum(values), _fsum(errors)


def integrate(f, lower, upper, spec: QuadratureSpec = DEFAULT_SPEC):
    """Integrate f over the finite range [lower, upper], lower < upper;
    returns (value, error_bound).

    The integrand may carry integrable endpoint singularities, which cost
    subdivision depth.  Raises ValueError for an infinite, NaN or
    non-increasing pair of limits, and :class:`NonConvergenceError` when a
    panel _MAX_DEPTH bisections deep still has its error above tolerance, or
    when a panel is too narrow to place its nodes inside it.
    """
    return _adaptive(f, lower, upper, spec)[:2]
