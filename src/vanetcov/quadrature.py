"""Adaptive one-dimensional quadrature with an error ledger, in rounds.

A 15-point Kronrod rule with its embedded 7-point Gauss rule drives panel
subdivision: the worst panel (largest |K15 - G7|) splits until the summed
error estimate meets max(abs_tol, rel_tol * |value|).  Ranges are finite and
forward, lower < upper: an infinite tail is the caller's to map onto a
bounded integrand.  The rule's nodes are interior, so the ends are never
sampled: a panel too narrow for its nodes to stay inside it in floating point
raises NonConvergenceError, as does a panel _MAX_DEPTH bisections deep whose
error is still above tolerance.

One engine, :func:`integrate_segments`, refines one or several adjacent
ranges, each to its own tolerance, and evaluates in rounds: round 0 is every
range whole, and each later round is the two halves of the worst panel of
each range still above tolerance.  A round is one integrand call on the
round's nodes, 15 per panel, so an integrand whose calls cost more than its
nodes (a nested solve per call) is called once per round, not once per
panel.  :func:`integrate` and :func:`integrate_with_panels` are its one-range
case; a failing range raises what it would raise alone, and of several, the
first to fail by round.

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
# a vector integrand's panel arrays start with this many columns and double
_PANEL_BLOCK = 64

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


def _place(a, b):
    """The 15 Kronrod nodes of panel [a, b] and its half-width."""
    half = 0.5 * (b - a)
    xs = 0.5 * (a + b) + half * _KRONROD_NODES
    if not (a < xs[0] and xs[-1] < b):
        # the outer nodes rounded onto the edges, where f may be singular
        raise NonConvergenceError(
            f"panel [{a}, {b}] is below floating-point resolution")
    return xs, half


def _sums(ys, half, a, b):
    """The GK15 value and |K15 - G7| of one panel's node values."""
    if not np.isfinite(ys).all():
        raise ValueError(f"integrand returned non-finite values on [{a}, {b}]")
    if ys.ndim == 1:
        k15 = half * float(_KRONROD_WEIGHTS @ ys)
        g7 = half * float(_GAUSS_WEIGHTS @ ys[1::2])
        return k15, abs(k15 - g7)
    k15 = half * (ys @ _KRONROD_WEIGHTS)
    g7 = half * (ys[:, 1::2] @ _GAUSS_WEIGHTS)
    return k15, np.abs(k15 - g7)


def _evaluate(f, spans):
    """f called once at the Kronrod nodes of every panel [a, b] of spans;
    returns each panel's GK15 value and |K15 - G7|.  f must return an array
    of the nodes' shape or one row per component; any other shape raises
    ValueError."""
    placed = [_place(a, b) for a, b in spans]
    xs = np.concatenate([nodes for nodes, _ in placed])
    ys = np.asarray(f(xs), dtype=float)
    if ys.ndim not in (1, 2) or ys.shape[-1:] != xs.shape:
        raise ValueError(f"integrand returned shape {ys.shape} for nodes of "
                         f"shape {xs.shape}; it must map a node "
                         "array to an array of the same shape, or to one row "
                         "per component")
    ys = ys.reshape(ys.shape[:-1] + (len(spans), _KRONROD_NODES.size))
    return [_sums(ys[..., i, :], half, a, b)
            for i, ((_, half), (a, b)) in enumerate(zip(placed, spans))]


def _fsum(parts):
    """math.fsum over panels, component by component for a vector integrand."""
    if isinstance(parts[0], float):
        return math.fsum(parts)
    return np.array([math.fsum(c) for c in np.array(parts).T.tolist()])


class _Panels:
    """One range under worst-panel refinement: each panel's edges and depth,
    and its value and error, which math.fsum sums exactly at every step.  A
    split panel's entries change in place and its right half goes last.  A
    plain integrand keeps two lists and splits the first panel of largest
    error; a vector integrand keeps two (components, panels) arrays of
    _PANEL_BLOCK columns, doubled when full (one column per panel up to the
    budget, 3.4 MB at 105 components, raised an analytic sweep's peak RSS
    by 1.6 MB)."""

    def __init__(self, lower, upper, value, error):
        self.edges, self.depths = [(lower, upper)], [0]
        self.scalar = isinstance(value, float)
        if self.scalar:
            self.values, self.errors = [], []
        else:
            self.values = np.empty((value.size, _PANEL_BLOCK))
            self.errors = np.empty_like(self.values)
        self._put(0, value, error)

    def _put(self, slot, value, error):
        if self.scalar:
            # replaces the entry at slot, or appends one at the end
            self.values[slot:slot + 1] = (value,)
            self.errors[slot:slot + 1] = (error,)
            return
        if slot == self.values.shape[1]:
            self.values = np.concatenate([self.values, np.empty_like(self.values)], axis=1)
            self.errors = np.concatenate([self.errors, np.empty_like(self.errors)], axis=1)
        self.values[:, slot] = value
        self.errors[:, slot] = error

    def split(self, spec):
        """The two halves of the worst panel, or None once every component
        meets its tolerance; ``total`` and ``error`` then hold the sums.
        Raises NonConvergenceError at the depth limit or the panel budget."""
        n = len(self.depths)
        if self.scalar:
            self.total, self.error = math.fsum(self.values), math.fsum(self.errors)
            tol = max(spec.abs_tol, spec.rel_tol * abs(self.total))
            if self.error <= tol:
                return None
            worst = self.errors.index(max(self.errors))
            report = self.error, tol
        else:
            errors = self.errors[:, :n]
            self.total = np.array([math.fsum(row) for row in self.values[:, :n].tolist()])
            self.error = np.array([math.fsum(row) for row in errors.tolist()])
            tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(self.total))
            if np.all(self.error <= tol):
                return None
            # the worst panel of the component farthest above its tolerance
            # has the largest error-to-tolerance ratio
            j = int(np.argmax(errors.max(axis=1) / tol))
            worst = int(np.argmax(errors[j]))
            report = self.error[j], tol[j]
        (a, b), depth = self.edges[worst], self.depths[worst]
        if depth >= _MAX_DEPTH:
            raise NonConvergenceError(
                f"error {report[0]:.3e} above tolerance {report[1]:.3e} at depth "
                f"{depth} on panel [{a}, {b}]")
        if n >= _MAX_PANELS:
            raise NonConvergenceError(
                f"panel budget {_MAX_PANELS} exhausted with error {report[0]:.3e}")
        mid = 0.5 * (a + b)
        self.edges[worst], self.depths[worst] = (a, mid), depth + 1
        self.edges.append((mid, b))
        self.depths.append(depth + 1)
        self.worst = worst
        return (a, mid), (mid, b)

    def store(self, left, right):
        """The (value, error) of the last split's two halves."""
        self._put(self.worst, *left)
        self._put(len(self.depths) - 1, *right)


def integrate_segments(f, edges, spec: QuadratureSpec = DEFAULT_SPEC):
    """Integrate f over each segment [edges[i], edges[i + 1]]; returns one
    (value, error, panel edge list) per segment.

    Each segment refines to its own tolerance, and its panels, value and
    error do not depend on the other segments.  A failing segment raises the
    error it would raise alone; with several, the first to fail by round.
    Round 0 is every segment's whole range; each later round is the two
    halves of each open segment's worst panel.  A round's panels go to f as
    one flat array of 15 nodes per panel, and f returns the array of its
    values or one row per component.  Raises ValueError unless every edge is
    finite and the edges increase.
    """
    edges = [float(e) for e in edges]
    if len(edges) < 2:
        raise ValueError(f"integrate_segments needs at least two edges, got {edges}")
    todo = list(zip(edges, edges[1:]))
    for lower, upper in todo:
        if not -math.inf < lower < upper < math.inf:
            raise ValueError("integration needs finite limits with lower < upper, "
                             f"got lower limit {lower} and upper limit {upper}")
    segments = refining = [_Panels(a, b, *s) for (a, b), s in zip(todo, _evaluate(f, todo))]
    while True:
        todo, still = [], []
        for panels in refining:
            halves = panels.split(spec)
            if halves is not None:
                todo.extend(halves)
                still.append(panels)
        if not still:
            return [(p.total, p.error, list(p.edges)) for p in segments]
        refining, sums = still, _evaluate(f, todo)
        for i, panels in enumerate(refining):
            panels.store(sums[2 * i], sums[2 * i + 1])


def integrate_with_panels(f, lower, upper, spec: QuadratureSpec = DEFAULT_SPEC):
    """Like :func:`integrate`, also returning the refined panel edges so a
    perturbed integrand can be re-summed on the same grid."""
    return integrate_segments(f, (lower, upper), spec)[0]


def resum_panels(f, panels):
    """GK15 sum of f over an existing panel set, one call per panel; returns
    (value, error)."""
    values, errors = zip(*[_evaluate(f, [span])[0] for span in panels])
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
    return integrate_with_panels(f, lower, upper, spec)[:2]
