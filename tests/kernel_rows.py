"""Explicit vehicle and base-station populations through the SIR kernel's
per-link step, ``simulator._resolve_link``, for tests that build their own
rows.

The kernel splits its rows by association before it resolves them: a row is
sidelink iff a vehicle lies within rho, its vehicles within rho are the ones
on its rho-chords (the serving candidates) and every other vehicle only
interferes.  ``resolve_rows`` makes that split on given squared distances and
resolves each link's rows as the kernel does, with one
``_resolve_link(cfg, m_far, chord, roads, bs)`` call per link: ``chord`` is
the sidelink rows' (starts, d2, fade) within rho, or None for the downlink
rows.  A downlink row with no base station is degenerate.
"""
import numpy as np

from vanetcov.simulator import (
    _received_power,
    _resolve_link,
    _segment_reduce,
    _segment_starts,
    _select_rows,
)


def _split(starts, inside, rows):
    """The entries of segments ``rows`` that ``inside`` marks: their starts
    per row and flat index."""
    row = np.repeat(np.arange(starts.size - 1), np.diff(starts))
    keep = np.flatnonzero(inside & np.isin(row, rows))
    counts = np.bincount(row[keep], minlength=starts.size - 1)[rows]
    return _segment_starts(counts), keep


def resolve_rows(cfg, m_far, veh_starts, d2_v, fade_v, bs_starts, d2_b, fade_b):
    """(is_sl, sir, degenerate, loss, interference) per row, from every
    row's vehicles and base stations (flat squared distances and fades
    grouped by row; the arrays are left as they are).  ``m_far`` is a scalar
    or one value per row."""
    n = veh_starts.size - 1
    inside = d2_v <= cfg.rho * cfg.rho
    row = np.repeat(np.arange(n), np.diff(veh_starts))
    is_sl = np.bincount(row[inside], minlength=n) > 0
    out = [is_sl, np.empty(n), np.zeros(n, dtype=bool), np.empty(n), np.empty(n)]
    for sl in (True, False):
        rows = np.flatnonzero(is_sl == sl)
        chord_starts, chord = _split(veh_starts, inside, rows)
        other_starts, other = _split(veh_starts, ~inside, rows)
        pw = _received_power(fade_v[other], d2_v[other], cfg.alpha)
        eta = cfg.p_v / cfg.p_b
        if eta != 1.0:
            pw *= eta
        roads = _segment_reduce(np.add, pw, other_starts, 0.0)
        b_starts, b = _select_rows(bs_starts, rows)
        sir, loss, interference = _resolve_link(
            cfg, m_far[rows] if np.ndim(m_far) else m_far,
            (chord_starts, d2_v[chord], fade_v[chord]) if sl else None, roads,
            (b_starts, d2_b[b], fade_b[b]))
        degenerate = np.zeros(rows.size, dtype=bool) if sl else np.diff(b_starts) == 0
        for field, value in zip(out[1:], (sir, degenerate, loss, interference)):
            field[rows] = value
    return tuple(out)
