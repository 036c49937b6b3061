"""The exact cell engine: polygons against scipy's Voronoi diagram, the
inside-polygon sampler, and reproducibility of the cell estimators."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, Voronoi
from scipy.stats import chisquare

from vanetcov import NetworkConfig, simulator, validate
from vanetcov.simulator import (
    BATCH_SIZE,
    SimPlan,
    _fan_areas,
    _in_vehicle_region,
    _points_in_cells,
    _roads_near,
    _voronoi_cells,
    estimate_voronoi_area_moment,
    estimate_zero_cell_areas,
    estimate_zero_cell_load,
)

LAMBDA = 0.25   # start square half-side 16 / sqrt(LAMBDA) = 32

REF_CFG = validate(NetworkConfig(lambda_l=5.0, mu=5.0, lambda_b=5.0,
                                 lambda_u=200.0, rho=0.05, alpha=3.0,
                                 p_b=1.0, p_v=1.0, epsilon=1.0))


class _Arrivals:
    """Stands in for a Generator: hands out the arrival increments and angles
    of an explicit point set in call order, then an infinitely far arrival."""

    def __init__(self, increments, angles):
        self.increments, self.angles = list(increments), list(angles)
        self.draws = 0

    def standard_exponential(self, size):
        assert size == 1
        self.draws += 1
        return np.array([self.increments.pop(0) if self.increments else math.inf])

    def uniform(self, low, high, size):
        assert (low, high, size) == (0.0, 2.0 * math.pi, 1)
        return np.array([self.angles.pop(0)])


def _engine_area(points, zero_cell):
    """Area of the engine's cell for a point set, fed nearest-first.

    The zero cell's nucleus is the point nearest the origin; the engine puts
    it on the positive x axis, so the set is rotated to match.
    """
    pts = np.asarray(points, float)
    pts = pts[np.argsort(np.hypot(pts[:, 0], pts[:, 1]), kind="stable")]
    if zero_cell:
        phi = math.atan2(pts[0, 1], pts[0, 0])
        rot = np.array([[math.cos(phi), math.sin(phi)], [-math.sin(phi), math.cos(phi)]])
        pts = pts @ rot.T
    t = math.pi * LAMBDA * (pts[:, 0] ** 2 + pts[:, 1] ** 2)
    angles = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * math.pi)
    rng = _Arrivals(np.diff(t, prepend=0.0), angles[1:] if zero_cell else angles)
    q, m = _voronoi_cells(LAMBDA, 1, rng, zero_cell)
    return float(_fan_areas(q, m).sum()), rng.draws


def _scipy_area(points, nucleus):
    """Area of the Voronoi cell of points[nucleus] among all points."""
    vor = Voronoi(np.asarray(points, float))
    region = vor.regions[vor.point_region[nucleus]]
    assert region and -1 not in region
    return ConvexHull(vor.vertices[region]).volume


# a ring far outside the cluster keeps every cluster point's cell bounded
_RING = [(12.0 * math.cos(2 * math.pi * k / 24), 12.0 * math.sin(2 * math.pi * k / 24))
         for k in range(24)]
_cluster = st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                    min_size=1, max_size=25)
# the origin, the typical user, anywhere from inside the cluster to beyond it
_origin = st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))


def _separated(points, eps=1e-3):
    p = np.asarray(points)
    d = np.hypot(*(p[:, None, :] - p[None, :, :]).transpose(2, 0, 1))
    return bool(np.all(d[np.triu_indices(len(p), 1)] > eps))


@settings(max_examples=200, deadline=None)
@given(cluster=_cluster, origin=_origin)
def test_typical_cell_matches_scipy(cluster, origin):
    # the nucleus sits at the origin; every other point competes
    pts = np.array(cluster + _RING) - np.array(origin)
    assume(_separated(np.vstack([pts, [[0.0, 0.0]]])))
    area, _ = _engine_area(pts, zero_cell=False)
    want = _scipy_area(np.vstack([[[0.0, 0.0]], pts]), 0)
    assert area == pytest.approx(want, rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(cluster=_cluster, origin=_origin)
def test_zero_cell_matches_scipy(cluster, origin):
    # the nucleus is the point nearest the origin, generally well away from it
    pts = np.array(cluster + _RING) - np.array(origin)
    assume(_separated(pts))
    d = np.sort(np.hypot(pts[:, 0], pts[:, 1]))
    assume(d[1] - d[0] > 1e-6)
    nucleus = int(np.argmin(np.hypot(pts[:, 0], pts[:, 1])))
    assume(nucleus < len(cluster))
    area, _ = _engine_area(pts, zero_cell=True)
    assert area == pytest.approx(_scipy_area(pts, nucleus), rel=1e-9)


@pytest.mark.parametrize("zero_cell", [False, True])
def test_cell_keeps_drawing_while_open(zero_cell):
    # the first four competitors all lie to the right of the nucleus, so the
    # cell is still open on the left and must draw the ring as well
    nucleus = [(0.3, 0.0)] if zero_cell else []
    right = [(1.0, 0.1), (1.1, -0.4), (1.2, 0.5), (1.3, -0.2)]
    ring = [(3.0 * math.cos(2 * math.pi * k / 7 + 0.1),
             3.0 * math.sin(2 * math.pi * k / 7 + 0.1)) for k in range(7)]
    pts = np.array(nucleus + right + ring)
    area, draws = _engine_area(pts, zero_cell)
    if zero_cell:
        want = _scipy_area(pts, 0)
    else:
        want = _scipy_area(np.vstack([[[0.0, 0.0]], pts]), 0)
    assert area == pytest.approx(want, rel=1e-9)
    assert draws > len(nucleus) + len(right) + 1


def test_zero_cell_far_competitor_still_cuts():
    # nucleus 1 from the origin, farthest vertex between 0.75 and 1.25 from
    # the nucleus: the arrival at 2.5 lies beyond twice that distance from
    # the origin, but not from the nucleus, and its bisector x = 1.75 cuts
    # the tip at x = 1.8
    ring = [(6.0 * math.cos(2 * math.pi * k / 8 + 0.2),
             6.0 * math.sin(2 * math.pi * k / 8 + 0.2)) for k in range(8)]
    pts = np.array([(1.0, 0.0), (1.8, 0.8), (1.8, -0.8), (2.5, 0.0), (0.0, 1.2),
                    (0.0, -1.2), (-1.1, 0.3), (-1.1, -0.3)] + ring)
    area, _ = _engine_area(pts, zero_cell=True)
    assert area == pytest.approx(_scipy_area(pts, 0), rel=1e-9)


def test_zero_cell_closes_at_the_sharp_bound():
    # nucleus (1, 0), a ring of eight competitors about 1.5 from the origin
    # that bounds the cell, then four arrivals at 2.3 to 3.2.  Over the
    # cell's vertices x, max |x| + |x - nucleus| is about 2.06, so the first
    # of the four closes the cell: it is drawn but never clipped.  The looser
    # rule, distance from the nucleus above twice the farthest vertex's
    # (about 1.28), would clip all four and draw the infinite arrival too
    ring = [((1.5 + 0.01 * k) * math.cos(2 * math.pi * k / 8 + 0.1),
             (1.5 + 0.01 * k) * math.sin(2 * math.pi * k / 8 + 0.1)) for k in range(8)]
    outer = [(r * math.cos(2.0 + r), r * math.sin(2.0 + r)) for r in (2.3, 2.6, 2.9, 3.2)]
    pts = np.array([(1.0, 0.0)] + ring + outer)
    vor = Voronoi(pts)
    x = vor.vertices[vor.regions[vor.point_region[0]]]
    to_nucleus = np.hypot(x[:, 0] - 1.0, x[:, 1])
    sharp = (np.hypot(x[:, 0], x[:, 1]) + to_nucleus).max()
    assert sharp < 2.3 and 3.2 - 1.0 <= 2.0 * to_nucleus.max()
    area, draws = _engine_area(pts, zero_cell=True)
    # the nucleus, the ring and the first outer arrival; the looser rule
    # would draw 2 + 8 + 4, the last being the infinite arrival
    assert draws == 1 + len(ring) + 1
    assert draws < 2 + len(ring) + len(outer)
    assert area == pytest.approx(_scipy_area(pts, 0), rel=1e-9)


def test_cell_beyond_start_square_raises(monkeypatch):
    monkeypatch.setattr(simulator, "CELL_SQUARE_HALF_SIDE", 0.05)
    with pytest.raises(RuntimeError, match="start square"):
        _voronoi_cells(1.0, 64, np.random.default_rng(3), zero_cell=False)


# two convex polygons around their nuclei, the second padded by one column
_POLYGONS = np.array([
    [[1.0, -0.5], [1.5, 0.8], [0.2, 1.6], [-1.1, 0.9], [-1.3, -0.7], [0.1, -1.2]],
    [[0.6, -0.4], [0.9, 0.3], [-0.2, 0.8], [-0.7, -0.1], [0.1, -0.9], [0.0, 0.0]],
])
_COUNTS = np.array([6, 5])


def _edges(q, m):
    a = q[:m]
    return a, np.roll(a, -1, axis=0)


def test_points_in_cells_satisfy_every_half_plane():
    tri = _fan_areas(_POLYGONS, _COUNTS)
    counts = np.array([20_000, 30_000])
    pts = _points_in_cells(_POLYGONS, _COUNTS, tri, counts, np.random.default_rng(5))
    assert pts.shape == (50_000, 2)
    for i, sl in enumerate((slice(0, 20_000), slice(20_000, 50_000))):
        a, b = _edges(_POLYGONS[i], _COUNTS[i])
        e, p = b - a, pts[sl]
        cross = (e[:, 0, None] * (p[:, 1] - a[:, 1, None])
                 - e[:, 1, None] * (p[:, 0] - a[:, 0, None]))
        assert np.all(cross >= -1e-12)


def test_points_in_cells_uniform_over_fan_triangles():
    # cells: fan triangle k of row 0 times four bands of s = u + v, the
    # relative distance from the nucleus to the outer edge (P(s <= x) = x^2)
    q, m = _POLYGONS[:1], _COUNTS[:1]
    tri = _fan_areas(q, m)
    n = 60_000
    pts = _points_in_cells(q, m, tri, np.array([n]), np.random.default_rng(11))
    a, b = _edges(q[0], m[0])
    cross = lambda u, v: u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    in_tri = (cross(a[:, None], pts[None]) >= 0) & (cross(pts[None], b[:, None]) >= 0)
    k = np.argmax(in_tri, axis=0)
    assert np.all(in_tri.any(axis=0))
    s = cross(b[k] - a[k], pts) / cross(b[k] - a[k], a[k])
    band = np.searchsorted([0.5, math.sqrt(0.5), math.sqrt(0.75)], s)
    observed = np.bincount(k * 4 + band, minlength=4 * m[0])
    expected = np.repeat(tri[0, :m[0]] / tri[0].sum() / 4.0, 4) * n
    assert chisquare(observed, expected).pvalue > 1e-3


class _Recorder:
    """Passes calls through to a Generator and keeps every result."""

    def __init__(self, rng):
        self.rng, self.draws = rng, []

    def __getattr__(self, name):
        def call(*args, **kwargs):
            out = getattr(self.rng, name)(*args, **kwargs)
            self.draws.append(np.copy(out))  # the caller may scale it in place
            return out
        return call


def test_vehicle_region_matches_brute_force():
    # every point against every vehicle drawn for its row, kept road or not
    cfg = validate(replace(REF_CFG, rho=0.2))
    rng = np.random.default_rng(17)
    q, m = _voronoi_cells(cfg.lambda_b, 40, rng, zero_cell=True)
    rec = _Recorder(rng)
    roads = _roads_near(cfg, q, rec)
    counts = np.full(40, 500)
    points = _points_in_cells(q, m, _fan_areas(q, m), counts, rng)
    row = np.repeat(np.arange(40), counts)
    near = _in_vehicle_region(points, row, roads, cfg.rho)

    # the roads hitting the disk of radius (farthest vertex + rho): counts,
    # displacement and angle per road, vehicle counts, positions along roads
    n_lines, r, theta, n_veh, t_frac = rec.draws
    radius = np.sqrt((q ** 2).sum(axis=2).max(axis=1)) + cfg.rho
    line_row = np.repeat(np.arange(40), n_lines)
    R = radius[line_row]
    t = t_frac * np.repeat(np.sqrt(R ** 2 - r ** 2), n_veh)
    r, theta, veh_row = (np.repeat(a, n_veh) for a in (r, theta, line_row))
    xy = np.column_stack([-r * np.sin(theta) + t * np.cos(theta),
                          r * np.cos(theta) + t * np.sin(theta)])
    d_min = np.full(row.size, np.inf)
    for i in range(40):
        mine = row == i
        d = points[mine][:, None, :] - xy[veh_row == i][None, :, :]
        d_min[mine] = np.sqrt((d ** 2).sum(axis=2).min(axis=1, initial=np.inf))
    boundary = np.abs(d_min - cfg.rho) < 1e-12
    assert np.array_equal(near[~boundary], (d_min <= cfg.rho)[~boundary])
    assert 0.1 < near.mean() < 0.9


def _in_vehicle_region_pairs(points, row, roads, rho):
    """The vehicle-region test as every point-road pair at once: the
    reference the per-slot loop must match bit for bit."""
    starts, nx, ny, r, road, vehicles = roads
    count = np.diff(starts)[row]
    owner = np.repeat(np.arange(count.size), count)
    pair_start = np.zeros(count.size + 1, dtype=np.int64)
    np.cumsum(count, out=pair_start[1:])
    line = np.arange(pair_start[-1]) + np.repeat(starts[row] - pair_start[:-1], count)
    px, py = points[:, 0], points[:, 1]
    delta = px.take(owner) * nx.take(line) + py.take(owner) * ny.take(line) - r.take(line)
    close = np.flatnonzero(np.abs(delta) <= rho)
    pt, line, delta = owner[close], line[close], delta[close]
    along = px.take(pt) * ny.take(line) - py.take(pt) * nx.take(line)
    w = np.sqrt(rho * rho - delta * delta)
    road = road.take(line)
    first = np.searchsorted(vehicles, road + 1j * (along - w))
    found = vehicles[np.minimum(first, vehicles.size - 1)]
    hit = first < vehicles.size
    hit &= (found.real == road) & (found.imag <= along + w)
    near = np.zeros(points.shape[0], dtype=bool)
    near[pt[hit]] = True
    return near


@pytest.mark.parametrize("lambda_l", [5.0, 0.5])
@pytest.mark.parametrize("rho", [0.05, 0.15, 0.2])
def test_vehicle_region_matches_the_pair_formula_bit_for_bit(monkeypatch, rho, lambda_l):
    cfg = validate(replace(REF_CFG, rho=rho, lambda_l=lambda_l))
    # one batch of cells: all rows, and rows 0 .. b for the last few rows b
    # with points and no kept road, so that a range ends in such a row
    rng = np.random.default_rng(29)
    q, m = _voronoi_cells(cfg.lambda_b, 60, rng, zero_cell=True)
    roads = _roads_near(cfg, q, rng)
    n_roads = np.diff(roads[0])
    counts = rng.integers(0, 40, 60)
    points = _points_in_cells(q, m, _fan_areas(q, m), counts, rng)
    row = np.repeat(np.arange(60), counts)
    road_free = np.flatnonzero((n_roads == 0) & (counts > 0))
    assert np.any(n_roads > 1) and (road_free.size or lambda_l > 1.0)
    for b in [*(road_free[-3:] + 1), 60]:
        mine = row < b
        got = _in_vehicle_region(points[mine], row[mine], roads, rho)
        assert np.array_equal(got, _in_vehicle_region_pairs(points[mine], row[mine],
                                                            roads, rho))

    # every call the zero-cell estimators make, users and probes
    real, calls = simulator._in_vehicle_region, []

    def checked(points, row, roads, rho):
        got = real(points, row, roads, rho)
        assert np.array_equal(got, _in_vehicle_region_pairs(points, row, roads, rho))
        calls.append(np.diff(roads[0])[row[-1]] == 0)
        return got
    monkeypatch.setattr(simulator, "_in_vehicle_region", checked)
    plan = SimPlan(window_radius=3.0, n_samples=BATCH_SIZE + 100, seed=31)
    estimate_zero_cell_areas(cfg, plan)
    estimate_zero_cell_load(cfg, plan)
    assert len(calls) > 2
    if lambda_l < 1.0:
        assert any(calls)   # some range ends in a row with no kept road


def test_cell_estimators_bit_reproducible():
    # two full batches plus a remainder
    plan = SimPlan(window_radius=3.0, n_samples=2 * BATCH_SIZE + 188, seed=21)
    cfg = validate(replace(REF_CFG, lambda_u=50.0))
    runs = [(estimate_voronoi_area_moment(2.0, p), estimate_zero_cell_areas(cfg, p),
             estimate_zero_cell_load(cfg, p))
            for p in (plan, plan, replace(plan, window_radius=9.0),
                      replace(plan, seed=22))]
    assert runs[0] == runs[1] == runs[2]   # the cell estimators ignore the window
    nu, (area_in, area_out), load = runs[3]
    assert nu != runs[0][0] and area_out != runs[0][1][1] and load != runs[0][2]


NO_ROADS_CFG = validate(replace(REF_CFG, lambda_l=0.0, mu=0.0, alpha=4.0))


def _no_placement(*args):
    raise AssertionError("points placed")


def test_batch_without_roads_places_no_points(monkeypatch):
    monkeypatch.setattr(simulator, "_points_in_cells", _no_placement)
    plan = SimPlan(window_radius=3.0, n_samples=300, seed=4)
    inside, outside = estimate_zero_cell_areas(NO_ROADS_CFG, plan)
    assert inside.mean == 0.0 and inside.std_error == 0.0 and outside.mean > 0.0
    assert estimate_zero_cell_load(NO_ROADS_CFG, plan).mean > 0.0
    # with roads near the cells the points are still placed
    with pytest.raises(AssertionError, match="points placed"):
        estimate_zero_cell_areas(REF_CFG, plan)
    with pytest.raises(AssertionError, match="points placed"):
        estimate_zero_cell_load(REF_CFG, plan)


def _clip_two_axis(q, m, c):
    """Reference clip: the same Sutherland-Hodgman step written with
    two-axis (row, vertex) indexing."""
    col = np.arange(q.shape[1])
    nxt = np.where(col + 1 < m[:, None], col + 1, 0)
    s = np.einsum("kvj,kj->kv", q, c)
    s -= 0.5 * np.einsum("kj,kj->k", c, c)[:, None]
    s_next = np.take_along_axis(s, nxt, axis=1)
    valid = col < m[:, None]
    inside = s <= 0.0
    keep = valid & inside
    cross = valid & (inside != (s_next <= 0.0))
    emit = keep.astype(np.int64) + cross
    pos = np.cumsum(emit, axis=1) - emit
    m_new = pos[:, -1] + emit[:, -1]
    out = np.zeros((q.shape[0], int(m_new.max()), 2))
    r, v = np.nonzero(keep)
    out[r, pos[r, v]] = q[r, v]
    r, v = np.nonzero(cross)
    a, b = q[r, v], q[r, nxt[r, v]]
    t = s[r, v] / (s[r, v] - s_next[r, v])
    out[r, pos[r, v] + keep[r, v]] = a + t[:, None] * (b - a)
    return out, m_new


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), zero_cell=st.booleans())
def test_clip_matches_two_axis_reference_bit_for_bit(seed, n, zero_cell):
    rng = np.random.default_rng(seed)
    q, m = _voronoi_cells(2.0, n, rng, zero_cell)
    rows = np.arange(n)
    reach = np.sqrt((q * q).sum(axis=2).max(axis=1))
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    u = np.column_stack([np.cos(theta), np.sin(theta)])
    # per row: a bisector beyond the farthest vertex (no cut), one at a
    # random distance inside it, or one cutting off the first or the last
    # vertex, so that the closing edge (last vertex, first vertex) crosses
    mode = rng.integers(0, 4, n)
    f = rng.uniform(0.5, 1.0, n)[:, None]
    c = np.where((mode == 0)[:, None], 2.0 * reach[:, None] * (1.0 + f) * u,
                 2.0 * reach[:, None] * (f - 0.45) * u)
    c = np.where((mode == 2)[:, None], 2.0 * f * q[rows, 0], c)
    c = np.where((mode == 3)[:, None], 2.0 * f * q[rows, m - 1], c)
    want_q, want_m = _clip_two_axis(q, m, c)
    got_q, got_m = simulator._clip(q, m, c)
    assert np.array_equal(got_m, want_m)
    valid = np.arange(got_q.shape[1]) < got_m[:, None]
    assert got_q.shape == want_q.shape
    assert np.array_equal(got_q[valid], want_q[valid])
