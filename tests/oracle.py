"""Scalar references for the tests: one SIR draw from explicit transmitter
positions, and a plain sampler of the spatial model in a disk window.

Neither shares code with the vectorised kernel in ``vanetcov.simulator``:
the oracle works on planar positions and distances, the kernel on flat
arrays of squared distances grouped by replication.
"""
import math
from dataclasses import dataclass

import numpy as np

from vanetcov.simulator import DegenerateRealizationError

SIDELINK = "SL"
DOWNLINK = "DL"


@dataclass(frozen=True)
class SirSample:
    association: str        # SIDELINK or DOWNLINK
    serving_distance: float
    sir: float


def sample_sir(vehicles, base_stations, cfg, rng) -> SirSample:
    """One SIR draw for a user at the origin, from (n, 2) arrays of vehicle
    and base-station positions.

    Association follows the vehicle-first rule: the nearest vehicle within
    rho serves if one exists, otherwise the nearest base station.  Fresh
    unit-mean exponential fades are drawn per transmitter, vehicles first.
    An empty interference set yields the +inf sentinel.
    """
    eta = cfg.p_v / cfg.p_b
    v = np.asarray(vehicles, dtype=float).reshape(-1, 2)
    b = np.asarray(base_stations, dtype=float).reshape(-1, 2)
    d_v = np.hypot(v[:, 0], v[:, 1])
    d_b = np.hypot(b[:, 0], b[:, 1])

    dv_min = float(np.min(d_v)) if d_v.size else math.inf
    db_min = float(np.min(d_b)) if d_b.size else math.inf
    is_sl = dv_min <= cfg.rho
    if not is_sl and not d_b.size:
        raise DegenerateRealizationError("no base station and no vehicle within rho")

    pw_v = eta * rng.exponential(1.0, d_v.size) * np.power(d_v, -cfg.alpha) if d_v.size else np.empty(0)
    pw_b = rng.exponential(1.0, d_b.size) * np.power(d_b, -cfg.alpha) if d_b.size else np.empty(0)
    # the serving power is left out of the sum, not subtracted from the
    # total: at a large SIR the subtraction would leave mostly rounding
    if is_sl:
        serve = int(np.argmin(d_v))
        signal = float(pw_v[serve])
        interference = float(np.delete(pw_v, serve).sum() + pw_b.sum())
        serving_d = dv_min
    else:
        serve = int(np.argmin(d_b))
        signal = float(pw_b[serve])
        interference = float(pw_v.sum() + np.delete(pw_b, serve).sum())
        serving_d = db_min
    sir = float(signal / interference) if interference > 0 else math.inf
    return SirSample(SIDELINK if is_sl else DOWNLINK, serving_d, sir)


def sample_network(cfg, window_radius, rng):
    """Vehicle and base-station positions, (n, 2) each, in the disk of radius
    ``window_radius`` around the origin.

    Roads hitting the disk are Poisson(2 lambda_l R) lines (r, theta) with
    r uniform on (-R, R) and theta uniform on (0, pi): the line
    r * (-sin theta, cos theta) + t * (cos theta, sin theta).  Each chord,
    of half-length sqrt(R^2 - r^2), carries Poisson(mu) vehicles per km at
    uniform t; base stations are Poisson(lambda_b pi R^2) points uniform on
    the disk.
    """
    R = window_radius
    n_roads = rng.poisson(2.0 * cfg.lambda_l * R)
    r = rng.uniform(-R, R, n_roads)
    theta = rng.uniform(0.0, math.pi, n_roads)
    half = np.sqrt(R * R - r * r)
    counts = rng.poisson(2.0 * cfg.mu * half)
    t = rng.uniform(-1.0, 1.0, counts.sum()) * np.repeat(half, counts)
    r, theta = np.repeat(r, counts), np.repeat(theta, counts)
    vehicles = np.column_stack([-r * np.sin(theta) + t * np.cos(theta),
                                r * np.cos(theta) + t * np.sin(theta)])

    n_bs = rng.poisson(cfg.lambda_b * math.pi * R * R)
    radius = R * np.sqrt(rng.random(n_bs))
    angle = rng.uniform(0.0, 2.0 * math.pi, n_bs)
    base_stations = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    return vehicles, base_stations
