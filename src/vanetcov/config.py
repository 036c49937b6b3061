"""Model parameters shared by the Monte Carlo and analytic pipelines.

Distances are in kilometres, line intensities in 1/km, planar intensities in
1/km^2, and transmit powers in linear units, so the vehicle/base-station power
ratio is a plain quotient.  SIR thresholds (tau) are arguments of the coverage
operations, not configuration; the sidelink encoding rate epsilon lives here
because the utility and total-rate formulas consume it.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields


class ValidationError(ValueError):
    """Raised when a parameter set violates a model invariant."""


@dataclass(frozen=True)
class NetworkConfig:
    """One scenario.  Immutable; run through :func:`validate` before use."""

    lambda_l: float  # road (line) intensity, 1/km
    mu: float        # vehicles per km of road
    lambda_b: float  # base stations per km^2
    lambda_u: float  # downlink users per km^2
    rho: float       # broadcast association radius, km
    alpha: float     # path-loss exponent, must exceed 2
    p_b: float       # base-station transmit power, linear
    p_v: float       # vehicle transmit power, linear
    epsilon: float   # sidelink encoding rate, bits/s/Hz
    w_s: float = 0.5  # sidelink utility weight
    w_d: float = 0.5  # downlink utility weight


def _fail(name: str, message: str) -> None:
    raise ValidationError(f"{name} {message}")


def validate(cfg: NetworkConfig) -> NetworkConfig:
    """Return ``cfg`` unchanged iff every invariant holds.

    Raises :class:`ValidationError` naming the first violated invariant.
    lambda_l = 0 and mu = 0 are allowed as degenerate road-free scenarios.
    """
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            _fail(f.name, "must be a real number")
        if not math.isfinite(value):
            _fail(f.name, "must be finite")
    if cfg.lambda_l < 0:
        _fail("lambda_l", "must be nonnegative")
    if cfg.mu < 0:
        _fail("mu", "must be nonnegative")
    if cfg.lambda_b <= 0:
        _fail("lambda_b", "must be positive")
    if cfg.lambda_u <= 0:
        _fail("lambda_u", "must be positive")
    if cfg.rho < 0:
        _fail("rho", "must be nonnegative")
    if cfg.alpha <= 2:
        _fail("alpha", "must exceed 2")
    if cfg.p_b <= 0:
        _fail("p_b", "must be positive")
    if cfg.p_v <= 0:
        _fail("p_v", "must be positive")
    if cfg.epsilon < 0:
        _fail("epsilon", "must be nonnegative")
    if cfg.w_s < 0:
        _fail("w_s", "must be nonnegative")
    if cfg.w_d < 0:
        _fail("w_d", "must be nonnegative")
    if cfg.lambda_u <= cfg.lambda_b:
        _fail("lambda_u", "must exceed lambda_b")
    return cfg


def config_field_names() -> list[str]:
    return [f.name for f in fields(NetworkConfig)]


def config_dict(cfg: NetworkConfig) -> dict:
    return {f.name: getattr(cfg, f.name) for f in fields(cfg)}


def load_config(path) -> NetworkConfig:
    """Load a flat JSON document with exactly the NetworkConfig field names.

    Unknown keys are an error so that typos never pass silently.  `w_s` and
    `w_d` may be omitted and take their defaults.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValidationError("config file must hold a flat JSON object")
    known = set(config_field_names())
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(unknown)}")
    optional = {"w_s", "w_d"}
    missing = sorted(known - optional - set(raw))
    if missing:
        raise ValidationError(f"missing config keys: {', '.join(missing)}")
    cfg = NetworkConfig(**{k: float(v) for k, v in raw.items()})
    return validate(cfg)
