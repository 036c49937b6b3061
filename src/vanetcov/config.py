"""Model parameters shared by the Monte Carlo and analytic pipelines.

Distances are in kilometres, line intensities in 1/km, planar intensities in
1/km^2, and transmit powers in linear units, so the vehicle/base-station power
ratio is a plain quotient.  SIR thresholds (tau) are arguments of the coverage
operations, not configuration; the sidelink encoding rate epsilon lives here
because the utility and total-rate formulas consume it.  A config file's
values must be JSON numbers: a string, boolean, null, list or object is
rejected, not converted.
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


# each field's lower bound and whether the bound itself is allowed, in field
# order; lambda_l = 0 and mu = 0 are degenerate road-free scenarios
_LOWER_BOUNDS = {"lambda_l": (0, True), "mu": (0, True), "lambda_b": (0, False),
                 "lambda_u": (0, False), "rho": (0, True), "alpha": (2, False),
                 "p_b": (0, False), "p_v": (0, False), "epsilon": (0, True),
                 "w_s": (0, True), "w_d": (0, True)}


def validate(cfg: NetworkConfig) -> NetworkConfig:
    """Return ``cfg`` unchanged iff every invariant holds.

    Raises :class:`ValidationError` naming the first violated invariant: a
    field not a finite real number, one below its bound, lambda_u <= lambda_b.
    """
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValidationError(f"{f.name} must be a real number")
        if not math.isfinite(value):
            raise ValidationError(f"{f.name} must be finite")
    for name, (bound, closed) in _LOWER_BOUNDS.items():
        value = getattr(cfg, name)
        if value < bound or value == bound and not closed:
            rule = ("be nonnegative" if closed else
                    "be positive" if bound == 0 else f"exceed {bound}")
            raise ValidationError(f"{name} must {rule}")
    if cfg.lambda_u <= cfg.lambda_b:
        raise ValidationError("lambda_u must exceed lambda_b")
    return cfg


def load_config(path) -> NetworkConfig:
    """Load a flat JSON document with exactly the NetworkConfig field names.

    Unknown keys are an error so that typos never pass silently.  `w_s` and
    `w_d` may be omitted and take their defaults.  A file that is not JSON,
    and a value that is not a finite JSON number, raise ValidationError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # JSON integers load as floats (inf past the float range, -0 as
            # 0); any other value keeps its JSON type for validate to name
            raw = json.load(fh, parse_int=lambda text: float(text) + 0.0)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValidationError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("config file must hold a flat JSON object")
    known = {f.name for f in fields(NetworkConfig)}
    for kind, keys in (("unknown", set(raw) - known),
                       ("missing", known - {"w_s", "w_d"} - set(raw))):
        if keys:
            raise ValidationError(f"{kind} config keys: {', '.join(sorted(keys))}")
    return validate(NetworkConfig(**raw))
