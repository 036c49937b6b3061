"""Sidelink broadcast and cellular downlink coexistence: spatial sampling,
Monte Carlo estimation, and closed-form evaluation with cross-validation."""

from .config import NetworkConfig, ValidationError, load_config, validate
from .quadrature import DEFAULT_SPEC, NonConvergenceError, QuadratureSpec, integrate
from .analytic import (
    AnalyticResult,
    dl_coverage,
    effective_rate_with_error,
    mean_zero_cell_areas,
    network_utility_with_error,
    nu,
    p_assoc_sl,
    sl_coverage,
    total_rate_with_error,
)
from .simulator import (
    DOWNLINK,
    SIDELINK,
    TOTAL,
    Estimate,
    SimPlan,
    default_window_radius,
    estimate_association,
    estimate_coverage_grid,
    estimate_effective_rate,
    estimate_voronoi_area_moment,
    estimate_zero_cell_areas,
    estimate_zero_cell_load,
    make_plan,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticResult", "DEFAULT_SPEC", "DOWNLINK", "Estimate", "NetworkConfig",
    "NonConvergenceError", "QuadratureSpec", "SIDELINK", "SimPlan", "TOTAL",
    "ValidationError", "default_window_radius", "dl_coverage",
    "effective_rate_with_error", "estimate_association",
    "estimate_coverage_grid", "estimate_effective_rate",
    "estimate_voronoi_area_moment", "estimate_zero_cell_areas",
    "estimate_zero_cell_load", "integrate", "load_config", "make_plan",
    "mean_zero_cell_areas", "network_utility_with_error", "nu", "p_assoc_sl",
    "sl_coverage", "total_rate_with_error", "validate",
]
