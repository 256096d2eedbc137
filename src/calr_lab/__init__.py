"""Anomalous localized resonance for confocal-ellipse plasmonic shells.

The package solves the quasistatic transmission problem for a dielectric
core inside a lossy negative-permittivity shell bounded by confocal
ellipses, classifies whether cloaking due to anomalous localized
resonance (CALR) occurs for a given source, and cross-validates the
closed-form mode solution against an independent Nystrom discretization
of the underlying boundary-integral operator.

Results are immutable NamedTuples; the inputs that check their values
(EllipticPoint, ConfocalGeometry, Dipole, ChargePair, Coefficients) are
frozen dataclasses.  The Nystrom oracle (calr_lab.oracle) serves only
cross-validation and is imported on first use: its three re-exports
below resolve through the module __getattr__.
"""

from .errors import (
    CalrError,
    ConfigError,
    CurveOverlap,
    DegeneratePoint,
    EigensolveFailure,
    OverflowGuard,
    SingularPoint,
    SourceInsideShell,
    TooFewCoefficients,
    TruncationWarning,
)
from .geometry import (
    ConfocalGeometry,
    EllipticPoint,
    SampledCurve,
    ellipse_curvature,
    metric_factor,
    sample_ellipse,
    to_cartesian,
    to_elliptic,
)
from .solver import (
    CalrDiagnosis,
    CalrVerdict,
    DensityCoefficients,
    SweepRecord,
    adaptive_n_max,
    boundary_forcing,
    calr_classify,
    dissipated_power_closed,
    dissipated_power_spectral,
    eval_potential,
    eval_potentials,
    mode_projections,
    solve_densities,
    sweep,
    z_param,
)
from .source import (
    ChargePair,
    Coefficients,
    Dipole,
    GapConditionReport,
    GapVerdict,
    convergence_exponent,
    gap_condition_report,
    green_expansion_coefficients,
    newtonian_coefficients,
    newtonian_eval,
    newtonian_gradient,
)
from .spectrum import (
    AsymptoticRates,
    ModeData,
    ModeTable,
    Regime,
    RegimeKind,
    SingleEllipseMode,
    asymptotic_rates,
    block_matrices,
    critical_radius,
    mode_data,
    mode_table,
    s_gram,
    single_ellipse_np,
)

__version__ = "0.1.0"

_ORACLE_EXPORTS = {
    "coefficient_projection_oracle", "dissipated_power_direct", "eval_gradient_shell"
}


def __getattr__(name: str):
    """The oracle's re-exports, importing calr_lab.oracle on first use (PEP 562)."""
    if name in _ORACLE_EXPORTS:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AsymptoticRates",
    "CalrDiagnosis",
    "CalrError",
    "CalrVerdict",
    "ChargePair",
    "Coefficients",
    "ConfigError",
    "ConfocalGeometry",
    "CurveOverlap",
    "DegeneratePoint",
    "DensityCoefficients",
    "Dipole",
    "EigensolveFailure",
    "EllipticPoint",
    "GapConditionReport",
    "GapVerdict",
    "ModeData",
    "ModeTable",
    "OverflowGuard",
    "Regime",
    "RegimeKind",
    "SampledCurve",
    "SingleEllipseMode",
    "SingularPoint",
    "SourceInsideShell",
    "SweepRecord",
    "TooFewCoefficients",
    "TruncationWarning",
    "adaptive_n_max",
    "asymptotic_rates",
    "block_matrices",
    "boundary_forcing",
    "calr_classify",
    "coefficient_projection_oracle",
    "convergence_exponent",
    "critical_radius",
    "dissipated_power_closed",
    "dissipated_power_direct",
    "dissipated_power_spectral",
    "ellipse_curvature",
    "eval_gradient_shell",
    "eval_potential",
    "eval_potentials",
    "gap_condition_report",
    "green_expansion_coefficients",
    "metric_factor",
    "mode_data",
    "mode_projections",
    "mode_table",
    "newtonian_coefficients",
    "newtonian_eval",
    "newtonian_gradient",
    "s_gram",
    "sample_ellipse",
    "single_ellipse_np",
    "solve_densities",
    "sweep",
    "to_cartesian",
    "to_elliptic",
    "z_param",
    "__version__",
]
