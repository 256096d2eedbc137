"""Anomalous localized resonance for confocal-ellipse plasmonic shells.

The package solves the quasistatic transmission problem for a dielectric
core inside a lossy negative-permittivity shell bounded by confocal
ellipses, classifies whether cloaking due to anomalous localized
resonance (CALR) occurs for a given source, and cross-validates the
closed-form mode solution against an independent Nystrom discretization
of the underlying boundary-integral operator and its energy against a
per-mode transmission solve.

Results are immutable NamedTuples; the inputs that check their values
(EllipticPoint, ConfocalGeometry, Dipole, ChargePair, Coefficients) are
frozen dataclasses.  The independent routes of calr_lab.oracle (the
Nystrom spectrum, the per-mode transmission energy and validate) serve
only cross-validation; the package root does not import them.
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
)
from .solver import (
    CalrDiagnosis,
    CalrVerdict,
    SweepRecord,
    adaptive_n_max,
    boundary_forcing,
    calr_classify,
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
    ModeTable,
    Regime,
    RegimeKind,
    asymptotic_rates,
    block_matrices,
    critical_radius,
    mode_table,
    s_gram,
)

__version__ = "0.1.0"

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
    "Dipole",
    "EigensolveFailure",
    "EllipticPoint",
    "GapConditionReport",
    "GapVerdict",
    "ModeTable",
    "OverflowGuard",
    "Regime",
    "RegimeKind",
    "SampledCurve",
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
    "convergence_exponent",
    "critical_radius",
    "ellipse_curvature",
    "eval_potentials",
    "gap_condition_report",
    "green_expansion_coefficients",
    "metric_factor",
    "mode_projections",
    "mode_table",
    "newtonian_coefficients",
    "newtonian_eval",
    "newtonian_gradient",
    "s_gram",
    "sample_ellipse",
    "solve_densities",
    "sweep",
    "to_cartesian",
    "z_param",
    "__version__",
]
