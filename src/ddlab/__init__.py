"""Exact desk-scale experiments on distinct distances.

The package studies configurations of n collinear points against m
arbitrary points in k dimensions: exact distance-energy accounting over
squared rational distances, a reduction of the cross-column energy to
point-curve incidences for a family of hyperbolas, greedy pruning to the
multiplicity-1 conditions backing that reduction, extremal few-distance
constructions, and float evaluators for the piecewise lower bound.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    Regime,
    clamped_log,
    distinct_lower_bound,
    energy_upper_expr,
    incidence_upper_bound,
    regime,
)
from .configs import (
    PrunedConfig,
    Side,
    gen_cylinder_extremal,
    gen_orthogonal_extremal,
    gen_random,
    prune_general,
    prune_planar,
    translate_along_axis,
)
from .energy import (
    ChainReport,
    DistanceClasses,
    EnergyReport,
    check_chain,
    distance_classes,
    energy_report,
)
from .errors import (
    DdlabError,
    DegenerateHyperbolaError,
    DuplicateCurveError,
    EmptyResultError,
    FormatError,
    GenerationExhaustedError,
    IdenticalCurvesError,
    IntersectionCheckError,
    InvalidCountError,
    InvalidRangeError,
    TooLargeError,
)
from .exact import (
    Config,
    Point,
    SqDistMatrix,
    ValidationReport,
    Violation,
    format_rational,
    parse_rational,
    rho_sq,
    sq_dist,
    validate_constraints,
)
from .oracles import oracle_incidences, oracle_quadruples
from .reduction import (
    Hyperbola,
    HyperbolaFamily,
    IncidenceReport,
    IntersectionResult,
    build_family,
    incidences,
    intersection_count,
)
from .sweep import CSV_COLUMNS, SweepRow, SweepSpec, compute_row, rows_to_csv, run_sweep

__all__ = [
    "__version__",
    "BoundReport",
    "ChainReport",
    "Config",
    "DdlabError",
    "DegenerateHyperbolaError",
    "DistanceClasses",
    "DuplicateCurveError",
    "EmptyResultError",
    "EnergyReport",
    "FormatError",
    "GenerationExhaustedError",
    "Hyperbola",
    "HyperbolaFamily",
    "IdenticalCurvesError",
    "IncidenceReport",
    "IntersectionCheckError",
    "IntersectionResult",
    "InvalidCountError",
    "InvalidRangeError",
    "Point",
    "PrunedConfig",
    "Regime",
    "Side",
    "SqDistMatrix",
    "CSV_COLUMNS",
    "SweepRow",
    "SweepSpec",
    "compute_row",
    "TooLargeError",
    "ValidationReport",
    "Violation",
    "build_family",
    "check_chain",
    "clamped_log",
    "distance_classes",
    "distinct_lower_bound",
    "energy_report",
    "energy_upper_expr",
    "format_rational",
    "gen_cylinder_extremal",
    "gen_orthogonal_extremal",
    "gen_random",
    "incidence_upper_bound",
    "incidences",
    "intersection_count",
    "oracle_incidences",
    "oracle_quadruples",
    "parse_rational",
    "prune_general",
    "prune_planar",
    "regime",
    "rho_sq",
    "rows_to_csv",
    "run_sweep",
    "sq_dist",
    "translate_along_axis",
    "validate_constraints",
]
