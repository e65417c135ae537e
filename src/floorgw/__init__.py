"""Exact enumeration of marked floor diagrams, their refined counts, and the
generating series of higher-genus relative and log Gromov-Witten invariants
they compute for the plane and for Hirzebruch surfaces.

All arithmetic is exact (integers and rationals); see ``floorgw.algebra``
for the series types, ``floorgw.diagrams`` for enumeration,
``floorgw.gw`` for the invariant series and identity checkers, and
``floorgw.oracle`` for the independent brute-force cross-check.
"""

from .algebra import (
    AlgebraError,
    LaurentPolyS,
    Partition,
    USeries,
    lp_eval_at_one,
    lp_substitute_exponential,
    q_integer,
    rational_from_str,
    rational_to_str,
    sin_factor_series,
)
from .diagrams import (
    DiagramError,
    Edge,
    HTransverseDegree,
    InvalidDiagram,
    MarkedFloorDiagram,
    classical_count,
    degree_hirzebruch,
    degree_p2,
    diagram_count,
    enumerate_marked,
    multiplicity,
    points_for_genus,
    refined_count,
    refined_multiplicity,
    validate_diagram,
    vertex_partitions,
    weight_profiles,
)
from .gw import (
    AbIdentityReport,
    CrossCheckReport,
    GwError,
    GwSeries,
    ab_identity_check,
    degeneration_cross_check,
    degeneration_series,
    f0_absolute_series,
    f2_relative_dminus2_series,
    gw_relative_series,
    log_series,
    vertex_series,
)
from .oracle import (
    OracleLimitError,
    brute_force_enumerate,
    brute_force_refined_count,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraError",
    "AbIdentityReport",
    "CrossCheckReport",
    "DiagramError",
    "Edge",
    "GwError",
    "GwSeries",
    "HTransverseDegree",
    "InvalidDiagram",
    "LaurentPolyS",
    "MarkedFloorDiagram",
    "OracleLimitError",
    "Partition",
    "USeries",
    "ab_identity_check",
    "brute_force_enumerate",
    "brute_force_refined_count",
    "classical_count",
    "degeneration_cross_check",
    "degeneration_series",
    "degree_hirzebruch",
    "degree_p2",
    "diagram_count",
    "enumerate_marked",
    "f0_absolute_series",
    "f2_relative_dminus2_series",
    "gw_relative_series",
    "log_series",
    "lp_eval_at_one",
    "lp_substitute_exponential",
    "multiplicity",
    "points_for_genus",
    "q_integer",
    "rational_from_str",
    "rational_to_str",
    "refined_count",
    "refined_multiplicity",
    "sin_factor_series",
    "validate_diagram",
    "vertex_partitions",
    "vertex_series",
    "weight_profiles",
]
