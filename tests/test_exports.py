"""Where the public names are declared: each module's ``__all__`` lists the
names it defines for export, and ``floorgw.__all__`` is their concatenation."""

import floorgw
from floorgw import algebra, diagrams, gw, oracle

MODULES = (algebra, diagrams, gw, oracle)

# floorgw.__all__ when the package listed every name itself, less UNEXPORTED
EXPORTED = {
    "AbIdentityReport", "AlgebraError", "CrossCheckReport", "DiagramError", "Edge", "GwError",
    "GwSeries", "HTransverseDegree", "InvalidDiagram", "LaurentPolyS", "MarkedFloorDiagram",
    "OracleLimitError", "OracleReport", "Partition", "USeries", "ab_identity_check",
    "brute_force_enumerate", "brute_force_refined_count", "classical_count",
    "degeneration_cross_check", "degeneration_series", "degree_hirzebruch", "degree_p2",
    "diagram_count", "enumerate_marked", "gw_relative_series", "log_series", "lp_eval_at_one",
    "multiplicity", "oracle_cross_check", "points_for_genus", "q_integer", "rational_to_str",
    "refined_count", "validate_diagram", "vertex_series", "weight_profiles",
}

# defined and read by module path (floorbench's tracer, the tests, a demo), not exported
UNEXPORTED = {
    algebra: ["lp_substitute_exponential", "rational_from_str", "sin_factor_series"],
    diagrams: ["refined_multiplicity", "vertex_partitions"],
    gw: ["f0_absolute_series", "f2_relative_dminus2_series"],
}


def test_the_package_exports_the_module_lists_once():
    assert floorgw.__all__ == [name for module in MODULES for name in module.__all__]
    assert len(floorgw.__all__) == len(set(floorgw.__all__))
    assert set(floorgw.__all__) == EXPORTED


def test_each_exported_name_is_defined_in_the_module_that_lists_it():
    for module in MODULES:
        for name in module.__all__:
            value = getattr(floorgw, name)
            assert value is getattr(module, name)
            assert value.__module__ == module.__name__, name


def test_the_unexported_names_stay_in_their_modules():
    for module, names in UNEXPORTED.items():
        for name in names:
            assert not hasattr(floorgw, name) and name not in module.__all__
            assert getattr(module, name).__module__ == module.__name__
