"""Exact-arithmetic tools for log surfaces built from blow-ups of the plane
and from hypersurfaces in weighted projective 3-space.

The public names below load their module on first access, so importing the
package, or one of its modules, loads no other module of it.
"""

#: Public name -> the module that defines it.
_HOME = {
    name: module
    for module, names in {
        "dualgraph": "CyclicType DualGraph GermClassification GraphVertex classify_germ"
        " contract_and_square cyclic_type enumerate_fork_squares graph_determinant"
        " parse_graph residue_search",
        "exact": "Rational determinant is_negative_definite lp_feasible"
        " minimize_quadratic rat solve_linear solve_negative_definite",
        "lattice": "BlowupRecipe QDivisor SurfaceModel build_from_recipe divisor_class"
        " germ_of_cluster log_pullback qdiv",
        "positivity": "ContractionReport ThresholdResult ZariskiResult contraction_report"
        " nef_certificate nef_threshold pet psef_test pullback_after_contraction volume zariski",
        "wps": "ChartDossier WeightedPoly Weights analyze_origin chart_poly check_homogeneous"
        " classify_hypersurface hilbert_coefficient hilbert_series node_only_certificate"
        " normal_form wps_volume",
    }.items()
    for name in names.split()
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


__version__ = "0.1.0"
