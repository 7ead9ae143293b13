"""Conformal tractor and ambient-connection toolkit.

Given a pseudo-Riemannian metric on an analytic chart, the package
computes the curvature stack (Schouten, Weyl, Cotton-York), realizes the
tractor connection and an explicit ambient connection on R x M x R+, and
estimates holonomy Lie algebras by parallel transport around loop
families.

The package's names and its layer modules load on first access (PEP 562):
importing `tractor_forge.curvature` compiles `expr`, `metric` and
`curvature` only, not the transport, holonomy, report and command layers.
A name in `__all__` is looked up in its module at every access and never
copied here, so the package always shows the module's current binding.
"""

import importlib

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "metric": ("MetricSpec", "MetricError", "SingularMetricError", "ChartDomainError",
               "preset", "parse_config", "load_config", "metric_jet"),
    "curvature": ("CurvatureStack", "ConnectionPoint", "compute_stack", "stack_at",
                  "connection_at", "kulkarni_nomizu", "weyl_endomorphism"),
    "tractor": ("tractor_metric", "connection_matrix", "normality_check"),
    "ambient": ("AmbientGeometry", "SingularMapError", "ambient_point"),
    "transport": ("PathSpec", "Segment", "TransportError", "loop_family", "rectangle_loop",
                  "trig_loop", "path_from_waypoints", "lift_loop", "reverse_path",
                  "parallel_transport", "transport_matrix",
                  "TractorOracle", "AmbientOracle", "CrudeOracle", "LeviCivitaOracle"),
    "holonomy": ("HolonomyAlgebra", "matrix_log", "holonomy_algebra", "compare_holonomy",
                 "fixed_vectors"),
    "report": ("RunConfig", "VerifyReport", "run_verify", "report_emit"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("expr", *_EXPORTS, "cli")

__all__ = ["__version__", *_ORIGIN]


def __getattr__(name):
    if name in _ORIGIN:
        return getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    if name in _SUBMODULES:  # the import system then sets it as an attribute
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
