"""Conformal tractor and ambient-connection toolkit.

Given a pseudo-Riemannian metric on an analytic chart, the package
computes the curvature stack (Schouten, Weyl, Cotton-York), realizes the
tractor connection and an explicit ambient connection on R x M x R+, and
estimates holonomy Lie algebras by parallel transport around loop
families.
"""

from .metric import (ChartDomainError, MetricError, MetricSpec,
                     SingularMetricError, load_config, metric_jet,
                     parse_config, preset, signature_at)
from .curvature import (ConnectionPoint, CurvatureStack, compute_stack,
                        connection_at, kulkarni_nomizu, stack_at,
                        weyl_endomorphism)
from .tractor import connection_matrix, normality_check, tractor_metric
from .ambient import AmbientGeometry, SingularMapError, ambient_point, split_point
from .transport import (AmbientOracle, CrudeOracle, LeviCivitaOracle,
                        PathSpec, Segment, TractorOracle, TransportError,
                        lift_loop, loop_family, parallel_transport,
                        path_from_waypoints, rectangle_loop, reverse_path,
                        transport_matrix, trig_loop)
from .holonomy import (HolonomyAlgebra, compare_holonomy, fixed_vectors,
                       holonomy_algebra, matrix_log)
from .report import RunConfig, VerifyReport, report_emit, run_verify

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "MetricSpec", "MetricError", "SingularMetricError", "ChartDomainError",
    "preset", "parse_config", "load_config", "metric_jet", "signature_at",
    "CurvatureStack", "ConnectionPoint", "compute_stack", "stack_at",
    "connection_at", "kulkarni_nomizu", "weyl_endomorphism",
    "tractor_metric", "connection_matrix", "normality_check",
    "AmbientGeometry", "SingularMapError", "ambient_point", "split_point",
    "PathSpec", "Segment", "TransportError", "loop_family", "rectangle_loop",
    "trig_loop", "path_from_waypoints", "lift_loop", "reverse_path",
    "parallel_transport", "transport_matrix",
    "TractorOracle", "AmbientOracle", "CrudeOracle", "LeviCivitaOracle",
    "HolonomyAlgebra", "matrix_log", "holonomy_algebra", "compare_holonomy",
    "fixed_vectors",
    "RunConfig", "VerifyReport", "run_verify", "report_emit",
]
