"""Bracket generation, circle-diffeomorphism flows, and convex gauges."""

from .trig_fields import TrigPoly, bracket, evaluate, sample
from .closure import (
    FieldFamily,
    ClosureReport,
    PolyField,
    Polynomial,
    closure,
    lie_rank_at_point,
    poly_bracket,
    spanning_test,
)
from .flows import (
    CircleDiffeo,
    FlowWord,
    IntegrationError,
    apply_word,
    commutator_flow_residual,
    commutator_word,
    integrate_flow,
)
from .steering import (
    NotBracketGenerating,
    SteeringProblem,
    SteeringResult,
    default_family,
    diffeo_distance,
    flow_logarithm,
    steer,
)
from .convex import (
    ConvexBody,
    ConeResult,
    InvalidCertificate,
    InvalidSeed,
    MackeyReport,
    SeparationCertificate,
    SetsIntersect,
    cone_extremal_point,
    mackey_cauchy_diagnostic,
    minkowski,
    separate,
    symmetrize,
)

__all__ = [
    "TrigPoly", "bracket", "evaluate", "sample",
    "FieldFamily", "ClosureReport", "PolyField", "Polynomial",
    "closure", "lie_rank_at_point", "poly_bracket", "spanning_test",
    "CircleDiffeo", "FlowWord", "IntegrationError", "apply_word",
    "commutator_flow_residual", "commutator_word", "integrate_flow",
    "NotBracketGenerating", "SteeringProblem", "SteeringResult",
    "default_family", "diffeo_distance", "flow_logarithm", "steer",
    "ConvexBody", "ConeResult", "InvalidCertificate", "InvalidSeed", "MackeyReport",
    "SeparationCertificate", "SetsIntersect", "cone_extremal_point",
    "mackey_cauchy_diagnostic", "minkowski", "separate", "symmetrize",
]

__version__ = "0.1.0"
