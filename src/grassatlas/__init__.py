"""grassatlas: chart atlas, bundle transitions and duality pairings for
finite Grassmannian models.

Subspaces are Grassmannian points stored through orthonormal bases; charts are
indexed by complementary pairs and realized as graph coordinates.  The bundle
calculus transports tangent vectors, covectors and rank-one tensor covectors
across charts while preserving the trace pairing, and the restricted module
runs truncation-ladder experiments against polarized models.
"""

from .atlas import (DEFAULT_TOL_DOMAIN, DEFAULT_TOL_EQ, ChartId, ChartPoint,
                    DomainCheck, Subspace, chart_forward, chart_forward_projector,
                    chart_inverse, in_chart_domain, transition_base)
from .bundles import (Covector, TangentVector, TensorCovector, operator_to_tensor,
                      pushforward_factors, pushforward_tensor, tensor_pairing,
                      tensor_pushforward_terms, tensor_to_operator, trace_pairing,
                      transition_cotangent, transition_tangent)
from .errors import (BadProfile, ChartDomainViolation, ChartMismatch, ConfigError,
                     DimensionMismatch, FactorMismatch, GrassAtlasError,
                     LadderMismatch, PairingMismatch, PredualUnavailable, SplitFailure)
from .operators import (DEFAULT_TOL_SPLIT, DecayProfile, Operator, OperatorLadder,
                        SchattenReport, SingularTail, compactness_tail,
                        decay_operator, haar_frame, oblique_projections,
                        operator_norm, schatten_norm, singular_values,
                        split_conditioning)
from .restricted import (PolarizedModel, PreservationReport, RestrictedPoint,
                         TruncationLadder, build_truncation_ladder,
                         generate_restricted_point, graph_chart_family,
                         identity_chart_family, membership_report,
                         precotangent_covector, preservation_experiment,
                         swap_chart_family, virtual_dimension,
                         virtual_dimension_by_rank)
from .verify import CheckResult, SuiteConfig, emit_report, run_suite

__version__ = "0.1.0"

__all__ = [
    "BadProfile", "ChartDomainViolation", "ChartId", "ChartMismatch", "ChartPoint",
    "CheckResult", "ConfigError", "Covector", "DEFAULT_TOL_DOMAIN", "DEFAULT_TOL_EQ",
    "DEFAULT_TOL_SPLIT", "DecayProfile", "DimensionMismatch", "DomainCheck",
    "FactorMismatch", "GrassAtlasError", "LadderMismatch", "Operator",
    "OperatorLadder", "PairingMismatch", "PolarizedModel", "PredualUnavailable",
    "PreservationReport", "RestrictedPoint", "SchattenReport", "SingularTail",
    "SplitFailure", "Subspace", "SuiteConfig", "TangentVector", "TensorCovector",
    "TruncationLadder", "build_truncation_ladder", "chart_forward",
    "chart_forward_projector", "chart_inverse", "compactness_tail", "decay_operator",
    "emit_report", "generate_restricted_point", "graph_chart_family", "haar_frame",
    "identity_chart_family", "in_chart_domain", "membership_report",
    "oblique_projections", "operator_norm", "operator_to_tensor",
    "precotangent_covector", "preservation_experiment", "pushforward_factors",
    "pushforward_tensor", "run_suite", "schatten_norm", "singular_values",
    "split_conditioning", "swap_chart_family", "tensor_pairing",
    "tensor_pushforward_terms", "tensor_to_operator", "trace_pairing",
    "transition_base", "transition_cotangent", "transition_tangent",
    "virtual_dimension", "virtual_dimension_by_rank",
]
