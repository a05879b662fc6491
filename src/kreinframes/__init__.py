"""Frames of vectors and weighted subspaces in indefinite inner product spaces.

The ambient space is R^n equipped with ``[x, y] = x^T J y`` for a symmetric
involution J.  The package classifies subspaces by the sign behaviour of the
product on them, verifies frame and fusion-frame conditions part by part,
computes optimal bounds and singular-value estimates for them, builds
canonical duals, and audits how bounded invertible operators transport
these structures.  The CLI checks every bound, margin and modulus it
reports by an inertia bracket (:mod:`kreinframes.oracles`), and a seeded
generator produces problem instances with known ground truth.
"""

from .core import (
    TOL_DEF,
    TOL_NUM,
    TOL_RANK,
    TOL_SYM,
    KreinSpace,
    Operator,
    indefinite_product,
    j_adjoint,
    j_adjoint_matrix,
    make_krein_space,
)
from .errors import (
    DimensionMismatch,
    IndefiniteOrNeutralSubspace,
    IndexOutOfRange,
    InfeasibleConfig,
    InputError,
    InternalInconsistency,
    KreinFrameError,
    NeutralVector,
    NonPositiveWeight,
    NotAJFrame,
    NotAJFusionFrame,
    NotAnInvolution,
    NotContained,
    NotPositiveDefinite,
    NotRegular,
    NotSurjective,
    NotUniformlyDefinite,
    NumericalFailure,
    ParseError,
    SchemaError,
    ZeroSubspace,
)
from .frames import (
    JFrameReport,
    PartReport,
    ReciprocityReport,
    VectorFrame,
    canonical_dual,
    dual_reciprocity,
    frame_operator,
    frame_part_pencils,
    interlacing_identity,
    is_j_frame,
    optimal_j_frame_bounds,
    partial_frame_operator,
    partition_by_sign,
    verify_j_frame,
)
from .fusion import (
    EquivalenceReport,
    FusionDualReport,
    JFusionReport,
    RpsEntry,
    WeightedSubspaceFamily,
    adjoint_identity_residual,
    bessel_bound,
    canonical_dual_fusion,
    check_rps_corollary,
    direct_sum_space,
    equivalence_check,
    family_from_spans,
    flatten_family,
    fusion_analysis,
    fusion_bound_estimates,
    fusion_dual_diagnostics,
    fusion_frame_operator,
    fusion_operator_parts,
    fusion_synthesis,
    j_image_family,
    make_weighted_family,
    optimal_fusion_bounds,
    part_pencils,
    verify_j_fusion_frame,
)
from .problem_io import (
    ParsedProblem,
    canonical_parts,
    dumps_canonical,
    jsonify,
    load_problem,
    load_report,
    loads_strict,
    make_report,
    parse_problem,
    parse_report,
    save_json,
)
from .subspaces import (
    AngularReport,
    Classification,
    Subspace,
    SubspaceKind,
    angular_operator,
    check_rjpp,
    classify,
    gram_operator,
    is_contained,
    j_orthogonal_complement,
    j_projection,
    orthogonal_projection,
    reduced_min_modulus,
    span,
    subspace_sum,
)
from .transforms import (
    ImageCheckReport,
    PreservationEntry,
    PreservationReport,
    apply_operator,
    image_fusion_check,
    preservation_audit,
    projection_commutation_residual,
)
from . import oracles

__version__ = "0.1.0"

# Only ``gen`` needs the generator, so it is imported on first use of one of
# its names (PEP 562), not by every command.
_GENERATOR_NAMES = ("GeneratorConfig", "validate_config", "gen_problem", "gen_family",
                    "gen_frame", "PLANTS", "KINDS")

__all__ = [
    "__version__",
    # core
    "TOL_DEF", "TOL_NUM", "TOL_RANK", "TOL_SYM",
    "KreinSpace", "Operator", "make_krein_space", "indefinite_product",
    "j_adjoint", "j_adjoint_matrix",
    # errors
    "KreinFrameError", "InputError", "InternalInconsistency", "NumericalFailure",
    "NotAnInvolution", "DimensionMismatch", "ZeroSubspace", "NotRegular",
    "NotContained", "NotUniformlyDefinite", "NeutralVector",
    "NonPositiveWeight", "IndefiniteOrNeutralSubspace", "NotAJFrame",
    "NotAJFusionFrame", "NotSurjective",
    "NotPositiveDefinite", "IndexOutOfRange", "InfeasibleConfig",
    "ParseError", "SchemaError",
    # subspaces
    "Subspace", "SubspaceKind", "Classification", "span", "classify",
    "gram_operator", "orthogonal_projection", "j_projection", "j_orthogonal_complement",
    "is_contained", "check_rjpp", "AngularReport", "angular_operator",
    "reduced_min_modulus", "subspace_sum",
    # frames
    "VectorFrame", "partition_by_sign", "frame_operator",
    "partial_frame_operator", "PartReport", "JFrameReport", "verify_j_frame",
    "is_j_frame", "optimal_j_frame_bounds", "frame_part_pencils",
    "canonical_dual", "ReciprocityReport",
    "dual_reciprocity", "interlacing_identity",
    # fusion
    "WeightedSubspaceFamily", "make_weighted_family", "family_from_spans",
    "direct_sum_space", "fusion_synthesis", "fusion_analysis",
    "fusion_frame_operator", "fusion_operator_parts", "bessel_bound",
    "JFusionReport", "verify_j_fusion_frame",
    "optimal_fusion_bounds", "fusion_bound_estimates", "part_pencils",
    "canonical_dual_fusion", "FusionDualReport", "fusion_dual_diagnostics",
    "j_image_family", "adjoint_identity_residual", "RpsEntry",
    "check_rps_corollary", "EquivalenceReport", "equivalence_check",
    "flatten_family",
    # transforms
    "apply_operator", "PreservationEntry", "PreservationReport",
    "preservation_audit", "ImageCheckReport", "image_fusion_check",
    "projection_commutation_residual",
    # generator
    *_GENERATOR_NAMES,
    # problem_io
    "ParsedProblem", "parse_problem", "load_problem", "parse_report",
    "load_report", "loads_strict", "jsonify", "canonical_parts", "dumps_canonical",
    "save_json", "make_report",
    # oracle submodule
    "oracles",
]


def __getattr__(name: str):
    if name in _GENERATOR_NAMES:
        from . import generator
        return getattr(generator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()).union(_GENERATOR_NAMES))
