"""Images of weighted families under linear operators.

Answers three related questions: what family does an operator produce
(:func:`apply_operator`), do the hypotheses of the sufficient preservation
condition hold (:func:`preservation_audit`), and does the image actually
verify as a fusion frame, both as a whole and split by either the original
or the image sign partition (:func:`image_fusion_check`).
"""

from typing import NamedTuple

import numpy as np

from ._numeric import operator_norm, scaled_below_overflow
from .core import TOL_DEF, TOL_RANK, KreinSpace, Operator, j_adjoint_matrix
from .errors import (
    DimensionMismatch,
    IndefiniteOrNeutralSubspace,
    InternalInconsistency,
    NotSurjective,
)
from .fusion import (
    JFusionReport,
    WeightedSubspaceFamily,
    _signed_family,
    make_weighted_family,
    verify_j_fusion_frame,
)
from .subspaces import (
    Classification,
    Subspace,
    SubspaceKind,
    _classify_all,
    _images,
    classify,
    j_projection,
    subspace_sum,
)


def _operator_matrix(operator, space: KreinSpace) -> np.ndarray:
    """The matrix of T, rescaled by a power of two when it is near the double limit.

    Images T(W), ranks and the sign of every image are unchanged by a
    positive scale of T, and the rescale keeps T W from overflowing.
    """
    if isinstance(operator, Operator):
        if operator.space != space:
            raise DimensionMismatch("operator and family live in different spaces")
        return scaled_below_overflow(operator.matrix)
    m = np.asarray(operator, dtype=float)
    if m.shape != (space.dim, space.dim):
        raise DimensionMismatch(f"operator matrix has shape {m.shape}, expected {(space.dim, space.dim)}")
    return scaled_below_overflow(m)


def apply_operator(operator, family: WeightedSubspaceFamily, tol_def: float = TOL_DEF,
                   tol_rank: float = TOL_RANK) -> WeightedSubspaceFamily:
    """The image family {(T W_i, v_i)}.

    Raises :class:`IndefiniteOrNeutralSubspace` (with the entry index and a
    neutral witness) when some image fails to be uniformly definite, which
    happens for perfectly ordinary invertible operators.
    """
    t = _operator_matrix(operator, family.space)
    return make_weighted_family(_images(t, family.subspaces, tol_rank), family.weights, tol_def)


class PreservationEntry(NamedTuple):
    index: int
    input_kind: SubspaceKind
    image_kind: SubspaceKind
    input_dim: int
    image_dim: int
    sign_preserved: bool
    witness: np.ndarray | None = None


class PreservationReport(NamedTuple):
    """Audit of the sufficient-condition hypotheses for one operator."""

    surjective: bool
    entries: tuple[PreservationEntry, ...]
    positive_span_image: Classification | None
    negative_span_image: Classification | None
    positive_span_ok: bool
    negative_span_ok: bool

    @property
    def all_entries_preserved(self) -> bool:
        return all(e.sign_preserved and e.input_dim == e.image_dim for e in self.entries)

    @property
    def sufficient(self) -> bool:
        return (self.surjective and self.all_entries_preserved
                and self.positive_span_ok and self.negative_span_ok)


def preservation_audit(operator, family: WeightedSubspaceFamily, tol_def: float = TOL_DEF,
                       tol_rank: float = TOL_RANK) -> PreservationReport:
    """Check every hypothesis of the preservation theorem on actual data.

    Requires the operator to be surjective (rank n); rank-deficient input
    raises :class:`NotSurjective` because none of the audited statements are
    meaningful without it.
    """
    return _transport(operator, family, tol_def, tol_rank)[0]


def _transport(operator, family: WeightedSubspaceFamily, tol_def: float, tol_rank: float
               ) -> tuple[PreservationReport, tuple[Subspace, ...], tuple[Classification, ...],
                          dict[str, Subspace]]:
    """:func:`preservation_audit`, with the entry images T W_i and their
    classifications it computed (stacked by dimension), and, by label, the
    span T M of the images of each nonempty sign class of the family, so
    that callers transport and span each of them once.  T M is spanned from
    the image bases, as the image family spans its own part spans.
    """
    t = _operator_matrix(operator, family.space)
    svals = np.linalg.svd(t, compute_uv=False)
    if svals[0] == 0.0 or svals[-1] <= tol_rank * svals[0]:
        raise NotSurjective(
            f"operator is numerically rank-deficient (sigma_min={svals[-1]:.3e})"
        )

    images = tuple(_images(t, family.subspaces, tol_rank))
    classes = tuple(_classify_all(images, tol_def))
    sign_kind = {1: SubspaceKind.UNIFORMLY_POSITIVE, -1: SubspaceKind.UNIFORMLY_NEGATIVE}
    entries = []
    for i, (sub, image, cls) in enumerate(zip(family.subspaces, images, classes)):
        expected = sign_kind[int(family.signs[i])]
        entries.append(PreservationEntry(
            index=i,
            input_kind=family.entry_classifications[i].kind,
            image_kind=cls.kind,
            input_dim=sub.dim,
            image_dim=image.dim,
            sign_preserved=cls.kind is expected,
            witness=cls.witness,
        ))

    spans = {label: subspace_sum(images[i] for i in indices)
             for label, indices in (("positive", family.positive_indices),
                                    ("negative", family.negative_indices)) if indices}

    def span_image(label: str, required: int, kind: SubspaceKind):
        if label not in spans:
            return None, required == 0
        cls = classify(spans[label], tol_def)
        return cls, cls.maximal_definite and cls.kind is kind

    pos_cls, pos_ok = span_image("positive", family.space.num_positive,
                                 SubspaceKind.UNIFORMLY_POSITIVE)
    neg_cls, neg_ok = span_image("negative", family.space.num_negative,
                                 SubspaceKind.UNIFORMLY_NEGATIVE)

    report = PreservationReport(
        surjective=True,
        entries=tuple(entries),
        positive_span_image=pos_cls,
        negative_span_image=neg_cls,
        positive_span_ok=bool(pos_ok),
        negative_span_ok=bool(neg_ok),
    )
    return report, images, classes, spans


class ImageCheckReport(NamedTuple):
    """Outcome of transporting a family through an operator.

    ``decomposition_original`` groups image entries by the *original* signs;
    ``decomposition_image`` regroups them by the signs their images actually
    carry.  When the operator shuffles signs the original grouping routinely
    fails.  The image grouping is the sign partition of the image family
    itself, so ``decomposition_image`` is ``image_verdict``.
    """

    sufficient: bool
    image_verdict: bool
    decomposition_original: bool
    decomposition_image: bool
    rejected_entry: int | None
    rejection_witness: np.ndarray | None
    preservation: PreservationReport
    image_report: JFusionReport | None


def image_fusion_check(operator, family: WeightedSubspaceFamily, tol_def: float = TOL_DEF,
                       tol_rank: float = TOL_RANK) -> ImageCheckReport:
    """Verify the image family and both sign-grouping decompositions.

    The images grouped by the original signs decompose the space exactly
    when the preservation audit finds T M+ and T M- maximal uniformly
    definite, since T M+/- is the span of those images.  Where the images
    keep the original signs, the image family's part spans are the same
    spans, and are reused.
    """
    preservation, images, classes, spans = _transport(operator, family, tol_def, tol_rank)

    rejected_entry = None
    rejection_witness = None
    image_report = None
    image_verdict = False
    try:
        image_family = _signed_family(images, family.weights, classes)
    except IndefiniteOrNeutralSubspace as exc:
        rejected_entry = exc.index
        rejection_witness = exc.witness
    else:
        if np.array_equal(image_family.signs, family.signs):
            for label, image_span in spans.items():  # the cached_property's slot
                image_family.__dict__[f"{label}_span"] = image_span
        image_report = verify_j_fusion_frame(image_family, tol_def, tol_rank)
        image_verdict = image_report.is_j_fusion_frame

    decomposition_original = preservation.positive_span_ok and preservation.negative_span_ok

    if preservation.sufficient and not image_verdict:
        raise InternalInconsistency(
            "preservation hypotheses verified on the data, yet the image family "
            "failed verification"
        )

    return ImageCheckReport(
        sufficient=preservation.sufficient,
        image_verdict=image_verdict,
        decomposition_original=decomposition_original,
        decomposition_image=image_verdict,
        rejected_entry=rejected_entry,
        rejection_witness=rejection_witness,
        preservation=preservation,
        image_report=image_report,
    )


def projection_commutation_residual(operator, subspace: Subspace, tol_def: float = TOL_DEF,
                                    tol_rank: float = TOL_RANK) -> float:
    """Defect of Q_V T# = Q_V T# Q_{T V} in the spectral norm.

    Both V and T(V) must be regular so the indefinite projectors exist; the
    identity itself is exact, so the returned number is numerical noise for
    well-conditioned inputs.  The defect is homogeneous in T; for an
    operator with an entry above 2^500 it is that of T rescaled by a power
    of two (see :func:`_operator_matrix`).
    """
    t = _operator_matrix(operator, subspace.space)
    q_v = j_projection(subspace, tol_def).matrix
    image = _images(t, [subspace], tol_rank)[0]
    q_tv = j_projection(image, tol_def).matrix
    t_sharp = j_adjoint_matrix(t, subspace.space)
    lhs = q_v @ t_sharp
    return operator_norm(lhs - lhs @ q_tv)
