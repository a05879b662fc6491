"""Images of weighted families under linear operators.

Answers three related questions: what family does an operator produce
(:func:`apply_operator`), do the hypotheses of the sufficient preservation
condition hold (:func:`preservation_audit`), and does the image actually
verify as a fusion frame, both as a whole and split by either the original
or the image sign partition (:func:`image_fusion_check`).

The audit of T M+/- is no decision of its own: the images T W_i grouped by
the original signs form a family whose part spans are T M+/-, and the
verification core (:mod:`kreinframes.frames`) checks that family's parts
as it checks those of any family.  Where T keeps every sign, that grouping
is the image family, so it is verified once.
"""

from typing import NamedTuple

import numpy as np

from ._numeric import operator_norm, scaled_below_overflow
from .core import TOL_DEF, TOL_RANK, KreinSpace, Operator, j_adjoint_matrix
from .errors import DimensionMismatch, IndefiniteOrNeutralSubspace, NotSurjective
from .frames import _class_checks
from .fusion import (
    _SIGNS,
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
    j_projection,
)


def _operator_matrix(operator, space: KreinSpace) -> np.ndarray:
    """The matrix of T, rescaled by a power of two when it is near the double limit.

    T is an :class:`Operator` on ``space`` or a raw matrix, which is
    validated as :class:`Operator` validates it: square of the dimension of
    ``space``, with finite entries.  Images T(W), ranks and the sign of
    every image are unchanged by a positive scale of T, and the rescale
    keeps T W from overflowing.
    """
    if not isinstance(operator, Operator):
        operator = Operator(space, operator)
    elif operator.space != space:
        raise DimensionMismatch("operator and family live in different spaces")
    return scaled_below_overflow(operator.matrix)


def apply_operator(operator, family: WeightedSubspaceFamily) -> WeightedSubspaceFamily:
    """The image family {(T W_i, v_i)}, at the family's tolerances.

    Raises :class:`IndefiniteOrNeutralSubspace` (with the entry index and a
    neutral witness) when some image fails to be uniformly definite, which
    happens for perfectly ordinary invertible operators.
    """
    t = _operator_matrix(operator, family.space)
    return make_weighted_family(_images(t, family.subspaces, family.tol_rank), family.weights,
                                family.tol_def, family.tol_rank)


class PreservationEntry(NamedTuple):
    index: int
    input_kind: SubspaceKind
    image_kind: SubspaceKind
    input_dim: int
    image_dim: int
    sign_preserved: bool


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


def preservation_audit(operator, family: WeightedSubspaceFamily) -> PreservationReport:
    """Check every hypothesis of the preservation theorem on actual data.

    Requires the operator to be surjective (rank n); rank-deficient input
    raises :class:`NotSurjective` because none of the audited statements are
    meaningful without it.
    """
    return _transport(operator, family)[0]


def _transport(operator, family: WeightedSubspaceFamily
               ) -> tuple[PreservationReport, WeightedSubspaceFamily]:
    """:func:`preservation_audit`, and the entry images T W_i it computed
    grouped by the signs of ``family``: the family of the images, their
    classifications (stacked by dimension) and the weights, with the signs
    and the tolerances of ``family`` whatever the images' own signs.

    The part spans of that grouping are the spans T M+/- of the images of
    each sign class, so the audit of T M+/- is the verification of the
    grouping: each ``*_span_image`` and ``*_span_ok`` is the classification
    and the pass of its part, as the verification core checks it
    (:func:`~kreinframes.frames._class_checks`, which keeps them for a later
    verification of the grouping).
    """
    tol_def, tol_rank = family.tol_def, family.tol_rank
    t = _operator_matrix(operator, family.space)
    svals = np.linalg.svd(t, compute_uv=False)
    if svals[0] == 0.0 or svals[-1] <= tol_rank * svals[0]:
        raise NotSurjective(
            f"operator is numerically rank-deficient (sigma_min={svals[-1]:.3e})"
        )

    images = tuple(_images(t, family.subspaces, tol_rank))
    classes = tuple(_classify_all(images, tol_def, tol_rank))
    grouped = WeightedSubspaceFamily(family.space, images, family.weights, family.signs, classes,
                                     tol_def, tol_rank)
    entries = tuple(PreservationEntry(
        index=i,
        input_kind=family.entry_classifications[i].kind,
        image_kind=cls.kind,
        input_dim=sub.dim,
        image_dim=image.dim,
        sign_preserved=_SIGNS.get(cls.kind) == int(family.signs[i]),
    ) for i, (sub, image, cls) in enumerate(zip(family.subspaces, images, classes)))
    parts, passed, _ = _class_checks(grouped)
    pos, neg = parts["positive"], parts["negative"]
    report = PreservationReport(
        surjective=True,
        entries=entries,
        positive_span_image=pos.classification if pos is not None else None,
        negative_span_image=neg.classification if neg is not None else None,
        positive_span_ok=passed["positive"],
        negative_span_ok=passed["negative"],
    )
    return report, grouped


class ImageCheckReport(NamedTuple):
    """Outcome of transporting a family through an operator.

    ``decomposition_original`` groups image entries by the *original* signs;
    ``decomposition_image`` regroups them by the signs their images actually
    carry.  When the operator shuffles signs the original grouping routinely
    fails.  The image grouping is the sign partition of the image family
    itself, so ``decomposition_image`` is ``image_verdict``.  The first
    entry image that is not uniformly definite is refused with its index,
    a witness in it and the witness's self-product.
    """

    sufficient: bool
    image_verdict: bool
    decomposition_original: bool
    decomposition_image: bool
    rejected_entry: int | None
    rejection_witness: np.ndarray | None
    rejection_self_product: float | None
    preservation: PreservationReport
    image_report: JFusionReport | None


def image_fusion_check(operator, family: WeightedSubspaceFamily) -> ImageCheckReport:
    """Verify the image family and both sign-grouping decompositions.

    The images grouped by the original signs decompose the space exactly
    when T M+ and T M- are maximal uniformly definite, since T M+/- is the
    span of those images; the preservation audit decides that as the
    verification of that grouping.  Where the images keep the original
    signs, the grouping is the image family, so its verification reuses
    the audit's classifications and each part span is classified once.
    The sufficient hypotheses then give the image verdict by the same
    checks, so they imply it.
    """
    preservation, grouped = _transport(operator, family)

    rejected_entry = rejection_witness = rejection_self_product = None
    image_report = None
    try:
        image_family = _signed_family(grouped.subspaces, family.weights,
                                      grouped.entry_classifications, family.tol_def,
                                      family.tol_rank)
    except IndefiniteOrNeutralSubspace as exc:
        rejected_entry, rejection_witness = exc.index, exc.witness
        rejection_self_product = exc.self_product
    else:
        if np.array_equal(image_family.signs, family.signs):
            image_family = grouped
        image_report = verify_j_fusion_frame(image_family)
    image_verdict = image_report is not None and image_report.is_j_fusion_frame

    return ImageCheckReport(
        sufficient=preservation.sufficient,
        image_verdict=image_verdict,
        decomposition_original=preservation.positive_span_ok and preservation.negative_span_ok,
        decomposition_image=image_verdict,
        rejected_entry=rejected_entry,
        rejection_witness=rejection_witness,
        rejection_self_product=rejection_self_product,
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
