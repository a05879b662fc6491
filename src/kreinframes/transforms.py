"""Images of weighted families under linear operators.

Answers three related questions: what family does an operator produce
(:func:`apply_operator`), do the hypotheses of the sufficient preservation
condition hold (:func:`preservation_audit`), and does the image actually
verify as a fusion frame, both as a whole and split by either the original
or the image sign partition (:func:`image_fusion_check`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._numeric import operator_norm, orth_columns, scaled_below_overflow
from .core import TOL_DEF, TOL_RANK, KreinSpace, Operator, j_adjoint_matrix
from .errors import (
    DimensionMismatch,
    IndefiniteOrNeutralSubspace,
    InternalInconsistency,
    NotSurjective,
)
from .fusion import JFusionReport, WeightedSubspaceFamily, make_weighted_family, verify_j_fusion_frame
from .subspaces import Classification, Subspace, SubspaceKind, classify, j_projection, subspace_sum


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


def _image_subspace(t: np.ndarray, sub: Subspace, tol_rank: float) -> Subspace:
    cols = orth_columns(t @ sub.basis, tol_rank)
    return Subspace(space=sub.space, basis=cols)


def apply_operator(operator, family: WeightedSubspaceFamily, tol_def: float = TOL_DEF,
                   tol_rank: float = TOL_RANK) -> WeightedSubspaceFamily:
    """The image family {(T W_i, v_i)}.

    Raises :class:`IndefiniteOrNeutralSubspace` (with the entry index and a
    neutral witness) when some image fails to be uniformly definite, which
    happens for perfectly ordinary invertible operators.
    """
    t = _operator_matrix(operator, family.space)
    images = [_image_subspace(t, sub, tol_rank) for sub in family.subspaces]
    return make_weighted_family(images, family.weights, tol_def)


@dataclass(frozen=True)
class PreservationEntry:
    index: int
    input_kind: SubspaceKind
    image_kind: SubspaceKind
    input_dim: int
    image_dim: int
    sign_preserved: bool
    witness: np.ndarray | None = field(repr=False, default=None)


@dataclass(frozen=True)
class PreservationReport:
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
    t = _operator_matrix(operator, family.space)
    svals = np.linalg.svd(t, compute_uv=False)
    if svals[0] == 0.0 or svals[-1] <= tol_rank * svals[0]:
        raise NotSurjective(
            f"operator is numerically rank-deficient (sigma_min={svals[-1]:.3e})"
        )

    sign_kind = {1: SubspaceKind.UNIFORMLY_POSITIVE, -1: SubspaceKind.UNIFORMLY_NEGATIVE}
    entries = []
    for i, sub in enumerate(family.subspaces):
        image = _image_subspace(t, sub, tol_rank)
        cls = classify(image, tol_def)
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

    def span_image(part_span, positive: bool):
        if part_span is None:
            return None, family.space.num_positive == 0 if positive else family.space.num_negative == 0
        image = _image_subspace(t, part_span, tol_rank)
        cls = classify(image, tol_def)
        ok = cls.maximal_definite and cls.kind is (
            SubspaceKind.UNIFORMLY_POSITIVE if positive else SubspaceKind.UNIFORMLY_NEGATIVE
        )
        return cls, ok

    pos_cls, pos_ok = span_image(family.positive_span, positive=True)
    neg_cls, neg_ok = span_image(family.negative_span, positive=False)

    return PreservationReport(
        surjective=True,
        entries=tuple(entries),
        positive_span_image=pos_cls,
        negative_span_image=neg_cls,
        positive_span_ok=bool(pos_ok),
        negative_span_ok=bool(neg_ok),
    )


@dataclass(frozen=True)
class ImageCheckReport:
    """Outcome of transporting a family through an operator.

    ``decomposition_original`` groups image entries by the *original* signs;
    ``decomposition_image`` regroups them by the signs their images actually
    carry.  When the operator shuffles signs the original grouping routinely
    fails while the image grouping holds whenever the image verdict does.
    """

    sufficient: bool
    image_verdict: bool
    decomposition_original: bool
    decomposition_image: bool
    rejected_entry: int | None
    rejection_witness: np.ndarray | None
    preservation: PreservationReport
    image_report: JFusionReport | None


def _decomposition_ok(images: list[Subspace], groups: tuple[list[int], list[int]],
                      space: KreinSpace, tol_def: float) -> bool:
    pos_idx, neg_idx = groups
    if pos_idx:
        pos_span = subspace_sum(images[i] for i in pos_idx)
        cls = classify(pos_span, tol_def)
        if not (cls.kind is SubspaceKind.UNIFORMLY_POSITIVE and cls.maximal_definite):
            return False
    elif space.num_positive != 0:
        return False
    if neg_idx:
        neg_span = subspace_sum(images[i] for i in neg_idx)
        cls = classify(neg_span, tol_def)
        if not (cls.kind is SubspaceKind.UNIFORMLY_NEGATIVE and cls.maximal_definite):
            return False
    elif space.num_negative != 0:
        return False
    return True


def image_fusion_check(operator, family: WeightedSubspaceFamily, tol_def: float = TOL_DEF,
                       tol_rank: float = TOL_RANK) -> ImageCheckReport:
    """Verify the image family and both sign-grouping decompositions."""
    t = _operator_matrix(operator, family.space)
    preservation = preservation_audit(t, family, tol_def, tol_rank)

    rejected_entry = None
    rejection_witness = None
    image_report = None
    try:
        image_family = apply_operator(t, family, tol_def, tol_rank)
    except IndefiniteOrNeutralSubspace as exc:
        image_family = None
        rejected_entry = exc.index
        rejection_witness = exc.witness
    if image_family is not None:
        image_report = verify_j_fusion_frame(image_family, tol_def, tol_rank)
        image_verdict = image_report.is_j_fusion_frame
    else:
        image_verdict = False

    images = [_image_subspace(t, sub, tol_rank) for sub in family.subspaces]
    original_groups = (list(family.positive_indices), list(family.negative_indices))
    decomposition_original = _decomposition_ok(images, original_groups, family.space, tol_def)

    if image_family is not None:
        image_groups = (
            [i for i in range(family.size) if image_family.signs[i] > 0],
            [i for i in range(family.size) if image_family.signs[i] < 0],
        )
        decomposition_image = _decomposition_ok(images, image_groups, family.space, tol_def)
    else:
        decomposition_image = False

    if preservation.sufficient and not image_verdict:
        raise InternalInconsistency(
            "preservation hypotheses verified on the data, yet the image family "
            "failed verification"
        )

    return ImageCheckReport(
        sufficient=preservation.sufficient,
        image_verdict=image_verdict,
        decomposition_original=decomposition_original,
        decomposition_image=decomposition_image,
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
    image = _image_subspace(t, subspace, tol_rank)
    q_tv = j_projection(image, tol_def).matrix
    t_sharp = j_adjoint_matrix(t, subspace.space)
    lhs = q_v @ t_sharp
    return operator_norm(lhs - lhs @ q_tv)
