"""Weighted families of uniformly definite subspaces and their fusion theory.

A weighted family assigns to each entry a uniformly definite subspace W_i and
a strictly positive weight v_i; the entry's sign sigma_i is the sign of the
indefinite product on W_i.  The family is a valid fusion frame when the
positive entries together span a maximal uniformly positive subspace and the
negative entries a maximal uniformly negative one.

The frame operator used throughout is S = sum_i sigma_i v_i^2 Q_{W_i}, built
from the indefinite-orthogonal projectors Q_{W_i}; it factors exactly as
S = T A where T is the synthesis map from the direct sum and A the projector
variant of the analysis map.  A second, projector-composition variant of the
analysis/operator pair is kept purely as a comparator (it fails to be
selfadjoint for the indefinite product on tilted entries); see ``variant``
arguments.

Bound conventions match :mod:`kreinframes.frames`: ascending four-tuples
``(B-, A-, A+, B+)`` with ``None`` slots for missing parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._numeric import (
    as_matrix,
    block_diag,
    definite_pair_extrema,
    operator_norm,
    orth_columns,
)
from .core import TOL_DEF, TOL_NUM, TOL_RANK, KreinSpace, Operator
from .errors import (
    DimensionMismatch,
    IndefiniteOrNeutralSubspace,
    InputError,
    KreinFrameError,
    NonPositiveWeight,
    NotAJFusionFrame,
    SingularFrameOperator,
)
from .frames import (
    Bounds4,
    VectorFrame,
    _max_rel_dev,
    _reciprocal_pattern,
    partition_by_sign,
    verify_j_frame,
)
from .subspaces import (
    Classification,
    Subspace,
    SubspaceKind,
    classify,
    j_orthogonal_complement,
    j_projection,
    reduced_min_modulus,
    regular_gram,
    span,
    subspace_sum,
)

VARIANTS = ("qproj", "paper")


@dataclass(frozen=True)
class WeightedSubspaceFamily:
    """Finitely many uniformly definite subspaces with positive weights."""

    space: KreinSpace
    subspaces: tuple[Subspace, ...]
    weights: np.ndarray = field(repr=False)
    signs: np.ndarray = field(repr=False)
    entry_classifications: tuple[Classification, ...] = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.subspaces)

    @cached_property
    def entry_dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.subspaces)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        offs = [0]
        for k in self.entry_dims:
            offs.append(offs[-1] + k)
        return tuple(offs)

    @property
    def total_dim(self) -> int:
        return self.offsets[-1]

    @cached_property
    def positive_indices(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.signs > 0))

    @cached_property
    def negative_indices(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.signs < 0))

    @cached_property
    def positive_span(self) -> Subspace | None:
        if not self.positive_indices:
            return None
        return subspace_sum(self.subspaces[i] for i in self.positive_indices)

    @cached_property
    def negative_span(self) -> Subspace | None:
        if not self.negative_indices:
            return None
        return subspace_sum(self.subspaces[i] for i in self.negative_indices)


def make_weighted_family(subspaces, weights, tol_def: float = TOL_DEF) -> WeightedSubspaceFamily:
    """Validate entries and weights and attach signs.

    Every entry must be uniformly definite within ``tol_def``; the rejection
    carries the entry index and a neutral-or-wrong-sign witness vector.
    Weights must be strictly positive.
    """
    subs = tuple(subspaces)
    if not subs:
        raise DimensionMismatch("a weighted family needs at least one entry")
    space = subs[0].space
    for i, s in enumerate(subs):
        if s.space != space:
            raise DimensionMismatch(f"entry {i} lives in a different space")
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.shape[0] != len(subs):
        raise DimensionMismatch(f"{len(subs)} entries but weight array of shape {w.shape}")
    for i, wi in enumerate(w):
        if not np.isfinite(wi) or wi <= 0.0:
            raise NonPositiveWeight(f"weight {i} is {wi!r}, must be strictly positive",
                                    index=i, weight=float(wi))
    signs = np.zeros(len(subs), dtype=int)
    classifications = []
    for i, s in enumerate(subs):
        cls = classify(s, tol_def)
        classifications.append(cls)
        if cls.kind is SubspaceKind.UNIFORMLY_POSITIVE:
            signs[i] = 1
        elif cls.kind is SubspaceKind.UNIFORMLY_NEGATIVE:
            signs[i] = -1
        else:
            raise IndefiniteOrNeutralSubspace(
                f"entry {i} is {cls.kind.value}, not uniformly definite",
                index=i,
                witness=cls.witness,
                self_product=float(cls.margin),
            )
    return WeightedSubspaceFamily(
        space=space,
        subspaces=subs,
        weights=w,
        signs=signs,
        entry_classifications=tuple(classifications),
    )


def family_from_spans(entry_vectors, weights, space: KreinSpace,
                      tol_def: float = TOL_DEF, tol_rank: float = TOL_RANK) -> WeightedSubspaceFamily:
    """Build a family from per-entry spanning vectors (rows)."""
    subs = []
    for i, rows in enumerate(entry_vectors):
        try:
            subs.append(span(rows, space, tol_rank))
        except DimensionMismatch as exc:
            raise DimensionMismatch(f"entry {i}: {exc}") from exc
    return make_weighted_family(subs, weights, tol_def)


@dataclass(frozen=True)
class DirectSumSpace:
    """Coordinate model of the external direct sum of the entries.

    Coordinates are stacked per-entry basis coefficients.  ``symmetry`` is
    the block-diagonal sign operator; ``indefinite_gram`` the block diagonal
    of entry Gram operators (the intrinsic indefinite pairing, against which
    the analysis operator is the exact adjoint of the synthesis); and
    ``hilbert_gram = symmetry @ indefinite_gram`` the associated positive
    pairing.
    """

    family: WeightedSubspaceFamily
    symmetry: np.ndarray = field(repr=False)
    indefinite_gram: np.ndarray = field(repr=False)
    hilbert_gram: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.family.total_dim

    def indefinite_product(self, c, d) -> float:
        return float(np.asarray(c, dtype=float) @ self.indefinite_gram @ np.asarray(d, dtype=float))

    def hilbert_product(self, c, d) -> float:
        return float(np.asarray(c, dtype=float) @ self.hilbert_gram @ np.asarray(d, dtype=float))


def direct_sum_space(family: WeightedSubspaceFamily) -> DirectSumSpace:
    sym = block_diag([s * np.eye(k) for s, k in zip(family.signs, family.entry_dims)])
    gram = block_diag([sub.gram for sub in family.subspaces])
    hilbert = block_diag([s * sub.gram for s, sub in zip(family.signs, family.subspaces)])
    return DirectSumSpace(
        family=family,
        symmetry=sym,
        indefinite_gram=gram,
        hilbert_gram=0.5 * (hilbert + hilbert.T),
    )


def fusion_synthesis(family: WeightedSubspaceFamily) -> np.ndarray:
    """Synthesis matrix T: stacked coordinates -> sum_i v_i B_i c_i (n x sum k_i)."""
    blocks = [w * sub.basis for w, sub in zip(family.weights, family.subspaces)]
    return np.hstack(blocks)


def fusion_analysis(family: WeightedSubspaceFamily, variant: str = "qproj",
                    tol_def: float = TOL_DEF) -> np.ndarray:
    """Analysis matrix (sum k_i x n), per-entry coordinate blocks.

    ``qproj``: row block ``v_i G_i^{-1} B_i^T J`` — the coordinates of
    ``v_i Q_{W_i} f``.  This is the exact adjoint of the synthesis against
    the indefinite direct-sum pairing (block-diagonal entry Grams), and
    ``synthesis @ analysis`` reproduces the frame operator.

    ``paper``: row block ``sigma_i v_i G_i B_i^T J`` — kept as a comparator;
    it is not an adjoint of the synthesis for any of the natural pairings
    unless every entry basis is orthonormal for the indefinite product too.
    """
    if variant not in VARIANTS:
        raise InputError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    j = family.space.symmetry
    rows = []
    for sigma, w, sub in zip(family.signs, family.weights, family.subspaces):
        bt_j = sub.basis.T @ j
        if variant == "qproj":
            g = sub.gram
            _require_regular_entry(g, tol_def)
            rows.append(w * np.linalg.solve(g, bt_j))
        else:
            rows.append(sigma * w * (sub.gram @ bt_j))
    return np.vstack(rows)


def _require_regular_entry(g: np.ndarray, tol_def: float) -> None:
    smin = float(np.min(np.abs(np.linalg.eigvalsh(g))))
    if smin <= tol_def:
        raise IndefiniteOrNeutralSubspace(
            f"entry Gram operator is numerically singular (sigma_min={smin:.3e})",
            index=-1,
        )


def fusion_frame_operator(family: WeightedSubspaceFamily, variant: str = "qproj",
                          tol_def: float = TOL_DEF) -> Operator:
    """The fusion frame operator.

    ``qproj`` (the operative choice): S = sum_i v_i^2 Q_{W_i}.  No explicit
    entry sign appears: Q_{W_i} already acts negatively on a uniformly
    negative W_i ([Qf, f] = [Qf, Qf] < 0), which is what makes S equal
    ``T @ A`` exactly, the identity on a fundamental decomposition with unit
    weights, and S+ - S- with both parts positive for the indefinite
    product.

    ``paper`` (comparator): sum_i sigma_i v_i^2 pi_{J W_i}, the literal
    signed projector-composition reading; not selfadjoint on tilted entries
    and equal to J (not the identity) on a fundamental decomposition.
    """
    if variant not in VARIANTS:
        raise InputError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    n = family.space.dim
    j = family.space.symmetry
    acc = np.zeros((n, n))
    for sigma, w, sub in zip(family.signs, family.weights, family.subspaces):
        if variant == "qproj":
            acc += w**2 * j_projection(sub, tol_def).matrix
        else:
            pi = sub.basis @ sub.basis.T
            acc += sigma * w**2 * (j @ pi @ j)
    return Operator(family.space, acc)


def fusion_operator_parts(family: WeightedSubspaceFamily,
                          tol_def: float = TOL_DEF) -> tuple[Operator, Operator]:
    """(S+, S-) with S = S+ - S- and both parts positive for [.,.].

    S+ sums the positive entries' weighted J-projections; S- is minus the
    negative entries' sum, which flips its sign behaviour to J-positive.
    """
    n = family.space.dim
    plus = np.zeros((n, n))
    minus = np.zeros((n, n))
    for sigma, w, sub in zip(family.signs, family.weights, family.subspaces):
        q = w**2 * j_projection(sub, tol_def).matrix
        if sigma > 0:
            plus += q
        else:
            minus -= q
    return Operator(family.space, plus), Operator(family.space, minus)


def bessel_bound(family: WeightedSubspaceFamily) -> float:
    """Smallest C with sum_i v_i^2 ||pi_i f||^2 <= C ||f||^2.

    That sum is ``f^T T T^T f`` with T the synthesis matrix, so C is the
    largest eigenvalue of ``T T^T``.
    """
    t = fusion_synthesis(family)
    return float(np.linalg.eigvalsh(t @ t.T)[-1])


@dataclass(frozen=True)
class FusionPartReport:
    indices: tuple[int, ...]
    classification: Classification
    required_dim: int
    dim_ok: bool
    kind_ok: bool
    ratio_range: tuple[float, float] | None
    estimate_range: tuple[float, float] | None

    @property
    def ok(self) -> bool:
        return self.dim_ok and self.kind_ok


@dataclass(frozen=True)
class JFusionReport:
    is_j_fusion_frame: bool
    positive: FusionPartReport | None
    negative: FusionPartReport | None
    bessel_bound: float
    bounds: Bounds4
    bound_estimates: Bounds4
    complete: bool
    reasons: tuple[str, ...]


def _fusion_part_numerator(family: WeightedSubspaceFamily, indices,
                           part_basis: np.ndarray) -> np.ndarray:
    """Compressed numerator sum_i v_i^2 [pi_i f, pi_i f] on the part span."""
    n = family.space.dim
    acc = np.zeros((n, n))
    for i in indices:
        b = family.subspaces[i].basis
        g = family.subspaces[i].gram
        acc += family.weights[i] ** 2 * (b @ g @ b.T)
    return part_basis.T @ acc @ part_basis


def _fusion_part_data(family: WeightedSubspaceFamily, indices, part_span: Subspace,
                      positive: bool, tol_def: float, tol_rank: float):
    numerator = _fusion_part_numerator(family, indices, part_span.basis)
    g = part_span.gram
    if positive:
        ratio = definite_pair_extrema(numerator, g, tol_def)
    else:
        # On the negative part the per-entry products [pi_i f, pi_i f] are
        # themselves negative, so the eigenvalues of (numerator, -gram) are
        # already the (negative) bound values; no extra sign flip.
        ratio = definite_pair_extrema(numerator, -g, tol_def)
    synthesis = np.hstack([family.weights[i] * family.subspaces[i].basis for i in indices])
    gamma_t = reduced_min_modulus(synthesis, tol_rank)
    gamma_g = reduced_min_modulus(g, tol_rank)
    outer = operator_norm(synthesis) ** 2 / gamma_g
    inner = gamma_t**2 * gamma_g**2
    estimate = (inner, outer) if positive else (-outer, -inner)
    return ratio, estimate


def verify_j_fusion_frame(family: WeightedSubspaceFamily, tol_def: float = TOL_DEF,
                          tol_rank: float = TOL_RANK) -> JFusionReport:
    """Check span maximality per sign and compute bounds when both pass."""
    space = family.space
    reasons: list[str] = []

    def build_part(indices, part_span, positive: bool) -> FusionPartReport | None:
        required = space.num_positive if positive else space.num_negative
        label = "positive" if positive else "negative"
        good_kind = SubspaceKind.UNIFORMLY_POSITIVE if positive else SubspaceKind.UNIFORMLY_NEGATIVE
        if part_span is None:
            if required != 0:
                reasons.append(f"{label} part is empty but signature requires dimension {required}")
            return None
        cls = classify(part_span, tol_def, tol_rank)
        kind_ok = cls.kind is good_kind
        dim_ok = part_span.dim == required
        if not kind_ok:
            reasons.append(f"{label} span is {cls.kind.value}, not uniformly {label}")
        if not dim_ok:
            reasons.append(f"{label} span has dimension {part_span.dim}, signature requires {required}")
        ratio = estimate = None
        if kind_ok:
            ratio, estimate = _fusion_part_data(family, indices, part_span, positive,
                                                tol_def, tol_rank)
        return FusionPartReport(
            indices=tuple(indices),
            classification=cls,
            required_dim=required,
            dim_ok=dim_ok,
            kind_ok=kind_ok,
            ratio_range=ratio,
            estimate_range=estimate,
        )

    pos = build_part(family.positive_indices, family.positive_span, positive=True)
    neg = build_part(family.negative_indices, family.negative_span, positive=False)
    pos_ok = pos.ok if pos is not None else space.num_positive == 0
    neg_ok = neg.ok if neg is not None else space.num_negative == 0
    verdict = pos_ok and neg_ok

    stacked = np.hstack([s.basis for s in family.subspaces])
    complete = orth_columns(stacked, tol_rank).shape[1] == space.dim

    bounds: Bounds4 = (
        neg.ratio_range[0] if (verdict and neg and neg.ratio_range) else None,
        neg.ratio_range[1] if (verdict and neg and neg.ratio_range) else None,
        pos.ratio_range[0] if (verdict and pos and pos.ratio_range) else None,
        pos.ratio_range[1] if (verdict and pos and pos.ratio_range) else None,
    )
    estimates: Bounds4 = (
        neg.estimate_range[0] if (neg and neg.estimate_range) else None,
        neg.estimate_range[1] if (neg and neg.estimate_range) else None,
        pos.estimate_range[0] if (pos and pos.estimate_range) else None,
        pos.estimate_range[1] if (pos and pos.estimate_range) else None,
    )

    return JFusionReport(
        is_j_fusion_frame=verdict,
        positive=pos,
        negative=neg,
        bessel_bound=bessel_bound(family),
        bounds=bounds,
        bound_estimates=estimates,
        complete=complete,
        reasons=tuple(reasons),
    )


def optimal_fusion_bounds(family: WeightedSubspaceFamily, tol_def: float = TOL_DEF) -> Bounds4:
    return _verified(family, tol_def).bounds


def _verified(family: WeightedSubspaceFamily, tol_def: float) -> JFusionReport:
    """The report of a family that must verify; raises :class:`NotAJFusionFrame`."""
    report = verify_j_fusion_frame(family, tol_def)
    if not report.is_j_fusion_frame:
        raise NotAJFusionFrame("; ".join(report.reasons) or "fusion verification failed")
    return report


def fusion_bound_estimates(family: WeightedSubspaceFamily,
                           tol_rank: float = TOL_RANK) -> Bounds4:
    report = verify_j_fusion_frame(family, tol_rank=tol_rank)
    return report.bound_estimates


def part_pencils(family: WeightedSubspaceFamily
                 ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Rayleigh pencils ``(numerator, denominator)`` per nonempty sign part.

    Each denominator is positive definite and the generalized eigenvalue
    range of the pencil equals the corresponding pair of optimal bounds
    directly (negative values for the negative part).
    """
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    if family.positive_span is not None:
        num = _fusion_part_numerator(family, family.positive_indices,
                                     family.positive_span.basis)
        out["positive"] = (num, family.positive_span.gram)
    if family.negative_span is not None:
        num = _fusion_part_numerator(family, family.negative_indices,
                                     family.negative_span.basis)
        out["negative"] = (num, -family.negative_span.gram)
    return out


def canonical_dual_fusion(family: WeightedSubspaceFamily, tol_def: float = TOL_DEF
                          ) -> tuple[WeightedSubspaceFamily, Operator]:
    """Dual family {(S^{-1} W_i, v_i)} together with S^{-1}.

    The dual entries keep their signs and the dual family is again a valid
    fusion frame.  It reconstructs through the original projections,
    ``sum_i v_i^2 Q_{S^{-1} W_i} S^{-1} Q_{W_i} = I``, exactly, because
    ``S^{-1} Q_{W_i} f`` lies in ``S^{-1} W_i``.  Its own frame operator is
    *not* S^{-1} in general (see :func:`fusion_dual_diagnostics`).
    """
    _verified(family, tol_def)
    return _canonical_dual_of_verified(family, tol_def)


def _canonical_dual_of_verified(family: WeightedSubspaceFamily, tol_def: float
                                ) -> tuple[WeightedSubspaceFamily, Operator]:
    """:func:`canonical_dual_fusion` of a family already verified at ``tol_def``."""
    s = fusion_frame_operator(family, "qproj", tol_def).matrix
    svals = np.linalg.svd(s, compute_uv=False)
    if svals[-1] <= tol_def * svals[0]:
        raise SingularFrameOperator(
            f"verified fusion frame produced singular frame operator (sigma_min={svals[-1]:.3e})"
        )
    s_inv = np.linalg.inv(s)
    dual_subs = []
    for sub in family.subspaces:
        cols = s_inv @ sub.basis
        dual_subs.append(Subspace(space=family.space, basis=orth_columns(cols, TOL_RANK)))
    dual = make_weighted_family(dual_subs, family.weights, tol_def)
    return dual, Operator(family.space, s_inv)


@dataclass(frozen=True)
class FusionDualReport:
    """Everything measurable about the canonical dual family.

    ``dual_operator_residual`` compares the dual family's own frame operator
    with S^{-1} (relative spectral norm); ``span_identity_residual`` checks
    the exact identities S^{-1} M+/- = (M-/+)^[perp], which do hold.
    """

    dual: WeightedSubspaceFamily
    inverse: Operator
    original_bounds: Bounds4
    dual_bounds: Bounds4
    reciprocal_expected: Bounds4
    max_relative_deviation: float
    dual_operator_residual: float
    span_identity_residual: float


def fusion_dual_diagnostics(family: WeightedSubspaceFamily,
                            tol_def: float = TOL_DEF) -> FusionDualReport:
    original_bounds = optimal_fusion_bounds(family, tol_def)
    dual, inverse = _canonical_dual_of_verified(family, tol_def)
    dual_bounds = optimal_fusion_bounds(dual, tol_def)
    expected = _reciprocal_pattern(original_bounds)
    s_dual = fusion_frame_operator(dual, "qproj", tol_def).matrix
    op_residual = operator_norm(s_dual - inverse.matrix) / operator_norm(inverse.matrix)

    span_residual = 0.0
    for source, other in ((family.positive_span, family.negative_span),
                          (family.negative_span, family.positive_span)):
        if source is None:
            continue
        mapped = orth_columns(inverse.matrix @ source.basis, TOL_RANK)
        if other is None:
            target = np.eye(family.space.dim)
        else:
            target = j_orthogonal_complement(other).basis
        span_residual = max(
            span_residual,
            operator_norm(mapped @ mapped.T - target @ target.T),
        )

    return FusionDualReport(
        dual=dual,
        inverse=inverse,
        original_bounds=original_bounds,
        dual_bounds=dual_bounds,
        reciprocal_expected=expected,
        max_relative_deviation=_max_rel_dev(dual_bounds, expected),
        dual_operator_residual=float(op_residual),
        span_identity_residual=float(span_residual),
    )


def j_image_family(family: WeightedSubspaceFamily, tol_def: float = TOL_DEF) -> WeightedSubspaceFamily:
    """The family {(J W_i, v_i)}: signs are preserved and validity transfers."""
    j = family.space.symmetry
    subs = [Subspace(space=family.space, basis=orth_columns(j @ s.basis, TOL_RANK))
            for s in family.subspaces]
    return make_weighted_family(subs, family.weights, tol_def)


def adjoint_identity_residual(family: WeightedSubspaceFamily, variant: str = "qproj",
                              seed: int = 0, ntrials: int = 50,
                              tol_def: float = TOL_DEF) -> float:
    """Max normalized defect of [T c, f] = [c, A f] over random pairs.

    The pairing on the direct sum is the intrinsic indefinite one
    (``indefinite_product``, block-diagonal entry Grams).  Zero for the
    ``qproj`` variant; generically large for the ``paper`` variant.
    """
    dsum = direct_sum_space(family)
    t = fusion_synthesis(family)
    a = fusion_analysis(family, variant, tol_def)
    j = family.space.symmetry
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(ntrials):
        c = rng.standard_normal(family.total_dim)
        f = rng.standard_normal(family.space.dim)
        lhs = float((t @ c) @ j @ f)
        rhs = dsum.indefinite_product(c, a @ f)
        scale = max(1.0, abs(lhs), abs(rhs))
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


@dataclass(frozen=True)
class RpsEntry:
    """Projection-alignment residuals for one entry relative to its part span.

    With pi_W, pi_M the Euclidean projectors onto the entry W and its part
    span M and Q_W the indefinite projector onto W,
    ``r = || J pi_W J pi_M - pi_W ||`` measures how far composing the two
    natural projectors is from the Euclidean projector onto the entry, and
    ``r_prime = || (Q_W - pi_W) pi_M ||`` the difference between the
    indefinite and Euclidean projectors on vectors of the part span, as
    :func:`~kreinframes.subspaces.check_rjpp` does for a pair.
    ``r_prime`` vanishes exactly when the entry is J-orthogonal to its
    Euclidean complement in the part span: always for an entry that fills
    its part span or lies in an eigenspace of J, but generically not for a
    proper entry of a tilted part span.  ``r`` vanishes exactly when
    ``J W_i = W_i``.
    """

    index: int
    part: str
    r: float
    r_prime: float


def check_rps_corollary(family: WeightedSubspaceFamily,
                        tol_def: float = TOL_DEF) -> tuple[RpsEntry, ...]:
    """Projection-alignment residuals of every entry against its part span.

    Both spectral norms are taken in entry coordinates, never on n x n
    projectors.  With B and B_M orthonormal bases of the entry and its part
    span and G = B^T J B:

    * ``(Q_W - pi_W) pi_M = B [G^{-1} (JB)^T B_M - B^T B_M] B_M^T``, and
      multiplying by matrices with orthonormal columns (B on the left, B_M^T
      on the right) keeps the spectral norm, so ``r_prime`` is the norm of
      the k x k_M bracket.
    * ``J pi_W J pi_M - pi_W = [JB, B] Y`` with ``Y`` the rows
      ``(JB)^T B_M B_M^T`` over ``-B^T``.  A Householder QR
      ``[JB, B] = V R`` (no pivoting, no rank decision) gives V with
      orthonormal columns even when ``JW = W`` makes the block
      rank-deficient, so ``r = || R Y ||``, a 2k x n problem.

    Each entry must be regular: :class:`~kreinframes.errors.NotRegular` is
    raised, as :func:`~kreinframes.subspaces.j_projection` raises it, when
    the Gram margin of an entry is at most ``tol_def``.
    """
    j = family.space.symmetry
    out = []
    for i, (sigma, sub) in enumerate(zip(family.signs, family.subspaces)):
        part_span = family.positive_span if sigma > 0 else family.negative_span
        label = "positive" if sigma > 0 else "negative"
        g = regular_gram(sub, tol_def)
        b = sub.basis
        b_m = part_span.basis
        jb = j @ b
        jb_t_bm = jb.T @ b_m
        r_prime = operator_norm(np.linalg.solve(g, jb_t_bm) - b.T @ b_m)
        r_factor = np.linalg.qr(np.hstack([jb, b]), mode="r")
        k = sub.dim
        r = operator_norm(r_factor[:, :k] @ jb_t_bm @ b_m.T - r_factor[:, k:] @ b.T)
        out.append(RpsEntry(index=i, part=label, r=float(r), r_prime=float(r_prime)))
    return tuple(out)


@dataclass(frozen=True)
class EquivalenceReport:
    """Agreement between the fusion verdict and the flattened-frame verdict."""

    fusion_verdict: bool
    frame_verdict: bool
    hypothesis_ok: bool

    @property
    def agree(self) -> bool:
        return self.fusion_verdict == self.frame_verdict


def equivalence_check(entry_vectors, weights, space: KreinSpace,
                      tol_def: float = TOL_DEF) -> EquivalenceReport:
    """Compare a family built from local spanning sets with its flattening.

    Route one spans each entry and verifies the weighted family; route two
    scales every local vector by its entry weight, concatenates, and verifies
    the result as a plain vector frame.  Under the hypothesis that every
    local span is uniformly definite the two verdicts coincide.
    """
    w = np.asarray(weights, dtype=float)
    hypothesis_ok = True
    try:
        family = family_from_spans(entry_vectors, w, space, tol_def)
        fusion_verdict = verify_j_fusion_frame(family, tol_def).is_j_fusion_frame
    except IndefiniteOrNeutralSubspace:
        hypothesis_ok = False
        fusion_verdict = False

    flat = []
    for wi, rows in zip(w, entry_vectors):
        rows = as_matrix(np.atleast_2d(np.asarray(rows, dtype=float)), "entry vectors")
        flat.append(wi * rows)
    stacked = np.vstack(flat)
    try:
        frame = partition_by_sign(stacked, space, tol_def)
        frame_verdict = verify_j_frame(frame, tol_def).is_j_frame
    except KreinFrameError:
        frame_verdict = False
    return EquivalenceReport(
        fusion_verdict=fusion_verdict,
        frame_verdict=frame_verdict,
        hypothesis_ok=hypothesis_ok,
    )


def flatten_family(family: WeightedSubspaceFamily) -> VectorFrame:
    """The weighted concatenation {v_i b_ij}_ij of the entry basis vectors."""
    rows = []
    for w, sub in zip(family.weights, family.subspaces):
        rows.append(w * sub.basis.T)
    return partition_by_sign(np.vstack(rows), family.space)
