"""Sign-partitioned vector frames for indefinite product spaces.

A finite vector sequence is partitioned by the sign of each self-product
``[f_i, f_i]``; neutral vectors are rejected.  The sequence is a valid frame
when the positive-sign vectors span a maximal uniformly positive subspace and
the negative-sign vectors a maximal uniformly negative one.  The frame
operator acts as ``S f = sum_i sigma_i [f, f_i] f_i``.

Bound conventions: the four-tuple ``(B-, A-, A+, B+)`` is ascending.  The
positive pair is the sharp range of ``sum_{i in I+} [f, f_i]^2 / [f, f]``
over the positive span; the negative pair is the sharp range of the analogous
ratio over the negative span (both entries negative, ``B- <= A- < 0``).
Missing parts contribute ``None`` slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._numeric import as_matrix, definite_pair_extrema, operator_norm
from .core import TOL_DEF, TOL_RANK, KreinSpace, Operator
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NeutralVector,
    NotAJFrame,
    SingularFrameOperator,
)
from .subspaces import Classification, Subspace, SubspaceKind, classify, reduced_min_modulus, span

Bounds4 = tuple[float | None, float | None, float | None, float | None]


@dataclass(frozen=True)
class VectorFrame:
    """A sign-partitioned vector sequence (rows of ``vectors``)."""

    space: KreinSpace
    vectors: np.ndarray = field(repr=False)
    signs: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

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
        return span(self.vectors[list(self.positive_indices)], self.space)

    @cached_property
    def negative_span(self) -> Subspace | None:
        if not self.negative_indices:
            return None
        return span(self.vectors[list(self.negative_indices)], self.space)

    def synthesis_matrix(self) -> np.ndarray:
        """n x m matrix whose columns are the frame vectors."""
        return self.vectors.T


def partition_by_sign(vectors, space: KreinSpace, tol_def: float = TOL_DEF) -> VectorFrame:
    """Partition vectors by the sign of their self-product.

    A vector with ``|[f, f]| <= tol_def * ||f||^2`` (including the zero
    vector) is neutral within tolerance and rejected.
    """
    v = as_matrix(np.atleast_2d(np.asarray(vectors, dtype=float)), "vectors")
    if v.shape[1] != space.dim:
        raise DimensionMismatch(f"vectors have length {v.shape[1]}, expected {space.dim}")
    signs = np.zeros(v.shape[0], dtype=int)
    for i, f in enumerate(v):
        self_product = float(f @ space.symmetry @ f)
        if abs(self_product) <= tol_def * float(f @ f):
            raise NeutralVector(
                f"vector {i} is neutral within tolerance: [f, f] = {self_product:.3e}",
                index=i,
                self_product=self_product,
            )
        signs[i] = 1 if self_product > 0.0 else -1
    return VectorFrame(space=space, vectors=v, signs=signs)


def frame_operator(frame: VectorFrame) -> Operator:
    """S = sum_i sigma_i f_i f_i^T J, i.e. S f = sum_i sigma_i [f, f_i] f_i."""
    v = frame.vectors
    s = (v * frame.signs[:, None]).T @ v @ frame.space.symmetry
    return Operator(frame.space, s)


def partial_frame_operator(frame: VectorFrame, indices) -> Operator:
    """Frame operator of a subfamily, signs inherited from the full frame."""
    idx = _validate_indices(frame, indices)
    n = frame.space.dim
    if not idx:
        return Operator(frame.space, np.zeros((n, n)))
    v = frame.vectors[idx]
    s = (v * frame.signs[idx, None]).T @ v @ frame.space.symmetry
    return Operator(frame.space, s)


def _validate_indices(frame: VectorFrame, indices) -> list[int]:
    idx = [int(i) for i in indices]
    for i in idx:
        if not 0 <= i < frame.size:
            raise IndexOutOfRange(f"index {i} outside range 0..{frame.size - 1}")
    if len(set(idx)) != len(idx):
        raise IndexOutOfRange("index subset contains duplicates")
    return idx


@dataclass(frozen=True)
class PartReport:
    """Verification data for one sign class of a frame."""

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
class JFrameReport:
    is_j_frame: bool
    positive: PartReport | None
    negative: PartReport | None
    bessel_bound: float
    bounds: Bounds4
    bound_estimates: Bounds4
    condition_number: float | None
    reasons: tuple[str, ...]


def _part_pencil(part_span: Subspace, vectors: np.ndarray) -> np.ndarray:
    """Numerator matrix of the bound pencil in the coordinates of the span."""
    g_vecs = part_span.basis.T @ part_span.space.symmetry @ vectors.T
    return g_vecs @ g_vecs.T


def _part_ratio_range(part_span: Subspace, vectors: np.ndarray, positive: bool,
                      tol_def: float) -> tuple[float, float]:
    num = _part_pencil(part_span, vectors)
    g = part_span.gram
    if positive:
        lo, hi = definite_pair_extrema(num, g, tol_def)
        return lo, hi
    lo, hi = definite_pair_extrema(num, -g, tol_def)
    return -hi, -lo


def _part_estimates(part_span: Subspace, vectors: np.ndarray, positive: bool,
                    tol_rank: float) -> tuple[float, float]:
    synthesis = vectors.T
    gamma_t = reduced_min_modulus(synthesis, tol_rank)
    gamma_g = reduced_min_modulus(part_span.gram, tol_rank)
    outer = operator_norm(synthesis) ** 2 / gamma_g
    inner = gamma_t**2 * gamma_g**2
    if positive:
        return inner, outer
    return -outer, -inner


def verify_j_frame(frame: VectorFrame, tol_def: float = TOL_DEF,
                   tol_rank: float = TOL_RANK) -> JFrameReport:
    """Check the two sign classes and compute bounds when both pass."""
    space = frame.space
    reasons: list[str] = []

    def build_part(indices, part_span, positive: bool) -> PartReport | None:
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
        vectors = frame.vectors[list(indices)]
        ratio = estimate = None
        if kind_ok:
            ratio = _part_ratio_range(part_span, vectors, positive, tol_def)
            estimate = _part_estimates(part_span, vectors, positive, tol_rank)
        return PartReport(
            indices=tuple(indices),
            classification=cls,
            required_dim=required,
            dim_ok=dim_ok,
            kind_ok=kind_ok,
            ratio_range=ratio,
            estimate_range=estimate,
        )

    pos = build_part(frame.positive_indices, frame.positive_span, positive=True)
    neg = build_part(frame.negative_indices, frame.negative_span, positive=False)
    pos_ok = pos.ok if pos is not None else space.num_positive == 0
    neg_ok = neg.ok if neg is not None else space.num_negative == 0
    is_frame = pos_ok and neg_ok

    v = frame.vectors
    bessel = float(np.linalg.eigvalsh(v.T @ v)[-1])

    def slot(part: PartReport | None):
        rng = part.ratio_range if part is not None else None
        est = part.estimate_range if part is not None else None
        return rng, est

    neg_rng, neg_est = slot(neg)
    pos_rng, pos_est = slot(pos)
    bounds: Bounds4 = (
        neg_rng[0] if (is_frame and neg_rng) else None,
        neg_rng[1] if (is_frame and neg_rng) else None,
        pos_rng[0] if (is_frame and pos_rng) else None,
        pos_rng[1] if (is_frame and pos_rng) else None,
    )
    estimates: Bounds4 = (
        neg_est[0] if neg_est else None,
        neg_est[1] if neg_est else None,
        pos_est[0] if pos_est else None,
        pos_est[1] if pos_est else None,
    )

    condition = None
    if is_frame:
        svals = np.linalg.svd(frame_operator(frame).matrix, compute_uv=False)
        condition = float(svals[0] / svals[-1]) if svals[-1] > 0 else float("inf")

    return JFrameReport(
        is_j_frame=is_frame,
        positive=pos,
        negative=neg,
        bessel_bound=bessel,
        bounds=bounds,
        bound_estimates=estimates,
        condition_number=condition,
        reasons=tuple(reasons),
    )


def is_j_frame(frame: VectorFrame, tol_def: float = TOL_DEF) -> bool:
    return verify_j_frame(frame, tol_def).is_j_frame


def optimal_j_frame_bounds(frame: VectorFrame, tol_def: float = TOL_DEF) -> Bounds4:
    report = verify_j_frame(frame, tol_def)
    if not report.is_j_frame:
        raise NotAJFrame("; ".join(report.reasons) or "frame verification failed")
    return report.bounds


def frame_bound_estimates(frame: VectorFrame, tol_rank: float = TOL_RANK) -> Bounds4:
    """Singular-value bound estimates (never sharper than the optimal bounds)."""
    report = verify_j_frame(frame, tol_rank=tol_rank)
    return report.bound_estimates


def frame_part_pencils(frame: VectorFrame) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Rayleigh pencils ``(numerator, denominator)`` per nonempty sign part.

    Each denominator is positive definite and the generalized eigenvalue
    range of the pencil equals the corresponding pair of optimal bounds
    directly (negative values for the negative part).
    """
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    if frame.positive_span is not None:
        vecs = frame.vectors[list(frame.positive_indices)]
        out["positive"] = (_part_pencil(frame.positive_span, vecs),
                           frame.positive_span.gram)
    if frame.negative_span is not None:
        vecs = frame.vectors[list(frame.negative_indices)]
        out["negative"] = (-_part_pencil(frame.negative_span, vecs),
                           -frame.negative_span.gram)
    return out


def canonical_dual(frame: VectorFrame, tol_def: float = TOL_DEF) -> VectorFrame:
    """The dual sequence {S^{-1} f_i}, partitioned afresh by sign.

    For a verified frame the dual keeps the sign pattern and its frame
    operator is exactly S^{-1}.
    """
    report = verify_j_frame(frame, tol_def)
    if not report.is_j_frame:
        raise NotAJFrame("; ".join(report.reasons) or "frame verification failed")
    s = frame_operator(frame).matrix
    svals = np.linalg.svd(s, compute_uv=False)
    if svals[-1] <= tol_def * svals[0]:
        raise SingularFrameOperator(
            f"verified frame produced singular frame operator (sigma_min={svals[-1]:.3e})"
        )
    dual_vectors = np.linalg.solve(s, frame.vectors.T).T
    return partition_by_sign(dual_vectors, frame.space, tol_def)


@dataclass(frozen=True)
class ReciprocityReport:
    """Comparison of dual-frame bounds against the reciprocals of the originals.

    The reciprocal pattern maps the ascending tuple (B-, A-, A+, B+) to
    (1/A-, 1/B-, 1/B+, 1/A+).  It is exact when the two part spans are
    J-orthogonal (for instance eigenspaces of the symmetry), since S then
    acts on each part separately; for tilted spans the measured dual bounds
    deviate, and ``max_relative_deviation`` records by how much.  ``dual``
    is the canonical dual frame the bounds were measured on;
    ``dual_operator_residual`` compares its own frame operator with S^{-1}
    (relative spectral norm), which it equals up to rounding.
    """

    dual: VectorFrame
    original_bounds: Bounds4
    dual_bounds: Bounds4
    reciprocal_expected: Bounds4
    max_relative_deviation: float
    dual_operator_residual: float


def _reciprocal_pattern(bounds: Bounds4) -> Bounds4:
    bm, am, ap, bp = bounds

    def inv(x):
        return None if x is None else 1.0 / x

    return (inv(am), inv(bm), inv(bp), inv(ap))


def _max_rel_dev(actual: Bounds4, expected: Bounds4) -> float:
    dev = 0.0
    for a, e in zip(actual, expected):
        if a is None or e is None:
            continue
        dev = max(dev, abs(a - e) / max(abs(e), 1e-300))
    return dev


def dual_reciprocity(frame: VectorFrame, tol_def: float = TOL_DEF) -> ReciprocityReport:
    """Measure how far the canonical dual's bounds are from the reciprocal pattern."""
    original = optimal_j_frame_bounds(frame, tol_def)
    dual = canonical_dual(frame, tol_def)
    dual_bounds = optimal_j_frame_bounds(dual, tol_def)
    expected = _reciprocal_pattern(original)
    s_inv = np.linalg.inv(frame_operator(frame).matrix)
    s_dual = frame_operator(dual).matrix
    return ReciprocityReport(
        dual=dual,
        original_bounds=original,
        dual_bounds=dual_bounds,
        reciprocal_expected=expected,
        max_relative_deviation=_max_rel_dev(dual_bounds, expected),
        dual_operator_residual=float(np.linalg.norm(s_dual - s_inv, 2)
                                     / np.linalg.norm(s_inv, 2)),
    )


def interlacing_identity(frame: VectorFrame, subset, f,
                         tol_def: float = TOL_DEF) -> tuple[float, float]:
    """Two sides of the subset-complement energy identity.

    For a subset I1 with complement I2,

        lhs = [S_I1 f, f] - [S^{-1} S_I1 f, S_I1 f]
        rhs = [S_I2 f, f] - [S^{-1} S_I2 f, S_I2 f]

    and lhs == rhs for every f (a consequence of S_I1 + S_I2 = S and the
    J-selfadjointness of all three operators).
    """
    idx = _validate_indices(frame, subset)
    report = verify_j_frame(frame, tol_def)
    if not report.is_j_frame:
        raise NotAJFrame("; ".join(report.reasons) or "frame verification failed")
    complement = [i for i in range(frame.size) if i not in set(idx)]
    s = frame_operator(frame).matrix
    s1 = partial_frame_operator(frame, idx).matrix
    s2 = partial_frame_operator(frame, complement).matrix
    j = frame.space.symmetry
    fv = np.asarray(f, dtype=float)

    def side(part: np.ndarray) -> float:
        pf = part @ fv
        return float(pf @ j @ fv - np.linalg.solve(s, pf) @ j @ pf)

    return side(s1), side(s2)
