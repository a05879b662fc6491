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

from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._numeric import (
    OVERFLOW_GUARD,
    UNDERFLOW_GUARD,
    as_matrix,
    column_space,
    definite_pair_extrema,
    operator_norm,
    scaled_below_overflow,
)
from .core import TOL_DEF, TOL_RANK, KreinSpace, Operator
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InputError,
    NeutralVector,
    NotAJFrame,
    SingularFrameOperator,
)
from .subspaces import Classification, Subspace, SubspaceKind, classify, smallest_nonzero_modulus

Bounds4 = tuple[float | None, float | None, float | None, float | None]


class VectorFrame:
    """A sign-partitioned vector sequence (rows of ``vectors``)."""

    def __init__(self, space: KreinSpace, vectors: np.ndarray, signs: np.ndarray):
        self.space = space
        self.vectors = vectors
        self.signs = signs

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
    def _class_spans(self) -> dict[str, tuple[Subspace, np.ndarray]]:
        """The span of each nonempty sign class (``"positive"``, ``"negative"``)
        and the singular values of the class's synthesis matrix, both from one
        SVD of that matrix (:func:`~kreinframes._numeric.column_space`)."""
        spans = {}
        for label, indices in (("positive", self.positive_indices),
                               ("negative", self.negative_indices)):
            if indices:
                basis, svals = column_space(self.vectors[list(indices)].T, TOL_RANK)
                spans[label] = (Subspace(space=self.space, basis=basis), svals)
        return spans

    @property
    def positive_span(self) -> Subspace | None:
        return self._class_spans["positive"][0] if "positive" in self._class_spans else None

    @property
    def negative_span(self) -> Subspace | None:
        return self._class_spans["negative"][0] if "negative" in self._class_spans else None

    def synthesis_matrix(self) -> np.ndarray:
        """n x m matrix whose columns are the frame vectors."""
        return self.vectors.T


def _require_finite(values, what: str) -> None:
    if not np.isfinite(values).all():
        raise InputError(f"{what} overflows a double")


def partition_by_sign(vectors, space: KreinSpace, tol_def: float = TOL_DEF) -> VectorFrame:
    """Partition vectors by the sign of their self-product.

    A vector with ``|[f, f]| <= tol_def * ||f||^2`` (including the zero
    vector) is neutral within tolerance and rejected.  The test does not
    depend on the scale of ``f``, so a vector whose entries all lie below
    ``UNDERFLOW_GUARD`` (or one above ``OVERFLOW_GUARD``) takes it after an
    exact power-of-two rescale, where its products cannot underflow.  A
    vector whose self-product or squared norm overflows a double raises
    :class:`InputError`: every bound of such a sequence overflows too.  All
    self-products and squared norms come from one product ``V J`` and two
    row-wise contractions.
    """
    v = as_matrix(np.atleast_2d(np.asarray(vectors, dtype=float)), "vectors")
    if v.shape[1] != space.dim:
        raise DimensionMismatch(f"vectors have length {v.shape[1]}, expected {space.dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        self_products, norms_sq = _self_products(v, space)
        products, sizes = self_products.copy(), norms_sq.copy()
        peaks = np.max(np.abs(v), axis=1)
        off_scale = np.flatnonzero(~((UNDERFLOW_GUARD <= peaks) & (peaks <= OVERFLOW_GUARD)))
        if off_scale.size:
            scaled = np.stack([scaled_below_overflow(v[i], UNDERFLOW_GUARD) for i in off_scale])
            products[off_scale], sizes[off_scale] = _self_products(scaled, space)
        infinite = ~(np.isfinite(self_products) & np.isfinite(norms_sq))
        neutral = np.abs(products) <= tol_def * sizes
    bad = np.flatnonzero(infinite | neutral)
    if bad.size:
        i = int(bad[0])
        _require_finite((self_products[i], norms_sq[i]), f"the self-product of vector {i}")
        raise NeutralVector(
            f"vector {i} is neutral within tolerance: [f, f] = {float(self_products[i]):.3e}",
            index=i,
            self_product=float(self_products[i]),
        )
    return VectorFrame(space=space, vectors=v, signs=np.where(products > 0.0, 1, -1))


def _self_products(v: np.ndarray, space: KreinSpace) -> tuple[np.ndarray, np.ndarray]:
    """``[f, f]`` and ``||f||^2`` of every row f of ``v``."""
    return np.einsum("ij,ij->i", v @ space.symmetry, v), np.einsum("ij,ij->i", v, v)


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


class PartReport(NamedTuple):
    """Verification data for one sign class of a frame or a fusion family."""

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


class JFrameReport(NamedTuple):
    """Verdict, bounds and estimates of a vector frame.

    ``pencils`` holds the Rayleigh pencils the bounds were computed from, as
    :func:`frame_part_pencils` returns them.  A frame that verifies also
    carries the matrix of its frame operator S and the singular values of S.
    """

    is_j_frame: bool
    positive: PartReport | None
    negative: PartReport | None
    bessel_bound: float
    bounds: Bounds4
    bound_estimates: Bounds4
    condition_number: float | None
    reasons: tuple[str, ...]
    pencils: dict
    operator: np.ndarray | None = None
    singular_values: np.ndarray | None = None


# One nonempty sign class: indices, span, signed Rayleigh pencil
# (numerator, denominator) and the singular values, in descending order, of
# its synthesis matrix (whose columns are the weighted members of the class).
SignPart = tuple[tuple[int, ...], Subspace, tuple[np.ndarray, np.ndarray], np.ndarray]

_PART_KINDS = (("positive", SubspaceKind.UNIFORMLY_POSITIVE),
               ("negative", SubspaceKind.UNIFORMLY_NEGATIVE))


def _bessel_bound(synthesis: np.ndarray) -> float:
    """Largest eigenvalue of ``T T^T``; refused when it exceeds the double range."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = synthesis @ synthesis.T
    _require_finite(gram, "the Bessel bound")
    bessel = float(np.linalg.eigvalsh(gram)[-1])
    _require_finite(bessel, "the Bessel bound")
    return bessel


def _verify_sign_parts(space: KreinSpace, parts: dict[str, SignPart], synthesis: np.ndarray,
                       tol_def: float, tol_rank: float) -> tuple[bool, dict]:
    """The sign-partitioned check shared by vector frames and fusion families.

    ``parts`` maps ``"positive"`` and ``"negative"`` to the :data:`SignPart`
    of each nonempty sign class and ``synthesis`` is the synthesis matrix of
    the whole system.  Each class must span a maximal uniformly definite
    subspace of its sign; its bounds are the extreme eigenvalues of its
    signed pencil, and its estimates come from reduced minimum moduli: of
    the synthesis, from its singular values, and of the span's Gram, from
    the eigenvalues :func:`classify` computed.
    Returns the verdict and the report fields both report classes share.
    Bounds or a Bessel constant beyond the double range raise
    :class:`InputError`.
    """
    bessel = _bessel_bound(synthesis)
    reasons: list[str] = []
    reports: dict[str, PartReport | None] = {}
    for label, good_kind in _PART_KINDS:
        required = space.num_positive if label == "positive" else space.num_negative
        if label not in parts:
            if required != 0:
                reasons.append(f"{label} part is empty but signature requires dimension {required}")
            reports[label] = None
            continue
        indices, part_span, (numerator, denominator), synthesis_svals = parts[label]
        cls = classify(part_span, tol_def, tol_rank)
        kind_ok = cls.kind is good_kind
        dim_ok = part_span.dim == required
        if not kind_ok:
            reasons.append(f"{label} span is {cls.kind.value}, not uniformly {label}")
        if not dim_ok:
            reasons.append(f"{label} span has dimension {part_span.dim}, signature requires {required}")
        ratio = estimate = None
        if kind_ok:
            with np.errstate(over="ignore", invalid="ignore"):
                _require_finite(numerator + numerator.T, f"the {label} frame bound")
            ratio = definite_pair_extrema(numerator, denominator)
            gamma_t = smallest_nonzero_modulus(synthesis_svals, tol_rank)
            gamma_g = cls.gamma
            outer = float(synthesis_svals[0]) ** 2 / gamma_g
            inner = gamma_t**2 * gamma_g**2
            estimate = (inner, outer) if label == "positive" else (-outer, -inner)
            _require_finite(ratio + estimate, f"the {label} frame bound")
        reports[label] = PartReport(
            indices=tuple(indices),
            classification=cls,
            required_dim=required,
            dim_ok=dim_ok,
            kind_ok=kind_ok,
            ratio_range=ratio,
            estimate_range=estimate,
        )

    pos, neg = reports["positive"], reports["negative"]
    verdict = ((pos.ok if pos is not None else space.num_positive == 0)
               and (neg.ok if neg is not None else space.num_negative == 0))

    def pair(part: PartReport | None, attr: str, keep: bool):
        value = getattr(part, attr) if (keep and part is not None) else None
        return value if value is not None else (None, None)

    return verdict, {
        "positive": pos,
        "negative": neg,
        "bessel_bound": bessel,
        "bounds": (*pair(neg, "ratio_range", verdict), *pair(pos, "ratio_range", verdict)),
        "bound_estimates": (*pair(neg, "estimate_range", True),
                            *pair(pos, "estimate_range", True)),
        "reasons": tuple(reasons),
        "pencils": {label: part[2] for label, part in parts.items()},
    }


def _singular_values(s: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Singular values, in descending order, of a frame operator S, which is
    J-selfadjoint: ``J S`` is symmetric and S = J (J S) with J orthogonal, so
    they are the eigenvalue moduli of ``J S``, from one ``eigvalsh``."""
    js = j @ s
    return np.sort(np.abs(np.linalg.eigvalsh(0.5 * (js + js.T))))[::-1]


def _require_invertible(svals: np.ndarray, tol_def: float, what: str) -> None:
    """Refuse the canonical dual of a verified ``what`` (a frame or a fusion
    frame) whose frame operator, with singular values ``svals`` in descending
    order, is singular at ``tol_def`` (:class:`SingularFrameOperator`) or has
    an inverse beyond the double range (:class:`InputError`)."""
    with np.errstate(divide="ignore", over="ignore"):
        _require_finite(1.0 / svals[-1], "the inverse frame operator")
    if svals[-1] <= tol_def * svals[0]:
        raise SingularFrameOperator(
            f"verified {what} produced singular frame operator (sigma_min={svals[-1]:.3e})"
        )


def _dual_comparison(original: Bounds4, dual_bounds: Bounds4, s_inv: np.ndarray,
                     s_dual: np.ndarray, j: np.ndarray, sigma_min: float) -> dict:
    """The fields that :class:`ReciprocityReport` and the fusion dual report
    share: the ``original`` and ``dual_bounds`` against the reciprocal
    pattern of ``original``, and the dual's own frame operator ``s_dual``
    against ``s_inv``, the inverse of an S whose smallest singular value is
    ``sigma_min``.  Both operators are J-selfadjoint, so the norm of their
    difference is that of the symmetric ``J (s_dual - s_inv)``, and
    ``||S^{-1}|| = 1 / sigma_min``."""
    bm, am, ap, bp = original
    expected = tuple(None if x is None else 1.0 / x for x in (am, bm, bp, ap))
    deviation = max((abs(a - e) / max(abs(e), 1e-300)
                     for a, e in zip(dual_bounds, expected) if a is not None and e is not None),
                    default=0.0)
    diff = j @ (s_dual - s_inv)
    return {
        "original_bounds": original,
        "dual_bounds": dual_bounds,
        "reciprocal_expected": expected,
        "max_relative_deviation": deviation,
        "dual_operator_residual": operator_norm(0.5 * (diff + diff.T)) * sigma_min,
    }


def _frame_parts(frame: VectorFrame) -> dict[str, SignPart]:
    """The :data:`SignPart` of each nonempty sign class of a frame.

    The pencil numerator is ``sum_i [x, f_i]^2`` in the coordinates of the
    span; the negative class carries the negated pencil, whose eigenvalues
    are the (negative) bound values themselves.
    """
    parts = {}
    for label, (part_span, svals) in frame._class_spans.items():
        indices = frame.positive_indices if label == "positive" else frame.negative_indices
        with np.errstate(over="ignore", invalid="ignore"):  # refused by _verify_sign_parts
            g_vecs = part_span.basis.T @ frame.space.symmetry @ frame.vectors[list(indices)].T
            numerator = g_vecs @ g_vecs.T
        pencil = ((numerator, part_span.gram) if label == "positive"
                  else (-numerator, -part_span.gram))
        parts[label] = (indices, part_span, pencil, svals)
    return parts


def verify_j_frame(frame: VectorFrame, tol_def: float = TOL_DEF,
                   tol_rank: float = TOL_RANK) -> JFrameReport:
    """Check the two sign classes and compute bounds when both pass."""
    verdict, fields = _verify_sign_parts(frame.space, _frame_parts(frame), frame.vectors.T,
                                         tol_def, tol_rank)
    s = svals = condition = None
    if verdict:
        s = frame_operator(frame).matrix
        svals = _singular_values(s, frame.space.symmetry)
        condition = _condition_number(frame, svals)
    return JFrameReport(is_j_frame=verdict, condition_number=condition, operator=s,
                        singular_values=svals, **fields)


def _condition_number(frame: VectorFrame, svals: np.ndarray) -> float:
    """``sigma_max / sigma_min`` of S, whose singular values are ``svals``.

    The ratio does not depend on the scale of the frame, so a frame far from
    unit scale, whose S underflows, is measured after an exact power-of-two
    rescale.  A ratio that overflows a double (``[[1, 0], [0, 1e-200]]``
    under ``diag(1, -1)`` has 1e400) raises :class:`InputError`.
    """
    scaled = scaled_below_overflow(frame.vectors, UNDERFLOW_GUARD)
    if scaled is not frame.vectors:
        unit = VectorFrame(space=frame.space, vectors=scaled, signs=frame.signs)
        svals = _singular_values(frame_operator(unit).matrix, frame.space.symmetry)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        condition = float(svals[0] / svals[-1])
    _require_finite(condition, "the condition number of the frame operator")
    return condition


def _verified(frame: VectorFrame, tol_def: float) -> JFrameReport:
    """The report of a frame that must verify; raises :class:`NotAJFrame`."""
    report = verify_j_frame(frame, tol_def)
    if not report.is_j_frame:
        raise NotAJFrame("; ".join(report.reasons) or "frame verification failed")
    return report


def is_j_frame(frame: VectorFrame, tol_def: float = TOL_DEF) -> bool:
    return verify_j_frame(frame, tol_def).is_j_frame


def optimal_j_frame_bounds(frame: VectorFrame, tol_def: float = TOL_DEF) -> Bounds4:
    return _verified(frame, tol_def).bounds


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
    return {label: part[2] for label, part in _frame_parts(frame).items()}


def canonical_dual(frame: VectorFrame, tol_def: float = TOL_DEF) -> VectorFrame:
    """The dual sequence {S^{-1} f_i}, partitioned afresh by sign.

    For a verified frame the dual keeps the sign pattern and its frame
    operator is exactly S^{-1}.
    """
    return _canonical_dual_of_verified(frame, _verified(frame, tol_def), tol_def)


def _canonical_dual_of_verified(frame: VectorFrame, report: JFrameReport,
                                tol_def: float) -> VectorFrame:
    """:func:`canonical_dual` of a frame whose verification at ``tol_def`` is
    ``report``; its frame operator and singular values are reused.  A dual
    whose S^{-1} exceeds the double range raises :class:`InputError`."""
    _require_invertible(report.singular_values, tol_def, "frame")
    dual_vectors = np.linalg.solve(report.operator, frame.vectors.T).T
    return partition_by_sign(dual_vectors, frame.space, tol_def)


class ReciprocityReport(NamedTuple):
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


def dual_reciprocity(frame: VectorFrame, tol_def: float = TOL_DEF) -> ReciprocityReport:
    """Measure how far the canonical dual's bounds are from the reciprocal pattern."""
    report = _verified(frame, tol_def)
    dual = _canonical_dual_of_verified(frame, report, tol_def)
    dual_report = _verified(dual, tol_def)
    return ReciprocityReport(dual=dual, **_dual_comparison(
        report.bounds, dual_report.bounds, np.linalg.inv(report.operator), dual_report.operator,
        frame.space.symmetry, report.singular_values[-1]))


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
    _verified(frame, tol_def)
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
