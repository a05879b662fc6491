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

A frame, like a weighted family, is judged by its class checks alone
(:func:`_class_checks`) and verified by its part bounds
(:func:`_verify_bounds`), each the square of an extreme singular value of
a factor with one row per dimension of its part span (:func:`_part_bounds`); only
the reports (:func:`_verify_sign_parts`) add the Bessel bound, the bound
estimates and the bound widths.  No report holds the Rayleigh pencils of the
bounds: :func:`part_pencils` forms them for whoever brackets the bounds in
them.
"""

from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._numeric import (
    OVERFLOW_GUARD,
    UNDERFLOW_GUARD,
    as_matrix,
    cholesky_factors,
    column_space,
    operator_norm,
    qr_factors,
    scaled_below_overflow,
    singular_values,
)
from .core import TOL_DEF, TOL_RANK, KreinSpace, Operator
from .errors import DimensionMismatch, IndexOutOfRange, InputError, NeutralVector, NotAJFrame
from .oracles import bound_width
from .subspaces import Classification, Subspace, SubspaceKind, classify, smallest_nonzero_modulus

Bounds4 = tuple[float | None, float | None, float | None, float | None]


# One nonempty sign class: its indices and its span.
ClassSpan = tuple[tuple[int, ...], Subspace]


class _SignClasses:
    """Members with signs, grouped into a positive and a negative class; a
    member of sign 0 belongs to neither.

    This is the route of vector frames and weighted families alike, and it
    holds what verification and derived operations read of the whole system,
    each computed once, at the definiteness tolerance ``tol_def`` and the
    relative rank cutoff ``tol_rank`` the system was built at: the class
    spans and factors, S, the class checks and the verification.  A
    subclass gives the synthesis columns of a class,
    ``_synthesis_columns(indices)``; the numerator of the class's Rayleigh
    pencil in the coordinates of an orthonormal ``basis``,
    ``_numerator(indices, basis)``; the factor of its bounds,
    ``_bound_factor(indices, chol, coefficients, rows)`` (see
    :func:`_part_bounds`); the matrix of S, ``_operator_matrix()``; its
    canonical dual from S^{-1}, ``_dual(s_inv)``; and the error that
    refuses it, ``_refusal``.  The span of
    each nonempty class, the singular values of its columns and its factors
    come from one SVD of them (:func:`~kreinframes._numeric.column_space`); a
    canonical dual's spans and factors are set when it is built (see
    :func:`_canonical_dual_of`).
    """

    # What :func:`_class_checks` and :func:`_verify_bounds` found, once known.
    _checks: tuple[dict, dict, tuple[str, ...]] | None = None
    _verification: tuple[bool, dict] | None = None

    def __init__(self, space: KreinSpace, signs: np.ndarray, tol_def: float, tol_rank: float):
        self.space = space
        self.signs = signs
        self.tol_def = tol_def
        self.tol_rank = tol_rank

    @cached_property
    def positive_indices(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.signs > 0))

    @cached_property
    def negative_indices(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.signs < 0))

    @cached_property
    def synthesis(self) -> np.ndarray:
        """The synthesis matrix T: the synthesis columns of every member."""
        return self._synthesis_columns(tuple(range(self.signs.size)))

    @cached_property
    def _class_svds(self) -> dict[str, tuple[tuple[int, ...], np.ndarray, np.ndarray,
                                             np.ndarray]]:
        """The indices of each nonempty class (``"positive"``, ``"negative"``)
        with the basis of the span of its synthesis columns, at ``tol_rank``,
        their singular values, in descending order, and the rows of V^T
        that go with the basis, from one SVD."""
        return {label: (indices, *column_space(self._synthesis_columns(indices), self.tol_rank))
                for label, indices in (("positive", self.positive_indices),
                                       ("negative", self.negative_indices)) if indices}

    @cached_property
    def _class_spans(self) -> dict[str, ClassSpan]:
        """The :data:`ClassSpan` of each nonempty class, by label."""
        return {label: (indices, Subspace(space=self.space, basis=basis))
                for label, (indices, basis, _, _) in self._class_svds.items()}

    @cached_property
    def _class_factors(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """The synthesis columns of each nonempty class in the coordinates of
        its span's basis B, as ``T = B K W``: the k x k ``coefficients`` K
        and the k x m ``rows`` W.  From the class SVD, K = diag(s_1..s_k)
        and W the rows of V^T; a canonical dual's are set when it is built."""
        return {label: (np.diag(svals[:rows.shape[0]]), rows)
                for label, (_, _, svals, rows) in self._class_svds.items()}

    @cached_property
    def _operator(self) -> tuple[np.ndarray, np.ndarray]:
        """The matrix of S and its singular values (:func:`_singular_values`).
        An S or singular values beyond the double range raise :class:`InputError`."""
        with np.errstate(over="ignore", invalid="ignore"):
            s = self._operator_matrix()
        _require_finite(s, "the frame operator")
        return s, _singular_values(s, self.space.symmetry)

    @property
    def positive_span(self) -> Subspace | None:
        return self._class_spans.get("positive", (None, None))[1]

    @property
    def negative_span(self) -> Subspace | None:
        return self._class_spans.get("negative", (None, None))[1]


class VectorFrame(_SignClasses):
    """A sign-partitioned vector sequence (rows of ``vectors``)."""

    _refusal = NotAJFrame

    def __init__(self, space: KreinSpace, vectors: np.ndarray, signs: np.ndarray,
                 tol_def: float, tol_rank: float):
        super().__init__(space, signs, tol_def, tol_rank)
        self.vectors = vectors

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @property
    def synthesis(self) -> np.ndarray:
        return self.vectors.T

    def _synthesis_columns(self, indices: tuple[int, ...]) -> np.ndarray:
        return self.vectors[list(indices)].T

    def _numerator(self, indices: tuple[int, ...], basis: np.ndarray) -> np.ndarray:
        """``sum_i sigma_i [x, f_i]^2`` over the class, negative on the negative one."""
        g_vecs = basis.T @ self.space.symmetry @ self._synthesis_columns(indices)
        numerator = g_vecs @ g_vecs.T
        return numerator if self.signs[indices[0]] > 0 else -numerator

    def _operator_matrix(self) -> np.ndarray:
        return _frame_product(self, slice(None))

    def _bound_factor(self, indices: tuple[int, ...], chol: np.ndarray, coefficients: np.ndarray,
                      rows: np.ndarray) -> np.ndarray:
        """``L^T K``: with T = B K W the numerator ``B^T J T T^T J B`` is
        ``G K W W^T K^T G``, and W, the class's V^T rows, which a dual keeps,
        has orthonormal rows, so the pencil reduces to ``L^T K K^T L``."""
        return chol.T @ coefficients

    def _dual(self, s_inv: np.ndarray) -> "VectorFrame":
        """The vectors S^{-1} f_i, from one product with S^{-1}, with the frame's
        signs: by the theorem, [S^{-1} f_i, S^{-1} f_i] has the sign of [f_i, f_i]."""
        return VectorFrame(self.space, self.vectors @ s_inv.T, self.signs, self.tol_def,
                           self.tol_rank)


def _require_finite(values, what: str) -> None:
    if not np.isfinite(values).all():
        raise InputError(f"{what} overflows a double")


def partition_by_sign(vectors, space: KreinSpace, tol_def: float = TOL_DEF,
                      tol_rank: float = TOL_RANK) -> VectorFrame:
    """Partition vectors by the sign of their self-product, into a frame
    whose every quantity is computed at ``tol_def`` and ``tol_rank``.

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
            witness=v[i],
        )
    return VectorFrame(space, v, np.where(products > 0.0, 1, -1), tol_def, tol_rank)


def _self_products(v: np.ndarray, space: KreinSpace) -> tuple[np.ndarray, np.ndarray]:
    """``[f, f]`` and ``||f||^2`` of every row f of ``v``."""
    return np.einsum("ij,ij->i", v @ space.symmetry, v), np.einsum("ij,ij->i", v, v)


def _frame_product(frame: VectorFrame, indices: list[int] | slice) -> np.ndarray:
    """``sum_i sigma_i f_i f_i^T J`` over the members ``indices``: zero for none."""
    v = frame.vectors[indices]
    return (v * frame.signs[indices, None]).T @ v @ frame.space.symmetry


def frame_operator(frame: VectorFrame) -> Operator:
    """S = sum_i sigma_i f_i f_i^T J, i.e. S f = sum_i sigma_i [f, f_i] f_i."""
    return Operator(frame.space, _frame_product(frame, slice(None)))


def partial_frame_operator(frame: VectorFrame, indices) -> Operator:
    """Frame operator of a subfamily, signs inherited from the full frame."""
    return Operator(frame.space, _frame_product(frame, _validate_indices(frame, indices)))


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


class SignParts(NamedTuple):
    """The verdict of a frame or family and the report fields that
    :class:`JFrameReport` and :class:`~kreinframes.fusion.JFusionReport`
    share, as :func:`_verify_sign_parts` computes them."""

    verdict: bool
    positive: PartReport | None
    negative: PartReport | None
    bessel_bound: float
    bounds: Bounds4
    bound_estimates: Bounds4
    bound_widths: Bounds4
    reasons: tuple[str, ...]


class JFrameReport(NamedTuple):
    """Verdict, bounds and estimates of a vector frame.

    ``bound_widths`` holds the rounding width of each bound
    (:func:`~kreinframes.oracles.bound_width`).
    """

    is_j_frame: bool
    positive: PartReport | None
    negative: PartReport | None
    bessel_bound: float
    bounds: Bounds4
    bound_estimates: Bounds4
    bound_widths: Bounds4
    condition_number: float | None
    reasons: tuple[str, ...]


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


def _pencil(system: _SignClasses, label: str, class_span: ClassSpan
            ) -> tuple[np.ndarray, np.ndarray]:
    """The signed Rayleigh pencil (numerator, denominator) of a class, in the
    coordinates of its span's basis.  The negative class's numerator and
    denominator are both negative, so the eigenvalues of its pencil are the
    (negative) bound values themselves."""
    indices, part_span = class_span
    with np.errstate(over="ignore", invalid="ignore"):
        numerator = system._numerator(indices, part_span.basis)
    return numerator, part_span.gram if label == "positive" else -part_span.gram


def _part_bounds(system: _SignClasses, label: str) -> tuple[float, float]:
    """The bounds of a nonempty class of the right kind, the extreme
    eigenvalues of its signed Rayleigh pencil (N, G), with no N formed: with
    ``+/-G = L L^T`` (Cholesky) and the class factors ``T = B K W``, they are
    ``+/-sigma(X)^2`` for the class's ``_bound_factor`` X, of k rows (Golub
    and Van Loan, *Matrix Computations*, section 8.7).  So an inner bound
    keeps its sign however close to zero.  A Gram without a Cholesky factor
    raises :class:`~kreinframes.errors.NotPositiveDefinite`, bounds beyond
    half the double range :class:`InputError`.
    """
    indices, part_span = system._class_spans[label]
    sign = 1.0 if label == "positive" else -1.0
    chol = cholesky_factors([sign * part_span.gram], f"the signed Gram of the {label} span")[0]
    with np.errstate(over="ignore", invalid="ignore"):
        factor = system._bound_factor(indices, chol, *system._class_factors[label])
    _require_finite(factor, f"the {label} frame bound")
    with np.errstate(over="ignore"):
        low, high = (singular_values(factor)[[-1, 0]] ** 2).tolist()
    # the pencil of the oracle block holds N + N^T, about twice the outer bound
    _require_finite(2.0 * high, f"the {label} frame bound")
    return (low, high) if sign > 0 else (-high, -low)


def _class_checks(system: _SignClasses) -> tuple[dict, dict, tuple[str, ...]]:
    """The checks of :func:`_verify_bounds`, without the bounds, taken once;
    the verdict (:func:`_passes`) is theirs alone.

    The span of each nonempty sign class must be a maximal uniformly
    definite subspace of its sign: the span is classified, at the system's
    tolerances, and its kind and dimension checked.
    Returns the :class:`PartReport` of each class without bounds or
    estimates (None for an empty class), whether each class passes (an
    empty one where the signature asks for none of its sign) and the
    reasons of the checks that fail.
    """
    if system._checks is None:
        space, spans = system.space, system._class_spans
        reasons: list[str] = []
        parts: dict[str, PartReport | None] = {}
        passed: dict[str, bool] = {}
        for label, good_kind in _PART_KINDS:
            required = space.num_positive if label == "positive" else space.num_negative
            if label not in spans:
                if required != 0:
                    reasons.append(f"{label} part is empty but signature requires dimension {required}")
                parts[label], passed[label] = None, required == 0
                continue
            indices, part_span = spans[label]
            cls = classify(part_span, system.tol_def, system.tol_rank)
            kind_ok = cls.kind is good_kind
            dim_ok = part_span.dim == required
            if not kind_ok:
                reasons.append(f"{label} span is {cls.kind.value}, not uniformly {label}")
            if not dim_ok:
                reasons.append(f"{label} span has dimension {part_span.dim}, signature requires {required}")
            parts[label] = PartReport(indices=indices, classification=cls, required_dim=required,
                                      dim_ok=dim_ok, kind_ok=kind_ok, ratio_range=None,
                                      estimate_range=None)
            passed[label] = parts[label].ok
        system._checks = parts, passed, tuple(reasons)
    return system._checks


def _passes(system: _SignClasses) -> bool:
    """Whether both classes pass :func:`_class_checks`: the verdict, with no bound computed."""
    passed = _class_checks(system)[1]
    return passed["positive"] and passed["negative"]


def _verify_bounds(system: _SignClasses) -> tuple[bool, dict]:
    """The verification of a frame or a family, by its part bounds alone,
    taken once.

    The classes are checked by :func:`_class_checks`; the bounds of a class
    of the right kind are :func:`_part_bounds`.  Returns the verdict and
    the report fields every verification writes: the :class:`PartReport` of
    each class without estimates (None for an empty class), the bounds
    (when the verdict is true) and the reasons of the checks that fail.
    Bounds beyond the double range raise :class:`InputError`.
    """
    if system._verification is None:
        checked, passed, reasons = _class_checks(system)
        pos, neg = (part._replace(ratio_range=_part_bounds(system, label))
                    if part is not None and part.kind_ok else part
                    for label, part in checked.items())
        verdict = passed["positive"] and passed["negative"]
        system._verification = verdict, {
            "positive": pos,
            "negative": neg,
            "bounds": (*_pair(neg, "ratio_range", verdict), *_pair(pos, "ratio_range", verdict)),
            "reasons": reasons,
        }
    return system._verification


def _pair(part: PartReport | None, attr: str, keep: bool) -> tuple:
    value = getattr(part, attr) if (keep and part is not None) else None
    return value if value is not None else (None, None)


def _with_estimates(system: _SignClasses, label: str, part: PartReport | None
                    ) -> PartReport | None:
    """``part`` with its bound estimates, where it has bounds: from reduced
    minimum moduli, of the synthesis, from its singular values
    (``_class_svds``), and of the span's Gram, from the eigenvalues
    :func:`classify` computed.  Estimates beyond the double range raise
    :class:`InputError`."""
    if part is None or part.ratio_range is None:
        return part
    synthesis_svals = system._class_svds[label][2]
    gamma_t = smallest_nonzero_modulus(synthesis_svals, system.tol_rank)
    gamma_g = part.classification.gamma
    with np.errstate(over="ignore"):
        outer = float(synthesis_svals[0]) ** 2 / gamma_g
        inner = gamma_t**2 * gamma_g**2
    estimate = (inner, outer) if label == "positive" else (-outer, -inner)
    _require_finite(estimate, f"the {label} bound estimate")
    return part._replace(estimate_range=estimate)


def _widths(part: PartReport | None, bessel: float) -> tuple:
    """The width of each bound in ``part.ratio_range``, which is there
    whatever the verdict; (None, None) for a part without bounds."""
    if part is None or part.ratio_range is None:
        return (None, None)
    return tuple(bound_width(lam, bessel, part.classification.margin)
                 for lam in part.ratio_range)


def _verify_sign_parts(system: _SignClasses) -> SignParts:
    """The verification that the reports write: the Bessel bound, then
    :func:`_verify_bounds`, then the estimates (:func:`_with_estimates`) and
    the rounding widths (:func:`_widths`) of each class with bounds.  A
    Bessel constant beyond the double range raises :class:`InputError`.
    """
    bessel = _bessel_bound(system.synthesis)
    verdict, fields = _verify_bounds(system)
    pos, neg = (_with_estimates(system, label, fields[label])
                for label in ("positive", "negative"))
    return SignParts(
        verdict=verdict,
        positive=pos,
        negative=neg,
        bessel_bound=bessel,
        bounds=fields["bounds"],
        bound_estimates=(*_pair(neg, "estimate_range", True),
                         *_pair(pos, "estimate_range", True)),
        bound_widths=(*_widths(neg, bessel), *_widths(pos, bessel)),
        reasons=fields["reasons"],
    )


def _report_fields(parts: SignParts) -> dict:
    """The fields of ``parts`` but its verdict, which each report names its own way."""
    fields = parts._asdict()
    del fields["verdict"]
    return fields


def _singular_values(s: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Singular values, in descending order, of a frame operator S, which is
    J-selfadjoint: ``J S`` is symmetric and S = J (J S) with J orthogonal, so
    they are the eigenvalue moduli of ``J S``, from one ``eigvalsh``.  Values
    beyond the double range raise :class:`InputError`, as S itself does."""
    with np.errstate(over="ignore", invalid="ignore"):
        js = j @ s
        sym = 0.5 * (js + js.T)
    _require_finite(sym, "the frame operator")
    svals = np.sort(np.abs(np.linalg.eigvalsh(sym)))[::-1]
    _require_finite(svals, "the frame operator")
    return svals


def _require_invertible(system: _SignClasses) -> tuple[np.ndarray, np.ndarray]:
    """S and its singular values of a verified frame or family, refused when
    S^{-1} exceeds the double range (:class:`InputError`).  A verified
    system has an invertible S, by the theorem, however small its smallest
    singular value, and however large its condition number."""
    s, svals = system._operator
    with np.errstate(divide="ignore", over="ignore"):
        _require_finite(1.0 / svals[-1], "the inverse frame operator")
    return s, svals


def _dual_comparison(original: Bounds4, dual_bounds: Bounds4, s_inv: np.ndarray,
                     s_dual: np.ndarray, j: np.ndarray, sigma_min: float) -> dict:
    """The fields that :class:`ReciprocityReport` and the fusion dual report
    share: the ``original`` and ``dual_bounds`` against the reciprocal
    pattern of ``original``, and the dual's own frame operator ``s_dual``
    against ``s_inv``, the inverse of an S whose smallest singular value is
    ``sigma_min``.  Both operators are J-selfadjoint, so the norm of their
    difference is that of the symmetric ``J (s_dual - s_inv)``, and
    ``||S^{-1}|| = 1 / sigma_min``.  A deviation or residual beyond the
    double range raises :class:`InputError`."""
    bm, am, ap, bp = original
    expected = tuple(None if x is None else 1.0 / x for x in (am, bm, bp, ap))
    deviation = max((abs(a - e) / max(abs(e), 1e-300)
                     for a, e in zip(dual_bounds, expected) if a is not None and e is not None),
                    default=0.0)
    _require_finite(deviation, "max_relative_deviation of the dual bounds")
    with np.errstate(over="ignore", invalid="ignore"):
        diff = j @ (s_dual - s_inv)
        residual = operator_norm(0.5 * (diff + diff.T)) * sigma_min
    _require_finite(residual, "dual_operator_residual of the dual frame operator")
    return {
        "original_bounds": original,
        "dual_bounds": dual_bounds,
        "reciprocal_expected": expected,
        "max_relative_deviation": deviation,
        "dual_operator_residual": residual,
    }


def verify_j_frame(frame: VectorFrame) -> JFrameReport:
    """Check the two sign classes and compute bounds when both pass."""
    parts = _verify_sign_parts(frame)
    condition = _condition_number(frame, frame._operator[1]) if parts.verdict else None
    return JFrameReport(is_j_frame=parts.verdict, condition_number=condition,
                        **_report_fields(parts))


def _condition_number(frame: VectorFrame, svals: np.ndarray) -> float:
    """``sigma_max / sigma_min`` of S, whose singular values are ``svals``.

    The ratio does not depend on the scale of the frame, so a frame far from
    unit scale, whose S underflows, is measured after an exact power-of-two
    rescale.  A ratio that overflows a double (``[[1, 0], [0, 1e-200]]``
    under ``diag(1, -1)`` has 1e400) raises :class:`InputError`.
    """
    scaled = scaled_below_overflow(frame.vectors, UNDERFLOW_GUARD)
    if scaled is not frame.vectors:
        unit = VectorFrame(frame.space, scaled, frame.signs, frame.tol_def, frame.tol_rank)
        svals = _singular_values(frame_operator(unit).matrix, frame.space.symmetry)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        condition = float(svals[0] / svals[-1])
    _require_finite(condition, "the condition number of the frame operator")
    return condition


def _verified(system: _SignClasses) -> dict:
    """The :func:`_verify_bounds` fields of a system that must verify, or its ``_refusal``."""
    verdict, fields = _verify_bounds(system)
    if not verdict:
        raise system._refusal("; ".join(fields["reasons"]))
    return fields


def is_j_frame(frame: VectorFrame) -> bool:
    """The verdict of :func:`verify_j_frame`, from the class checks alone."""
    return _passes(frame)


def optimal_j_frame_bounds(frame: VectorFrame) -> Bounds4:
    return _verified(frame)["bounds"]


def part_pencils(system: _SignClasses) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Rayleigh pencils ``(numerator, denominator)`` per nonempty sign part
    of a frame or a weighted family: the :func:`_pencil` of each class.

    Each denominator is positive definite and the generalized eigenvalue
    range of the pencil equals the corresponding pair of optimal bounds
    directly (negative values for the negative part); the bounds themselves
    are computed from factors of it (:func:`_part_bounds`), and no
    verification forms it.
    """
    return {label: _pencil(system, label, class_span)
            for label, class_span in system._class_spans.items()}


frame_part_pencils = part_pencils


def canonical_dual(frame: VectorFrame) -> VectorFrame:
    """The dual sequence {S^{-1} f_i} of a verified frame.

    The dual keeps the frame's signs, by the theorem that the canonical dual
    of a J-frame is a J-frame of the same sign pattern, and its frame
    operator is exactly S^{-1}.
    """
    return _canonical_dual_of(frame)[1]


def _canonical_dual_of(system: _SignClasses) -> tuple[dict, _SignClasses, np.ndarray, np.ndarray]:
    """The :func:`_verified` fields of a frame or family that must verify
    (no Bessel bound, no estimates), its canonical dual (the class's
    ``_dual``, at the system's tolerances), S^{-1} and the singular values
    of S.

    The dual keeps the system's signs, by the theorem, and so its sign
    classes; its class spans are S^{-1} M+/-: each the Q factor of
    ``S^{-1} U = Q R`` with U the system's class basis and a positive
    diagonal in R, unique since S^{-1} is invertible.  They are set here, so
    they take the dimensions of M+/- in place of a rank decided from
    singular values, which near neutral can flip at rounding level.  So are
    its class factors: ``S^{-1} T = Q (R K) W`` for the system's ``T = U K
    W``.
    """
    fields = _verified(system)
    s, svals = _require_invertible(system)
    s_inv = np.linalg.inv(s)
    dual = system._dual(s_inv)
    spans, factors = system._class_spans, system._class_factors
    qrs = qr_factors([s_inv @ part_span.basis for _, part_span in spans.values()])
    dual._class_spans = {label: (indices, Subspace(space=system.space, basis=q))
                         for (label, (indices, _)), (q, _) in zip(spans.items(), qrs)}
    dual._class_factors = {label: (r @ factors[label][0], factors[label][1])
                           for label, (_, r) in zip(spans, qrs)}
    return fields, dual, s_inv, svals


def _dual_diagnostics(system: _SignClasses) -> tuple[_SignClasses, np.ndarray, dict]:
    """The canonical dual, S^{-1} and the :func:`_dual_comparison` fields of a
    frame or family.  The system is verified once, for its bounds
    (:func:`_verify_bounds`); the dual is a frame or family of the same part
    kinds and dimensions by the theorem, so nothing of it is classified, and
    its bounds are :func:`_part_bounds` of its classes."""
    fields, dual, s_inv, svals = _canonical_dual_of(system)
    ranges = {label: _part_bounds(dual, label) for label in dual._class_spans}
    dual_bounds = (*ranges.get("negative", (None, None)), *ranges.get("positive", (None, None)))
    return dual, s_inv, _dual_comparison(fields["bounds"], dual_bounds, s_inv,
                                         dual._operator_matrix(), system.space.symmetry,
                                         svals[-1])


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


def dual_reciprocity(frame: VectorFrame) -> ReciprocityReport:
    """Measure how far the canonical dual's bounds are from the reciprocal
    pattern."""
    dual, _, comparison = _dual_diagnostics(frame)
    return ReciprocityReport(dual=dual, **comparison)


def interlacing_identity(frame: VectorFrame, subset, f) -> tuple[float, float]:
    """Two sides of the subset-complement energy identity.

    For a subset I1 with complement I2,

        lhs = [S_I1 f, f] - [S^{-1} S_I1 f, S_I1 f]
        rhs = [S_I2 f, f] - [S^{-1} S_I2 f, S_I2 f]

    and lhs == rhs for every f (a consequence of S_I1 + S_I2 = S and the
    J-selfadjointness of all three operators).
    """
    idx = _validate_indices(frame, subset)
    _verified(frame)
    complement = [i for i in range(frame.size) if i not in set(idx)]
    s = frame._operator[0]
    s1 = partial_frame_operator(frame, idx).matrix
    s2 = partial_frame_operator(frame, complement).matrix
    j = frame.space.symmetry
    fv = np.asarray(f, dtype=float)

    def side(part: np.ndarray) -> float:
        pf = part @ fv
        return float(pf @ j @ fv - np.linalg.solve(s, pf) @ j @ pf)

    return side(s1), side(s2)
