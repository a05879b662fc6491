"""Weighted families of uniformly definite subspaces and their fusion theory.

A weighted family assigns to each entry a uniformly definite subspace W_i and
a strictly positive weight v_i; the entry's sign sigma_i is the sign of the
indefinite product on W_i.  The family is a valid fusion frame when the
positive entries together span a maximal uniformly positive subspace and the
negative entries a maximal uniformly negative one.

The frame operator is S = sum_i v_i^2 Q_{W_i}, built from the
indefinite-orthogonal projectors Q_{W_i}; it factors exactly as S = T A where
T is the synthesis map from the direct sum and A the analysis map, and is
computed as that product.

Bound conventions match :mod:`kreinframes.frames`: ascending four-tuples
``(B-, A-, A+, B+)`` with ``None`` slots for missing parts.  So does the
verification: a family is verified by its part bounds alone; only
:func:`verify_j_fusion_frame` adds the Bessel bound, estimates and
widths, and the optimal bounds and the canonical dual read the bounds only.
"""

from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._numeric import (
    as_matrix,
    block_diag,
    operator_norm,
    operator_norms,
    q_factors,
    stacked,
)
from .core import TOL_DEF, TOL_RANK, KreinSpace, Operator
from .errors import (
    DimensionMismatch,
    IndefiniteOrNeutralSubspace,
    KreinFrameError,
    NonPositiveWeight,
    NotAJFusionFrame,
)
from .frames import (
    Bounds4,
    PartReport,
    VectorFrame,
    _bessel_bound,
    _canonical_dual_of,
    _class_pencils,
    _dual_diagnostics,
    _SignClasses,
    _verified,
    _verify_sign_parts,
    partition_by_sign,
    verify_j_frame,
)
from .subspaces import (
    Classification,
    Subspace,
    SubspaceKind,
    _classify_all,
    _entry_spans,
    _images,
    subspace_sum,
)

class WeightedSubspaceFamily(_SignClasses):
    """Finitely many uniformly definite subspaces with positive weights.

    The synthesis columns of an entry are its basis times its weight, so
    each part span is that of the weighted bases: the same span as of the
    bases themselves, since every weight is strictly positive.
    """

    _what, _refusal = "fusion frame", NotAJFusionFrame

    def __init__(self, space: KreinSpace, subspaces: tuple[Subspace, ...], weights: np.ndarray,
                 signs: np.ndarray, entry_classifications: tuple[Classification, ...],
                 tol_def: float, tol_rank: float):
        super().__init__(space, signs, tol_def, tol_rank)
        self.subspaces = subspaces
        self.weights = weights
        self.entry_classifications = entry_classifications

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

    def _synthesis_columns(self, indices: tuple[int, ...]) -> np.ndarray:
        """The weighted bases ``v_i B_i`` side by side, weighted in one product."""
        indices = list(indices)
        columns = np.hstack([self.subspaces[i].basis for i in indices])
        return columns * np.repeat(self.weights[indices], [self.entry_dims[i] for i in indices])

    def _numerator(self, indices: tuple[int, ...], basis: np.ndarray) -> np.ndarray:
        """``sum_i v_i^2 [pi_i x, pi_i x]`` over the class: with T_part its
        synthesis columns, ``Y blockdiag(G_i) Y^T`` with ``Y = basis^T T_part``.
        On the negative class each term is itself negative."""
        y = basis.T @ self._synthesis_columns(indices)
        return y @ block_diag([self.subspaces[i].gram for i in indices]) @ y.T

    def _operator_matrix(self) -> np.ndarray:
        return self.synthesis @ fusion_analysis(self)

    def _dual(self, s_inv: np.ndarray) -> "WeightedSubspaceFamily":
        """The family {(S^{-1} W_i, v_i)} (see :func:`canonical_dual_fusion`),
        with the family's signs and tolerances: by the theorem, S^{-1} W_i is
        uniformly definite of the sign of W_i.  Its entries are still
        classified, for its ``entry_classifications``.

        Each dual entry's basis is the Q factor of ``S^{-1} B_i`` with a
        positive diagonal in R, unique since S^{-1} is invertible: no rank
        decision, and a basis that moves only as much as S^{-1} B_i does.
        The QRs and classifications are stacked by entry dimension.  The
        dual's part spans S^{-1} M+/- are the sign-fixed Q factors of
        ``S^{-1} U+/-`` with U+/- the family's part span bases (see
        :func:`~kreinframes.frames._canonical_dual_of`).  Against spans from
        an SVD of the dual's own weighted synthesis, they moved the dual
        bounds by at most 0.95 of their rounding width (1.4e-5 relative, n =
        6 at tilt 1 - 1e-9), and by 0.04 of it on dense families (n = 32..256),
        over the corpus of docs/format.md.
        """
        mapped = np.split(s_inv @ np.hstack([sub.basis for sub in self.subspaces]),
                          self.offsets[1:-1], axis=1)
        dual_subs = tuple(Subspace(space=self.space, basis=q) for q in q_factors(mapped))
        return WeightedSubspaceFamily(
            self.space, dual_subs, self.weights, self.signs,
            tuple(_classify_all(dual_subs, self.tol_def, self.tol_rank)), self.tol_def,
            self.tol_rank)


def make_weighted_family(subspaces, weights, tol_def: float = TOL_DEF,
                         tol_rank: float = TOL_RANK) -> WeightedSubspaceFamily:
    """Validate entries and weights and attach signs, into a family whose
    every quantity is computed at ``tol_def`` and ``tol_rank``.

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
    bad = np.flatnonzero(~np.isfinite(w) | (w <= 0.0))
    if bad.size:
        i = int(bad[0])
        raise NonPositiveWeight(f"weight {i} is {float(w[i])!r}, must be strictly positive",
                                index=i, weight=float(w[i]))
    return _signed_family(subs, w, tuple(_classify_all(subs, tol_def, tol_rank)), tol_def,
                          tol_rank)


_SIGNS = {SubspaceKind.UNIFORMLY_POSITIVE: 1, SubspaceKind.UNIFORMLY_NEGATIVE: -1}


def _signed_family(subs: tuple[Subspace, ...], weights: np.ndarray,
                   classifications: tuple[Classification, ...], tol_def: float,
                   tol_rank: float) -> WeightedSubspaceFamily:
    """The family of validated entries and weights, at ``tol_def`` and
    ``tol_rank``, signed by their classifications; the first entry that is
    not uniformly definite raises :class:`IndefiniteOrNeutralSubspace`."""
    signs = np.array([_SIGNS.get(cls.kind, 0) for cls in classifications], dtype=int)
    unsigned = np.flatnonzero(signs == 0)
    if unsigned.size:
        i = int(unsigned[0])
        cls = classifications[i]
        raise IndefiniteOrNeutralSubspace(
            f"entry {i} is {cls.kind.value}, not uniformly definite",
            index=i,
            witness=cls.witness,
            self_product=float(cls.witness @ subs[0].space.symmetry @ cls.witness),
        )
    return WeightedSubspaceFamily(subs[0].space, subs, weights, signs, classifications, tol_def,
                                  tol_rank)


def family_from_spans(entry_vectors, weights, space: KreinSpace,
                      tol_def: float = TOL_DEF, tol_rank: float = TOL_RANK) -> WeightedSubspaceFamily:
    """Build a family from per-entry spanning vectors (rows), at ``tol_def``
    and ``tol_rank`` as :func:`make_weighted_family` builds it.

    Each entry is spanned and classified as :func:`~kreinframes.subspaces.span`
    and :func:`~kreinframes.subspaces.classify` do it, with one stacked SVD
    per distinct spanning-set shape and one stacked ``eigh`` per entry
    dimension; a refusal of an entry's spanning set names the entry.
    """
    return make_weighted_family(_entry_spans(entry_vectors, space, tol_rank), weights, tol_def,
                                tol_rank)


class DirectSumSpace:
    """Coordinate model of the external direct sum of the entries.

    Coordinates are stacked per-entry basis coefficients, and
    ``indefinite_gram`` is the block diagonal of entry Gram operators: the
    intrinsic indefinite pairing, against which the analysis operator is
    the exact adjoint of the synthesis.
    """

    def __init__(self, family: WeightedSubspaceFamily, indefinite_gram: np.ndarray):
        self.family = family
        self.indefinite_gram = indefinite_gram

    @property
    def dim(self) -> int:
        return self.family.total_dim

    def indefinite_product(self, c, d) -> float:
        return float(np.asarray(c, dtype=float) @ self.indefinite_gram @ np.asarray(d, dtype=float))


def direct_sum_space(family: WeightedSubspaceFamily) -> DirectSumSpace:
    return DirectSumSpace(family, block_diag([sub.gram for sub in family.subspaces]))


def fusion_synthesis(family: WeightedSubspaceFamily) -> np.ndarray:
    """Synthesis matrix T: stacked coordinates -> sum_i v_i B_i c_i (n x sum k_i)."""
    return family.synthesis


def fusion_analysis(family: WeightedSubspaceFamily) -> np.ndarray:
    """Analysis matrix (sum k_i x n), per-entry coordinate blocks.

    Row block ``v_i G_i^{-1} B_i^T J`` holds the coordinates of
    ``v_i Q_{W_i} f``.  This is the exact adjoint of the synthesis against
    the indefinite direct-sum pairing (block-diagonal entry Grams), and
    ``synthesis @ analysis`` is the frame operator.  J is applied once, to
    the stacked bases, and the Gram solves are stacked by entry dimension.
    Every entry is regular: an entry of a family that
    :func:`make_weighted_family` accepted is uniformly definite, so its Gram
    margin exceeds ``tol_def``, and a canonical dual's entries are uniformly
    definite by the theorem.
    """
    bt_j = np.hstack([sub.basis for sub in family.subspaces]).T @ family.space.symmetry
    solved = stacked(np.linalg.solve, [sub.gram for sub in family.subspaces],
                     np.split(bt_j, family.offsets[1:-1]))
    return np.vstack(solved) * np.repeat(family.weights, family.entry_dims)[:, None]


def fusion_frame_operator(family: WeightedSubspaceFamily) -> Operator:
    """The fusion frame operator S = sum_i v_i^2 Q_{W_i}, taken as ``T @ A``.

    No explicit entry sign appears: Q_{W_i} already acts negatively on a
    uniformly negative W_i ([Qf, f] = [Qf, Qf] < 0), which makes S the
    identity on a fundamental decomposition with unit weights, and S+ - S-
    with both parts positive for the indefinite product.
    """
    return Operator(family.space, family._operator_matrix())


def fusion_operator_parts(family: WeightedSubspaceFamily) -> tuple[Operator, Operator]:
    """(S+, S-) with S = S+ - S- and both parts positive for [.,.].

    S+ is ``T A`` restricted to the positive entries' coordinates; S- is
    minus the same product over the negative entries, which flips its sign
    behaviour to J-positive.
    """
    t = fusion_synthesis(family)
    a = fusion_analysis(family)
    columns = np.repeat(family.signs, family.entry_dims)
    plus, minus = columns > 0, columns < 0
    return (Operator(family.space, t[:, plus] @ a[plus]),
            Operator(family.space, -(t[:, minus] @ a[minus])))


def bessel_bound(family: WeightedSubspaceFamily) -> float:
    """Smallest C with sum_i v_i^2 ||pi_i f||^2 <= C ||f||^2.

    That sum is ``f^T T T^T f`` with T the synthesis matrix, so C is the
    largest eigenvalue of ``T T^T``.  A constant beyond the double range
    raises :class:`~kreinframes.errors.InputError`.
    """
    return _bessel_bound(fusion_synthesis(family))


class JFusionReport(NamedTuple):
    """Verdict, bounds and estimates of a weighted family.

    ``pencils`` holds the Rayleigh pencils the bounds were computed from, as
    :func:`part_pencils` returns them; ``bound_widths`` as in
    :class:`~kreinframes.frames.JFrameReport`.
    """

    is_j_fusion_frame: bool
    positive: PartReport | None
    negative: PartReport | None
    bessel_bound: float
    bounds: Bounds4
    bound_estimates: Bounds4
    bound_widths: Bounds4
    complete: bool
    reasons: tuple[str, ...]
    pencils: dict


def verify_j_fusion_frame(family: WeightedSubspaceFamily) -> JFusionReport:
    """Check span maximality per sign and compute bounds when both pass.

    A family that verifies is complete as a theorem: a uniformly positive
    and a uniformly negative subspace meet only in 0, so spans of dimensions
    p and q add up to the whole space.  Only a family that fails takes the
    rank of its stacked bases.
    """
    verdict, fields = _verify_sign_parts(family)
    complete = verdict or subspace_sum(family.subspaces, family.tol_rank).dim == family.space.dim
    return JFusionReport(is_j_fusion_frame=verdict, complete=complete, **fields)


def optimal_fusion_bounds(family: WeightedSubspaceFamily) -> Bounds4:
    return _verified(family)["bounds"]


def fusion_bound_estimates(family: WeightedSubspaceFamily) -> Bounds4:
    return verify_j_fusion_frame(family).bound_estimates


def part_pencils(family: WeightedSubspaceFamily
                 ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Rayleigh pencils ``(numerator, denominator)`` per nonempty sign part.

    Each denominator is positive definite and the generalized eigenvalue
    range of the pencil equals the corresponding pair of optimal bounds
    directly (negative values for the negative part).
    """
    return _class_pencils(family)


def canonical_dual_fusion(family: WeightedSubspaceFamily
                          ) -> tuple[WeightedSubspaceFamily, Operator]:
    """Dual family {(S^{-1} W_i, v_i)} together with S^{-1}.

    The dual entries keep their signs and the dual family is again a valid
    fusion frame.  It reconstructs through the original projections,
    ``sum_i v_i^2 Q_{S^{-1} W_i} S^{-1} Q_{W_i} = I``, exactly, because
    ``S^{-1} Q_{W_i} f`` lies in ``S^{-1} W_i``.  Its own frame operator is
    *not* S^{-1} in general (see :func:`fusion_dual_diagnostics`).
    """
    _, dual, s_inv, _ = _canonical_dual_of(family)
    return dual, Operator(family.space, s_inv)


class FusionDualReport(NamedTuple):
    """Everything measurable about the canonical dual family.

    ``dual_operator_residual`` compares the dual family's own frame operator
    with S^{-1} (relative spectral norm); ``span_identity_residual`` checks
    the exact identities S^{-1} M+/- = (M-/+)^[perp], which do hold, as
    ``max ||B_-/+^T J U_+/-||`` with U_+/- and B_-/+ orthonormal bases of the
    dual's part spans S^{-1} M+/- and of M-/+.  (M-)^[perp] is the Euclidean
    complement of J M-, so this is the sine of the largest angle between
    S^{-1} M+ and (M-)^[perp]: the distance of their orthogonal projectors,
    the two spaces having the same dimension.
    """

    dual: WeightedSubspaceFamily
    inverse: Operator
    original_bounds: Bounds4
    dual_bounds: Bounds4
    reciprocal_expected: Bounds4
    max_relative_deviation: float
    dual_operator_residual: float
    span_identity_residual: float


def fusion_dual_diagnostics(family: WeightedSubspaceFamily) -> FusionDualReport:
    """The canonical dual family and its diagnostics."""
    dual, s_inv, comparison = _dual_diagnostics(family)
    j = family.space.symmetry
    spans, dual_spans = family._class_spans, dual._class_spans
    span_residual = max((operator_norm((j @ spans[other][1].basis).T @ dual_spans[label][1].basis)
                         for label, other in (("positive", "negative"), ("negative", "positive"))
                         if label in dual_spans and other in spans), default=0.0)
    return FusionDualReport(
        dual=dual,
        inverse=Operator(family.space, s_inv),
        span_identity_residual=span_residual,
        **comparison,
    )


def j_image_family(family: WeightedSubspaceFamily) -> WeightedSubspaceFamily:
    """The family {(J W_i, v_i)}, at the family's tolerances: signs are
    preserved and validity transfers."""
    return make_weighted_family(_images(family.space.symmetry, family.subspaces, family.tol_rank),
                                family.weights, family.tol_def, family.tol_rank)


def adjoint_identity_residual(family: WeightedSubspaceFamily, seed: int = 0,
                              ntrials: int = 50) -> float:
    """Max normalized defect of [T c, f] = [c, A f] over random pairs.

    The pairing on the direct sum is the intrinsic indefinite one
    (``indefinite_product``, block-diagonal entry Grams); the defect is zero
    up to rounding.
    """
    dsum = direct_sum_space(family)
    t = fusion_synthesis(family)
    a = fusion_analysis(family)
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


class RpsEntry(NamedTuple):
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


def check_rps_corollary(family: WeightedSubspaceFamily) -> tuple[RpsEntry, ...]:
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

    The part spans are those the family's verification reads, and every
    entry is regular (see :func:`fusion_analysis`).  The entries of each
    part are taken in stacks of one entry dimension.
    """
    j = family.space.symmetry
    out: list = [None] * family.size
    for label, (indices, part_span) in family._class_spans.items():
        b_m = part_span.basis

        def residuals(b: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            bt = np.swapaxes(b, 1, 2)
            jb = j @ b
            jb_t_bm = np.swapaxes(jb, 1, 2) @ b_m
            r_prime = np.linalg.solve(g, jb_t_bm) - bt @ b_m
            r_factor = np.linalg.qr(np.concatenate([jb, b], axis=2), mode="r")
            k = b.shape[2]
            y = r_factor[:, :, :k] @ jb_t_bm @ b_m.T - r_factor[:, :, k:] @ bt
            return operator_norms(y), operator_norms(r_prime)

        subs = [family.subspaces[i] for i in indices]
        for i, (r, r_prime) in zip(indices, stacked(residuals, [sub.basis for sub in subs],
                                                    [sub.gram for sub in subs])):
            out[i] = RpsEntry(index=i, part=label, r=float(r), r_prime=float(r_prime))
    return tuple(out)


class EquivalenceReport(NamedTuple):
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
        fusion_verdict = verify_j_fusion_frame(family).is_j_fusion_frame
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
        frame_verdict = verify_j_frame(frame).is_j_frame
    except KreinFrameError:
        frame_verdict = False
    return EquivalenceReport(
        fusion_verdict=fusion_verdict,
        frame_verdict=frame_verdict,
        hypothesis_ok=hypothesis_ok,
    )


def flatten_family(family: WeightedSubspaceFamily) -> VectorFrame:
    """The weighted concatenation {v_i b_ij}_ij of the entry basis vectors,
    as a frame at the family's tolerances."""
    rows = []
    for w, sub in zip(family.weights, family.subspaces):
        rows.append(w * sub.basis.T)
    return partition_by_sign(np.vstack(rows), family.space, family.tol_def, family.tol_rank)
