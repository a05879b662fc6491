"""Weighted subspace families: verification, operators, duals, equivalence."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import kreinframes as kf
from kreinframes import SubspaceKind
from kreinframes._numeric import column_space, operator_norm
from kreinframes.subspaces import smallest_nonzero_modulus
from oracle_references import rayleigh_extrema

EXACT_TOL = 1e-12
NUM_TOL = 1e-9
SEED = 42

# Frozen reference values for fixtures/fusion_dim6.json (seed-42 generated,
# rotated, entry dims (2,2 | 2,1) in signature (3,3)).
DIM6_BOUNDS = (-2.274643403350449, -0.7052004000478805,
               0.4828486831145198, 1.9938986501068445)

# Frozen reference values for fixtures/skewed_pair.json: one positive and one
# negative line at matching angles in diag(1,-1), unit weights.
SKEWED_BOUNDS = (-1.0, -1.0, 1.0, 1.0)
SKEWED_ESTIMATES = (-5.0 / 3.0, -0.36, 0.36, 5.0 / 3.0)
SKEWED_R = 0.8


def _eigen_family(space=None):
    space = space or kf.make_krein_space(np.diag([1.0, -1.0]))
    return kf.family_from_spans(
        [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])], [1.0, 1.0], space)


def _rps_reference(family, tol_def=kf.TOL_DEF):
    """The dense definition of the projection-alignment residuals (n x n projectors)."""
    j = family.space.symmetry
    out = []
    for i, (sigma, sub) in enumerate(zip(family.signs, family.subspaces)):
        part_span = family.positive_span if sigma > 0 else family.negative_span
        label = "positive" if sigma > 0 else "negative"
        pi_part = kf.orthogonal_projection(part_span).matrix
        pi_w = sub.basis @ sub.basis.T
        pi_jw = j @ pi_w @ j
        q_w = kf.j_projection(sub, tol_def).matrix
        r = operator_norm(pi_jw @ pi_part - pi_w)
        r_prime = operator_norm((q_w - pi_w) @ pi_part)
        out.append(kf.RpsEntry(index=i, part=label, r=float(r), r_prime=float(r_prime)))
    return tuple(out)


def _bessel_reference(family):
    """The Bessel constant as the top eigenvalue of sum_i v_i^2 pi_i, summed entry by entry."""
    n = family.space.dim
    acc = np.zeros((n, n))
    for w, sub in zip(family.weights, family.subspaces):
        acc += w**2 * (sub.basis @ sub.basis.T)
    return float(np.linalg.eigvalsh(0.5 * (acc + acc.T))[-1])


def _projector_sum(family, sign=0):
    """The defining formula of the frame operator, ``sum_i v_i^2 Q_{W_i}``, one
    dense n x n indefinite projector per entry, over the entries of the given
    sign (every entry for 0).  The library takes S as ``T @ A`` instead."""
    n = family.space.dim
    acc = np.zeros((n, n))
    for sigma, w, sub in zip(family.signs, family.weights, family.subspaces):
        if sign in (0, sigma):
            acc += w**2 * kf.j_projection(sub).matrix
    return acc


def _numerator_reference(family, label):
    """The part pencil numerator through the dense n x n accumulator
    ``B_M^T (sum_i v_i^2 B_i G_i B_i^T) B_M``."""
    indices, part_span = ((family.positive_indices, family.positive_span) if label == "positive"
                          else (family.negative_indices, family.negative_span))
    n = family.space.dim
    acc = np.zeros((n, n))
    for i in indices:
        b = family.subspaces[i].basis
        acc += family.weights[i] ** 2 * (b @ family.subspaces[i].gram @ b.T)
    return part_span.basis.T @ acc @ part_span.basis


def _skewed_family():
    from pathlib import Path
    parsed = kf.load_problem(
        Path(__file__).resolve().parent.parent / "fixtures" / "skewed_pair.json")
    return kf.family_from_spans([r for r, _ in parsed.entries],
                                [w for _, w in parsed.entries], parsed.space)


# ---------------------------------------------------------------------------
# construction


def test_make_weighted_family_partitions_by_sign(tilted_family):
    fam = tilted_family
    assert fam.size == 4
    assert sorted(fam.positive_indices) + sorted(fam.negative_indices) == [0, 1, 2, 3]
    for i in fam.positive_indices:
        assert fam.signs[i] == 1
        assert fam.entry_classifications[i].kind is SubspaceKind.UNIFORMLY_POSITIVE
    for i in fam.negative_indices:
        assert fam.signs[i] == -1


def test_family_rejects_nonpositive_weight(minkowski2):
    subs = [kf.span(np.array([[1.0, 0.0]]), minkowski2)]
    with pytest.raises(kf.NonPositiveWeight):
        kf.make_weighted_family(subs, [0.0])


def test_family_rejects_entry_of_dimension_zero(minkowski2):
    subs = [kf.span(np.array([[1.0, 0.0]]), minkowski2), kf.Subspace(minkowski2, np.zeros((2, 0)))]
    with pytest.raises(kf.ZeroSubspace, match="^entry 1: subspace has dimension zero$"):
        kf.make_weighted_family(subs, [1.0, 1.0])


def test_family_rejects_neutral_entry(minkowski2):
    with pytest.raises(kf.IndefiniteOrNeutralSubspace) as excinfo:
        kf.family_from_spans([np.array([[1.0, 1.0]])], [1.0], minkowski2)
    exc = excinfo.value
    assert exc.index == 0
    w = exc.witness
    assert abs(kf.indefinite_product(w, w, minkowski2)) <= EXACT_TOL


def test_family_rejects_indefinite_entry(minkowski3):
    rows = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(kf.IndefiniteOrNeutralSubspace):
        kf.family_from_spans([rows], [1.0], minkowski3)


# ---------------------------------------------------------------------------
# frame operator and its factorization


def test_eigen_family_operator_is_identity():
    fam = _eigen_family()
    s = kf.fusion_frame_operator(fam).matrix
    assert np.allclose(s, np.eye(2), atol=EXACT_TOL)


def _paper_operator(family):
    """The literal signed projector-composition reading of the frame operator,
    ``sum_i sigma_i v_i^2 J pi_i J`` (a reference, not the library's S)."""
    j = family.space.symmetry
    return sum(sigma * w**2 * (j @ sub.basis @ sub.basis.T @ j)
               for sigma, w, sub in zip(family.signs, family.weights, family.subspaces))


def _paper_adjoint_defect(family, seed, ntrials=50):
    """:func:`kf.adjoint_identity_residual` for the analysis rows of the same
    reading, ``sigma_i v_i G_i B_i^T J``, in place of the library's."""
    j = family.space.symmetry
    a = np.vstack([sigma * w * (sub.gram @ sub.basis.T @ j)
                   for sigma, w, sub in zip(family.signs, family.weights, family.subspaces)])
    t = kf.fusion_synthesis(family)
    dsum = kf.direct_sum_space(family)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(ntrials):
        c = rng.standard_normal(family.total_dim)
        f = rng.standard_normal(family.space.dim)
        lhs = float((t @ c) @ j @ f)
        rhs = dsum.indefinite_product(c, a @ f)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    return worst


def test_paper_variant_on_eigen_family_is_symmetry():
    """The sign-weighted projector sum gives J, not I, on eigenline entries.

    Kept as a documented contrast with the sign-free operator; the two
    readings agree only when every entry is J-invariant and positive.
    """
    fam = _eigen_family()
    assert np.allclose(_paper_operator(fam), fam.space.symmetry, atol=EXACT_TOL)


def test_operator_equals_synthesis_times_analysis(tilted_family):
    """S is T A, and T A is the projector sum that defines S."""
    s = kf.fusion_frame_operator(tilted_family).matrix
    t = kf.fusion_synthesis(tilted_family)
    a = kf.fusion_analysis(tilted_family)
    assert np.linalg.norm(s - t @ a) <= 1e-12 * np.linalg.norm(s)
    assert np.linalg.norm(s - _projector_sum(tilted_family)) <= 1e-12 * np.linalg.norm(s)


def test_operator_is_j_selfadjoint(tilted_family):
    s = kf.fusion_frame_operator(tilted_family).matrix
    ss = kf.j_adjoint_matrix(s, tilted_family.space)
    assert np.linalg.norm(s - ss) <= 1e-12 * np.linalg.norm(s)


def test_operator_splits_into_definite_parts(tilted_family):
    """S = S+ - S- with both parts positive for the indefinite product."""
    s = kf.fusion_frame_operator(tilted_family).matrix
    plus, minus = kf.fusion_operator_parts(tilted_family)
    scale = np.linalg.norm(s)
    assert np.linalg.norm(s - (plus.matrix - minus.matrix)) <= 1e-12 * scale
    assert np.linalg.norm(plus.matrix - _projector_sum(tilted_family, 1)) <= 1e-12 * scale
    assert np.linalg.norm(minus.matrix + _projector_sum(tilted_family, -1)) <= 1e-12 * scale
    space = tilted_family.space
    rng = np.random.default_rng(SEED)
    for _ in range(25):
        f = rng.standard_normal(space.dim)
        assert kf.indefinite_product(plus.matrix @ f, f, space) >= -NUM_TOL
        assert kf.indefinite_product(minus.matrix @ f, f, space) >= -NUM_TOL


def test_analysis_is_exact_adjoint_of_synthesis(tilted_family):
    """[T c, f] = [c, A f] against the block-Gram pairing on the direct sum."""
    residual = kf.adjoint_identity_residual(tilted_family, seed=SEED)
    assert residual <= 1e-12


def test_paper_analysis_is_not_the_adjoint(tilted_family):
    assert _paper_adjoint_defect(tilted_family, seed=SEED) > 1e-2


def test_bessel_bound_dominates_hilbert_sum(tilted_family):
    c = kf.bessel_bound(tilted_family)
    lo, hi = kf.oracles.hilbert_fusion_bounds(
        tilted_family.subspaces, tilted_family.weights)
    assert c >= hi - NUM_TOL


# ---------------------------------------------------------------------------
# verification and bounds


def test_verify_tilted_family(tilted_family):
    report = kf.verify_j_fusion_frame(tilted_family)
    assert report.is_j_fusion_frame
    assert report.complete
    assert report.positive.ok and report.negative.ok
    assert np.allclose(report.bounds, DIM6_BOUNDS, rtol=1e-12)
    bm, am, ap, bp = report.bounds
    assert bm <= am < 0 < ap <= bp


def test_bound_sandwich_on_tilted_family(tilted_family):
    bm, am, ap, bp = kf.optimal_fusion_bounds(tilted_family)
    bme, ame, ape, bpe = kf.fusion_bound_estimates(tilted_family)
    assert ape <= ap + NUM_TOL
    assert bp <= bpe + NUM_TOL
    assert ame >= am - NUM_TOL
    assert bm >= bme - NUM_TOL


def test_skewed_pair_frozen_values():
    fam = _skewed_family()
    assert np.allclose(kf.optimal_fusion_bounds(fam), SKEWED_BOUNDS, atol=1e-12)
    assert np.allclose(kf.fusion_bound_estimates(fam), SKEWED_ESTIMATES, atol=1e-12)
    # estimates are strictly non-optimal on this fixture
    bm, am, ap, bp = kf.optimal_fusion_bounds(fam)
    bme, ame, ape, bpe = kf.fusion_bound_estimates(fam)
    assert ape < ap and bp < bpe


def test_part_pencils_reproduce_bounds(tilted_family):
    report = kf.verify_j_fusion_frame(tilted_family)
    pencils = kf.part_pencils(tilted_family)
    lo, hi = rayleigh_extrema(*pencils["positive"])
    assert lo == pytest.approx(report.bounds[2], rel=1e-10)
    assert hi == pytest.approx(report.bounds[3], rel=1e-10)
    lo, hi = rayleigh_extrema(*pencils["negative"])
    assert lo == pytest.approx(report.bounds[0], rel=1e-10)
    assert hi == pytest.approx(report.bounds[1], rel=1e-10)


def _overlapping_family(n, tilt, seed=0):
    """A generated family of 2-dimensional, overlapping entries in signature
    (n/2, n/2), rotated for odd seeds."""
    p = n // 2
    return kf.gen_family(kf.GeneratorConfig(
        kind="fusion", seed=seed, dim=n, num_positive=p,
        entry_dims_positive=(2,) * (p // 2 + 1), entry_dims_negative=(2,) * ((n - p) // 2 + 1),
        tilt=tilt, rotate=seed % 2 == 1))


@pytest.mark.parametrize("tilt", [0.5, 0.9999999])
@pytest.mark.parametrize("n, seed", [(6, 0), (16, 1)])
def test_part_pencil_numerators_match_dense_accumulator(n, seed, tilt):
    family = _overlapping_family(n, tilt, seed)
    for label, (numerator, _) in kf.part_pencils(family).items():
        reference = _numerator_reference(family, label)
        assert np.linalg.norm(numerator - reference) <= 1e-12 * np.linalg.norm(reference)


def test_incomplete_family_fails(minkowski3):
    subs = [np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 0.0, 1.0]])]
    fam = kf.family_from_spans(subs, [1.0, 1.0], minkowski3)
    report = kf.verify_j_fusion_frame(fam)
    assert not report.is_j_fusion_frame
    assert not report.complete or not report.positive.dim_ok
    assert report.reasons


def test_missing_negative_part_fails(minkowski2):
    fam = kf.family_from_spans([np.array([[1.0, 0.0]])], [1.0], minkowski2)
    report = kf.verify_j_fusion_frame(fam)
    assert not report.is_j_fusion_frame


# ---------------------------------------------------------------------------
# canonical dual


def test_dual_span_identities(tilted_family):
    """S^{-1} maps each part span onto the other part's orthocomplement."""
    diag = kf.fusion_dual_diagnostics(tilted_family)
    assert diag.span_identity_residual <= 1e-10


def test_dual_operator_matches_inverse_on_eigen_family():
    fam = _eigen_family()
    diag = kf.fusion_dual_diagnostics(fam)
    assert diag.dual_operator_residual <= 1e-12
    assert diag.max_relative_deviation <= 1e-12


def test_dual_operator_deviates_for_tilted_family(tilted_family):
    """Pins measured behaviour: the dual family's operator is not S^{-1}.

    Transporting subspaces through S^{-1} keeps the original weights, and
    for weights bunched away from 1 or tilted entries the resulting family's
    own operator visibly differs from S^{-1}.  A single-entry family with
    weight v shows the effect exactly: the transported family reproduces
    v^2 Q while the inverse is Q / v^2.
    """
    diag = kf.fusion_dual_diagnostics(tilted_family)
    assert diag.dual_operator_residual > 1e-2

    space = kf.make_krein_space(np.diag([1.0, -1.0]))
    fam = kf.family_from_spans(
        [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])], [2.0, 1.0], space)
    diag2 = kf.fusion_dual_diagnostics(fam)
    assert diag2.dual_operator_residual > 1e-2


@pytest.mark.parametrize("n", [6, 16])
def test_dual_bases_are_sign_fixed_qr_factors(n):
    """Each dual basis is the Q of S^{-1} B_i with a positive diagonal in R.

    At tilt 0 the singular values of S^{-1} B_i are degenerate, so a
    rank-revealing SVD may return any rotation of the same span; the
    sign-fixed QR is unique and moves only as much as S^{-1} B_i does.
    """
    family = _overlapping_family(n, 0.0)
    s_ref = _projector_sum(family)
    diag = kf.fusion_dual_diagnostics(family)
    for sub, dual_sub in zip(family.subspaces, diag.dual.subspaces, strict=True):
        q, r = np.linalg.qr(np.linalg.solve(s_ref, sub.basis))
        q = q * np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
        assert np.max(np.abs(dual_sub.basis - q)) <= 1e-12


def test_dual_of_verified_family_is_verified(tilted_family):
    dual, inverse = kf.canonical_dual_fusion(tilted_family)
    assert kf.verify_j_fusion_frame(dual).is_j_fusion_frame
    s = kf.fusion_frame_operator(tilted_family).matrix
    assert np.allclose(inverse.matrix @ s, np.eye(tilted_family.space.dim), atol=1e-9)


def test_near_neutral_dual_family_verifies_in_full_with_estimates():
    """A dual from ``canonical_dual_fusion`` of a near-neutral family (the
    worst move of the dual bounds measured at the sign-fixed QR spans),
    built at either cutoff, verifies in full, spans of the signature's
    dimensions, with estimates."""
    family = kf.gen_family(kf.GeneratorConfig(kind="fusion", seed=1, dim=6, num_positive=3,
                                              tilt=1.0 - 1e-9, rotate=True))
    for tol_rank in (kf.TOL_RANK, 1e-3):
        dual, _ = kf.canonical_dual_fusion(
            kf.make_weighted_family(family.subspaces, family.weights, kf.TOL_DEF, tol_rank))
        report = kf.verify_j_fusion_frame(dual)
        assert report.is_j_fusion_frame
        assert (report.positive.required_dim, report.negative.required_dim) == (3, 3)
        assert None not in report.bound_estimates
        assert all(np.isfinite(report.bound_estimates))


# ---------------------------------------------------------------------------
# J-images, projection alignment, flattening


@pytest.mark.parametrize("tilt", [0.0, 0.5, 1.0 - 1e-7])
def test_part_spans_and_estimates_come_from_one_svd_of_the_weighted_synthesis(tilt):
    """Each part span and the singular values behind its estimates are one
    ``column_space`` of the class's weighted synthesis columns ``v_i B_i``,
    bit for bit; the dual's part spans S^{-1} M+/- are the Q factors of
    S^{-1} U+/-, with U+/- those part span bases and a positive diagonal in
    R, at the family's cutoffs."""
    family = kf.gen_family(kf.GeneratorConfig(
        kind="fusion", seed=3, dim=8, num_positive=4, tilt=tilt, rotate=True,
        entry_dims_positive=(2, 1, 1, 2), entry_dims_negative=(1, 2, 1, 1)))
    assert len(set(family.entry_dims)) > 1
    report = kf.verify_j_fusion_frame(family)
    assert report.is_j_fusion_frame
    spans = family._class_spans
    dual = kf.fusion_dual_diagnostics(family).dual
    for label, indices in (("positive", family.positive_indices),
                           ("negative", family.negative_indices)):
        basis, svals = column_space(
            np.hstack([family.weights[i] * family.subspaces[i].basis for i in indices]),
            kf.TOL_RANK)
        span = getattr(family, f"{label}_span")
        assert np.array_equal(span.basis, basis)
        assert spans[label] == (indices, span)
        assert np.array_equal(family._class_svds[label][2], svals)
        part = getattr(report, label)
        gamma_g = part.classification.gamma
        inner = smallest_nonzero_modulus(svals, kf.TOL_RANK) ** 2 * gamma_g**2
        outer = float(svals[0]) ** 2 / gamma_g
        assert part.estimate_range == ((inner, outer) if label == "positive"
                                       else (-outer, -inner))
        q, r = np.linalg.qr(np.linalg.inv(kf.fusion_frame_operator(family).matrix) @ span.basis)
        dual_span = getattr(dual, f"{label}_span")
        assert np.array_equal(dual_span.basis, q * np.where(np.diagonal(r) < 0.0, -1.0, 1.0))
        assert dual._class_spans[label] == (indices, dual_span)
    assert (dual.tol_def, dual.tol_rank) == (family.tol_def, family.tol_rank)


def test_j_image_family_preserves_validity(tilted_family):
    image = kf.j_image_family(tilted_family)
    assert list(image.signs) == list(tilted_family.signs)
    assert kf.verify_j_fusion_frame(image).is_j_fusion_frame


def test_rps_residuals_vanish_for_eigen_family():
    fam = _eigen_family()
    for entry in kf.check_rps_corollary(fam):
        assert entry.r <= EXACT_TOL
        assert entry.r_prime <= EXACT_TOL


def test_rps_residuals_on_skewed_pair():
    """r detects the projector mismatch; r' vanishes for full-part entries."""
    fam = _skewed_family()
    entries = kf.check_rps_corollary(fam)
    assert all(e.r == pytest.approx(SKEWED_R, abs=1e-12) for e in entries)
    assert all(e.r_prime <= EXACT_TOL for e in entries)


def test_rps_q_residual_positive_for_overlapping_entries(tilted_family):
    """Pins measured behaviour: r' > 0 once entries tilt inside their part.

    The indefinite and Euclidean projectors onto an entry do not agree on
    the part span unless the entry is J-invariant or fills the whole part.
    """
    entries = kf.check_rps_corollary(tilted_family)
    assert max(e.r_prime for e in entries) > 1e-3
    assert all(np.isfinite(e.r) for e in entries)


REFERENCE_REL_TOL = 1e-12
NEAR_NEUTRAL = 0.9999999


def _close_to_reference(new: float, ref: float, noise: float = 0.0) -> bool:
    return abs(new - ref) <= REFERENCE_REL_TOL * max(1.0, abs(ref)) + noise


def _r_prime_noise(family, index: int) -> float:
    """First-order rounding error of r' on floating-point bases, n eps / margin.

    r' applies G^{-1} to B^T J (B_M - B B^T B_M), whose entries are only
    known to about eps, so any route to r' (the dense one too) carries noise
    of this size: near-neutral entries (margin 1e-7) that fill their part
    span, where r' = 0 exactly, come out between 1e-10 and 1e-9.
    """
    margin = family.entry_classifications[index].margin
    return family.space.dim * np.finfo(float).eps / margin


@st.composite
def _generated_families(draw):
    n = draw(st.integers(min_value=2, max_value=32))
    p = draw(st.integers(min_value=0, max_value=n))
    chunk = draw(st.integers(min_value=1, max_value=4))

    def dims(part):
        # chunks covering the part, plus one more so that entries overlap
        return tuple(min(chunk, part) for _ in range(-(-part // chunk) + 1)) if part else ()

    cfg = kf.GeneratorConfig(
        kind="fusion",
        seed=draw(st.integers(min_value=0, max_value=10_000)),
        dim=n,
        num_positive=p,
        entry_dims_positive=dims(p),
        entry_dims_negative=dims(n - p),
        tilt=draw(st.sampled_from([0.0, 0.5, 0.99, NEAR_NEUTRAL])
                  | st.floats(min_value=0.0, max_value=NEAR_NEUTRAL)),
        rotate=draw(st.booleans()),
    )
    return kf.gen_family(cfg)


@seed(4)
@settings(max_examples=60, deadline=None)
@given(family=_generated_families())
def test_entry_coordinate_kernels_match_dense_reference(family):
    """r, r' and the Bessel constant agree with their dense n x n definitions."""
    for new, ref in zip(kf.check_rps_corollary(family), _rps_reference(family), strict=True):
        assert (new.index, new.part) == (ref.index, ref.part)
        assert _close_to_reference(new.r, ref.r), (new, ref)
        assert _close_to_reference(new.r_prime, ref.r_prime,
                                   _r_prime_noise(family, new.index)), (new, ref)
    assert _close_to_reference(kf.bessel_bound(family), _bessel_reference(family))


def test_rps_requires_regular_entries(tilted_family):
    """An entry whose Gram margin is at most tol_def has no indefinite
    projector: a family at that tol_def is refused when it is built."""
    margins = [c.margin for c in tilted_family.entry_classifications]
    subspaces, weights = tilted_family.subspaces, tilted_family.weights
    kf.check_rps_corollary(kf.make_weighted_family(subspaces, weights, 0.5 * min(margins)))
    with pytest.raises(kf.IndefiniteOrNeutralSubspace) as info:
        kf.make_weighted_family(subspaces, weights, 1.01 * min(margins))
    assert margins[info.value.index] <= 1.01 * min(margins)
    weakest = tilted_family.subspaces[int(np.argmin(margins))]
    with pytest.raises(kf.NotRegular):
        kf.j_projection(weakest, tol_def=1.01 * min(margins))


def _recording(calls: list, name: str, verify):
    """``verify``, appending ``(name, system, args, kwargs)`` to ``calls``."""
    def recorded(system, *args, **kwargs):
        calls.append((name, system, args, kwargs))
        return verify(system, *args, **kwargs)
    return recorded


def test_dual_diagnostics_verify_original_family_once(tilted_family, monkeypatch):
    """The dual route verifies the family once and its dual once, each for
    its bounds only, at the cutoffs the family was built at."""
    calls = []
    for name in ("_verify_sign_parts", "_verify_bounds"):
        monkeypatch.setattr(kf.frames, name, _recording(calls, name, getattr(kf.frames, name)))
    family = kf.make_weighted_family(tilted_family.subspaces, tilted_family.weights, 1e-11, 1e-9)
    diag = kf.fusion_dual_diagnostics(family)
    assert [(name, system) for name, system, _, _ in calls] == [
        ("_verify_bounds", family), ("_verify_bounds", diag.dual)]
    assert all((system.tol_def, system.tol_rank) == (1e-11, 1e-9) and not args and not kwargs
               for _, system, args, kwargs in calls)


def test_dual_diagnostics_build_each_synthesis_and_operator_once(tilted_family, monkeypatch):
    """T and S of the family and of its dual are each built once: T by the
    synthesis columns of every entry, S as T times the analysis."""
    family_class = kf.WeightedSubspaceFamily
    columns, analysis = family_class._synthesis_columns, kf.fusion.fusion_analysis
    synthesis_builds, operator_builds = [], []

    def counting_columns(family, indices):
        if len(indices) == family.size:
            synthesis_builds.append(family)
        return columns(family, indices)

    def counting_analysis(family, *args, **kwargs):
        operator_builds.append(family)
        return analysis(family, *args, **kwargs)

    monkeypatch.setattr(family_class, "_synthesis_columns", counting_columns)
    monkeypatch.setattr(kf.fusion, "fusion_analysis", counting_analysis)
    diag = kf.fusion_dual_diagnostics(tilted_family)
    assert synthesis_builds == [tilted_family, diag.dual]
    assert operator_builds == [tilted_family, diag.dual]
    assert kf.fusion_synthesis(tilted_family) is kf.fusion_synthesis(tilted_family)


def test_flatten_family_matches_fusion_verdict(tilted_family):
    frame = kf.flatten_family(tilted_family)
    assert kf.is_j_frame(frame) == kf.verify_j_fusion_frame(tilted_family).is_j_fusion_frame
    # the flattening inherits the part spans exactly
    pos_fusion = tilted_family.positive_span
    pos_frame = frame.positive_span
    assert np.allclose(pos_fusion.basis @ pos_fusion.basis.T,
                       pos_frame.basis @ pos_frame.basis.T, atol=1e-10)


def test_equivalence_check_agreement(minkowski3):
    rows_pos = np.array([[1.0, 0.2, 0.0], [0.1, 1.0, 0.1]])
    rows_neg = np.array([[0.1, 0.0, 1.0]])
    report = kf.equivalence_check([rows_pos, rows_neg], [1.3, 0.7], minkowski3)
    assert report.agree
    assert report.fusion_verdict and report.frame_verdict


def test_equivalence_check_planted_failure(minkowski3):
    # positive spans cover only one of the two positive dimensions
    rows_pos = np.array([[1.0, 0.0, 0.0]])
    rows_neg = np.array([[0.0, 0.0, 1.0]])
    report = kf.equivalence_check([rows_pos, rows_neg], [1.0, 1.0], minkowski3)
    assert report.agree
    assert not report.fusion_verdict and not report.frame_verdict


def test_direct_sum_space_pairing(tilted_family):
    dsum = kf.direct_sum_space(tilted_family)
    assert dsum.dim == sum(s.dim for s in tilted_family.subspaces)
    rng = np.random.default_rng(SEED)
    c = rng.standard_normal(dsum.dim)
    d = rng.standard_normal(dsum.dim)
    by_blocks = 0.0
    offset = 0
    for sub in tilted_family.subspaces:
        k = sub.dim
        by_blocks += c[offset:offset + k] @ sub.gram @ d[offset:offset + k]
        offset += k
    assert dsum.indefinite_product(c, d) == pytest.approx(by_blocks, rel=1e-12)


def test_a_family_is_judged_at_the_rank_cutoff_it_was_built_at(minkowski3):
    """The lines of two positive vectors 1e-9 apart in angle and a negative
    eigenline: built at a cutoff of 1e-8, the family fails, and its optimal
    bounds, canonical dual and dual diagnostics are refused at that cutoff
    too; built at the default cutoff, it verifies."""
    rows = [np.array([[1.0, 0.0, 0.0]]), np.array([[1.0, 1e-9, 0.0]]),
            np.array([[0.0, 0.0, 1.0]])]
    family = kf.family_from_spans(rows, [1.0, 1.0, 1.0], minkowski3, tol_rank=1e-8)
    report = kf.verify_j_fusion_frame(family)
    assert not report.is_j_fusion_frame
    assert "positive span has dimension 1, signature requires 2" in report.reasons
    for derived in (kf.optimal_fusion_bounds, kf.canonical_dual_fusion,
                    kf.fusion_dual_diagnostics):
        with pytest.raises(kf.NotAJFusionFrame, match="positive span has dimension 1"):
            derived(family)
    assert kf.verify_j_fusion_frame(
        kf.family_from_spans(rows, [1.0, 1.0, 1.0], minkowski3)).is_j_fusion_frame
