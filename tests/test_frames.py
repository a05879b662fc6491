"""Vector frames: verification, bounds, duals, and the interlacing identity."""

import numpy as np
import pytest

import kreinframes as kf
from kreinframes import cli
from kreinframes._numeric import column_space, definite_pair_extrema
from oracle_references import rayleigh_extrema

EXACT_TOL = 1e-12
NUM_TOL = 1e-9
SEED = 42

# Frozen reference: the diagonal frame {sqrt(2) e1, sqrt(2) e2} in diag(1,-1)
# has both optimal pairs equal to (2, 2) and condition number 1.
EIGEN_VECTORS = np.array([[np.sqrt(2.0), 0.0], [0.0, np.sqrt(2.0)]])
EIGEN_BOUNDS = (-2.0, -2.0, 2.0, 2.0)
EIGEN_DUAL_BOUNDS = (-0.5, -0.5, 0.5, 0.5)


def _tilted_frame() -> kf.VectorFrame:
    cfg = kf.GeneratorConfig(kind="frame", seed=5, dim=4, num_positive=2,
                             num_vectors_positive=3, num_vectors_negative=3,
                             rotate=True)
    return kf.gen_frame(cfg)


def test_partition_by_sign(minkowski2):
    vectors = np.array([[1.0, 0.2], [0.3, 1.0]])
    frame = kf.partition_by_sign(vectors, minkowski2)
    assert list(frame.positive_indices) == [0]
    assert list(frame.negative_indices) == [1]
    assert frame.signs[0] == 1 and frame.signs[1] == -1


def test_partition_rejects_neutral_vector(minkowski2):
    with pytest.raises(kf.NeutralVector) as excinfo:
        kf.partition_by_sign(np.array([[1.0, 1.0], [1.0, 0.0]]), minkowski2)
    assert excinfo.value.index == 0
    assert abs(excinfo.value.self_product) <= EXACT_TOL


def test_frame_operator_is_signed_j_gram_sum(minkowski2):
    frame = kf.partition_by_sign(EIGEN_VECTORS, minkowski2)
    s = kf.frame_operator(frame).matrix
    j = minkowski2.symmetry
    expected = sum(sigma * np.outer(f, f) @ j
                   for sigma, f in zip(frame.signs, EIGEN_VECTORS))
    assert np.allclose(s, expected, atol=EXACT_TOL)
    assert np.allclose(s, np.diag([2.0, 2.0]), atol=EXACT_TOL)


def test_partial_operators_sum_to_full(minkowski2):
    rng = np.random.default_rng(SEED)
    vectors = np.array([[1.0, 0.1], [0.9, 0.3], [0.1, 1.0]])
    frame = kf.partition_by_sign(vectors, minkowski2)
    full = kf.frame_operator(frame).matrix
    s0 = kf.partial_frame_operator(frame, [0]).matrix
    s12 = kf.partial_frame_operator(frame, [1, 2]).matrix
    assert np.allclose(s0 + s12, full, atol=EXACT_TOL)


def test_partial_operator_rejects_bad_indices(minkowski2):
    frame = kf.partition_by_sign(EIGEN_VECTORS, minkowski2)
    with pytest.raises(kf.IndexOutOfRange):
        kf.partial_frame_operator(frame, [0, 5])


def test_verify_eigen_frame(minkowski2):
    frame = kf.partition_by_sign(EIGEN_VECTORS, minkowski2)
    report = kf.verify_j_frame(frame)
    assert report.is_j_frame
    assert report.condition_number == pytest.approx(1.0)
    assert np.allclose(report.bounds, EIGEN_BOUNDS, atol=EXACT_TOL)
    assert report.positive.ok and report.negative.ok
    # sandwich: estimates enclose the optimal pair on each side
    bm, am, ap, bp = report.bounds
    bme, ame, ape, bpe = report.bound_estimates
    assert ape <= ap + NUM_TOL and bp <= bpe + NUM_TOL
    assert bme <= bm + NUM_TOL and am <= ame + NUM_TOL


def test_verify_tilted_frame_bounds_ordering():
    frame = _tilted_frame()
    report = kf.verify_j_frame(frame)
    assert report.is_j_frame
    bm, am, ap, bp = report.bounds
    assert bm <= am < 0 < ap <= bp
    # Bessel constant: largest eigenvalue of the Euclidean frame operator
    expected = np.linalg.eigvalsh(frame.vectors.T @ frame.vectors)[-1]
    assert report.bessel_bound == pytest.approx(expected, rel=1e-12)


def test_frame_missing_negative_part_fails(minkowski2):
    frame = kf.partition_by_sign(np.array([[1.0, 0.0], [1.0, 0.5]]), minkowski2)
    report = kf.verify_j_frame(frame)
    assert not report.is_j_frame
    assert report.reasons
    assert not kf.is_j_frame(frame)


def test_frame_deficient_positive_span_fails():
    """Three vectors in a signature-(2,1) space whose positive part is a line."""
    space = kf.make_krein_space(np.diag([1.0, 1.0, -1.0]))
    vectors = np.array([[1.0, 0, 0], [2.0, 0, 0], [0, 0, 1.0]])
    frame = kf.partition_by_sign(vectors, space)
    report = kf.verify_j_frame(frame)
    assert not report.is_j_frame
    assert report.positive is not None and not report.positive.dim_ok


def test_part_pencils_reproduce_bounds():
    frame = _tilted_frame()
    report = kf.verify_j_frame(frame)
    pencils = kf.frame_part_pencils(frame)
    lo, hi = rayleigh_extrema(*pencils["positive"])
    assert lo == pytest.approx(report.bounds[2], rel=1e-10)
    assert hi == pytest.approx(report.bounds[3], rel=1e-10)
    lo, hi = rayleigh_extrema(*pencils["negative"])
    assert lo == pytest.approx(report.bounds[0], rel=1e-10)
    assert hi == pytest.approx(report.bounds[1], rel=1e-10)


def test_optimal_bounds_are_attained():
    """The positive optimal pair brackets actual Rayleigh quotients tightly."""
    space = kf.make_krein_space(np.diag([1.0, 1.0, -1.0]))
    vectors = np.array([[1.0, 0.1, 0.0], [0.8, 0.4, 0.0],
                        [0.2, 1.1, 0.0], [0.0, 0.0, 1.0]])
    frame = kf.partition_by_sign(vectors, space)
    _, _, ap, bp = kf.optimal_j_frame_bounds(frame)
    rng = np.random.default_rng(SEED)
    pos_span = frame.positive_span
    ratios = []
    for _ in range(2000):
        f = pos_span.embed(rng.standard_normal(pos_span.dim))
        num = sum(kf.indefinite_product(f, frame.vectors[i], space) ** 2
                  for i in frame.positive_indices)
        ratios.append(num / kf.indefinite_product(f, f, space))
    assert min(ratios) >= ap - 1e-9
    assert max(ratios) <= bp + 1e-9
    assert min(ratios) <= ap + 1e-2 * (1 + abs(ap))
    assert max(ratios) >= bp - 1e-2 * (1 + abs(bp))


# ---------------------------------------------------------------------------
# canonical dual


def test_canonical_dual_eigen_frame(minkowski2):
    frame = kf.partition_by_sign(EIGEN_VECTORS, minkowski2)
    dual = kf.canonical_dual(frame)
    assert np.allclose(dual.vectors, EIGEN_VECTORS / 2.0, atol=EXACT_TOL)
    assert np.allclose(kf.optimal_j_frame_bounds(dual), EIGEN_DUAL_BOUNDS, atol=EXACT_TOL)


def test_dual_frame_operator_is_inverse():
    frame = _tilted_frame()
    s = kf.frame_operator(frame).matrix
    dual = kf.canonical_dual(frame)
    s_dual = kf.frame_operator(dual).matrix
    resid = np.linalg.norm(s_dual - np.linalg.inv(s)) / np.linalg.norm(np.linalg.inv(s))
    assert resid <= 1e-10


def test_dual_reconstruction():
    """f = sum_i sigma_i [f, g_i] f_i with the canonical dual {g_i}."""
    frame = _tilted_frame()
    dual = kf.canonical_dual(frame)
    space = frame.space
    rng = np.random.default_rng(SEED + 1)
    for _ in range(10):
        f = rng.standard_normal(space.dim)
        recon = np.zeros(space.dim)
        for i in range(len(frame.vectors)):
            coeff = kf.indefinite_product(f, dual.vectors[i], space)
            recon += frame.signs[i] * coeff * frame.vectors[i]
        assert np.linalg.norm(recon - f) <= 1e-9 * (1 + np.linalg.norm(f))


def test_dual_of_dual_restores_frame():
    frame = _tilted_frame()
    back = kf.canonical_dual(kf.canonical_dual(frame))
    assert np.allclose(back.vectors, frame.vectors, atol=1e-9)


def test_reciprocity_exact_for_eigen_frame(minkowski2):
    frame = kf.partition_by_sign(EIGEN_VECTORS, minkowski2)
    report = kf.dual_reciprocity(frame)
    assert report.max_relative_deviation <= 1e-12
    assert np.allclose(report.reciprocal_expected, EIGEN_DUAL_BOUNDS, atol=EXACT_TOL)


def test_reciprocity_report_carries_the_canonical_dual():
    frame = _tilted_frame()
    report = kf.dual_reciprocity(frame)
    dual = kf.canonical_dual(frame)
    assert np.array_equal(report.dual.vectors, dual.vectors)
    assert np.array_equal(report.dual.signs, dual.signs)
    s_inv = np.linalg.inv(kf.frame_operator(frame).matrix)
    assert report.dual_operator_residual <= 1e-12
    assert np.allclose(kf.frame_operator(report.dual).matrix, s_inv, atol=1e-12)


def _recording(calls: list, name: str, fn):
    """``fn``, appending ``(name, first argument, other arguments, keyword
    arguments)`` of each call to ``calls``."""
    def recorded(first, *args, **kwargs):
        calls.append((name, first, args, kwargs))
        return fn(first, *args, **kwargs)
    return recorded


def test_dual_reciprocity_verifies_frame_and_dual_once(monkeypatch):
    """The dual route verifies the frame once and its dual once, each for
    its bounds only, at the cutoffs the frame was built at."""
    calls = []
    for name in ("_verify_sign_parts", "_verify_bounds"):
        monkeypatch.setattr(kf.frames, name, _recording(calls, name, getattr(kf.frames, name)))
    tilted = _tilted_frame()
    frame = kf.partition_by_sign(tilted.vectors, tilted.space, 1e-11, 1e-9)
    report = kf.dual_reciprocity(frame)
    assert [(name, system) for name, system, _, _ in calls] == [
        ("_verify_bounds", frame), ("_verify_bounds", report.dual)]
    assert all((system.tol_def, system.tol_rank) == (1e-11, 1e-9) and not args and not kwargs
               for _, system, args, kwargs in calls)


def test_dual_reciprocity_builds_each_frame_operator_once(monkeypatch):
    """S of the frame and S of its dual, each built once, by the one product
    that every frame operator takes."""
    calls = []
    build = kf.frames._frame_product

    def counting(frame, indices):
        calls.append(frame)
        return build(frame, indices)

    monkeypatch.setattr(kf.frames, "_frame_product", counting)
    frame = _tilted_frame()
    report = kf.dual_reciprocity(frame)
    assert len(calls) == 2
    assert calls[0] is frame and calls[1] is report.dual


def _generated(kind: str, n: int, tilt: float, seed: int):
    """A generated frame (m = 2n) or family at tilt ``tilt``, rotated on odd seeds."""
    cfg = kf.GeneratorConfig(kind=kind, seed=seed, dim=n, num_positive=n // 2, tilt=tilt,
                             rotate=seed % 2 == 1, num_vectors_positive=n,
                             num_vectors_negative=n)
    return kf.gen_frame(cfg) if kind == "frame" else kf.gen_family(cfg)


def _rebuilt(system, tol_def: float, tol_rank: float):
    """The frame or family of ``system``'s vectors or entries and weights,
    built at ``tol_def`` and ``tol_rank``."""
    if isinstance(system, kf.VectorFrame):
        return kf.partition_by_sign(system.vectors, system.space, tol_def, tol_rank)
    return kf.make_weighted_family(system.subspaces, system.weights, tol_def, tol_rank)


@pytest.mark.parametrize("kind", ["frame", "fusion"])
def test_a_system_verified_again_at_the_same_cutoffs_builds_no_pencil(kind, monkeypatch):
    """The verification of a system is kept with it, so a second
    verification, its optimal bounds and its canonical dual read it; the
    same data built at another cutoff is verified anew."""
    system = _generated(kind, 8, 0.5, 1)
    calls = []
    monkeypatch.setattr(kf.frames, "_class_pencils",
                        _recording(calls, "pencils", kf.frames._class_pencils))
    if kind == "frame":
        verify, bounds, dual = kf.verify_j_frame, kf.optimal_j_frame_bounds, kf.canonical_dual
    else:
        verify, bounds, dual = (kf.verify_j_fusion_frame, kf.optimal_fusion_bounds,
                                kf.canonical_dual_fusion)
    first = verify(system)
    assert verify(system).bounds == first.bounds == bounds(system)
    dual(system)
    assert [(name, built) for name, built, _, _ in calls] == [("pencils", system)]
    verify(_rebuilt(system, kf.TOL_DEF, 1e-9))
    assert len(calls) == 2


def _dual_report(system):
    derive = kf.dual_reciprocity if isinstance(system, kf.VectorFrame) else kf.fusion_dual_diagnostics
    return derive(system)


@pytest.mark.parametrize("kind", ["frame", "fusion"])
def test_dual_spans_are_the_q_factors_of_the_inverse_on_the_system_spans(kind, monkeypatch):
    """One dual takes an SVD (``column_spaces``) of the system's own classes
    only, and no Bessel bound: each dual class span is the Q
    factor of S^{-1} U+/-, with U+/- the system's class basis and a positive
    diagonal in R, and a frame's dual vectors are S^{-1} f_i from one product
    with S^{-1}.  The dual keeps the system's signs, which no sign decision
    on the dual members takes again, and its tolerances."""
    system = _generated(kind, 8, 0.5, 1)

    def no_sign_decision(*args, **kwargs):
        raise AssertionError("the dual decided the signs of its members again")

    monkeypatch.setattr(kf.frames, "partition_by_sign", no_sign_decision)
    monkeypatch.setattr(kf.fusion, "_signed_family", no_sign_decision)
    calls = []
    monkeypatch.setattr(kf._numeric, "column_spaces",
                        _recording(calls, "svd", kf._numeric.column_spaces))
    monkeypatch.setattr(kf.frames, "_bessel_bound",
                        _recording(calls, "bessel", kf.frames._bessel_bound))
    dual = _dual_report(system).dual
    assert np.array_equal(dual.signs, system.signs)
    svds = [m for name, matrices, _, _ in calls if name == "svd" for m in matrices]
    classes = (system.positive_indices, system.negative_indices)
    assert len(svds) == 2
    assert all(np.array_equal(m, system._synthesis_columns(indices))
               for m, indices in zip(svds, classes))
    assert not [name for name, _, _, _ in calls if name == "bessel"]
    assert (dual.tol_def, dual.tol_rank) == (system.tol_def, system.tol_rank)
    s_inv = np.linalg.inv(system._operator[0])
    if kind == "frame":
        assert np.array_equal(dual.vectors, system.vectors @ s_inv.T)
    for label, (indices, span) in system._class_spans.items():
        q, r = np.linalg.qr(s_inv @ span.basis)
        dual_indices, dual_span = dual._class_spans[label]
        assert dual_indices == indices
        assert np.array_equal(dual_span.basis, q * np.where(np.diagonal(r) < 0.0, -1.0, 1.0))


@pytest.mark.parametrize("kind", ["frame", "fusion"])
@pytest.mark.parametrize("n", [4, 6, 16])
@pytest.mark.parametrize("tilt", [1.0 - 1e-7, 1.0 - 1e-9])
@pytest.mark.parametrize("seed", [0, 1])
def test_near_neutral_dual_bounds_are_those_of_the_svd_route_within_their_width(
        kind, n, tilt, seed):
    """Each dual bound is within its rounding width (``oracles.bound_width``, at
    the dual's Bessel bound and margin) of the bound that the dual's own
    SVD spans, at the dimensions of M+/-, give."""
    system = _generated(kind, n, tilt, seed)
    report = _dual_report(system)
    dual = report.dual
    beta = kf.frames._bessel_bound(dual.synthesis)
    for label, (indices, span) in system._class_spans.items():
        basis, _ = column_space(dual._synthesis_columns(indices), 0.0)
        reference_span = kf.Subspace(space=dual.space, basis=basis[:, :span.dim])
        reference = definite_pair_extrema(*kf.frames._pencil(dual, label,
                                                             (indices, reference_span)))
        margin = kf.classify(reference_span).margin
        for slot, bound in zip(cli.BOUND_SLOTS[label], reference):
            width = kf.oracles.bound_width(bound, beta, margin)
            assert abs(report.dual_bounds[slot] - bound) <= width


def _same_arrays(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))


def test_bounds_verification_and_report_agree_on_a_failing_frame():
    """The verification core (bounds only) and the report agree on verdict,
    reasons, parts (but for the estimates, which only the report takes) and
    pencils, one for every nonempty class whatever its kind; the report's
    pencils are those of :func:`frame_part_pencils`."""
    space = kf.make_krein_space(np.diag([1.0, 1.0, -1.0]))
    frame = kf.partition_by_sign(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                           [2.0, 0.0, 1.9], [0.0, 0.0, 1.0]]), space)
    verdict, fields = kf.frames._verify_bounds(frame)
    report = kf.verify_j_frame(frame)
    assert not verdict and not report.is_j_frame
    assert fields["reasons"] == report.reasons
    assert not report.positive.kind_ok and report.negative.kind_ok
    for label in ("positive", "negative"):
        part, full = fields[label], getattr(report, label)
        assert part.estimate_range is None
        assert (part._replace(classification=None)
                == full._replace(classification=None, estimate_range=None))
        assert _same_arrays(part.classification, full.classification)
    pencils = kf.frame_part_pencils(frame)
    assert list(fields["pencils"]) == list(report.pencils) == list(pencils) == ["positive",
                                                                                "negative"]
    for label, pencil in pencils.items():
        assert _same_arrays(fields["pencils"][label], report.pencils[label])
        assert _same_arrays(report.pencils[label], pencil)


TINY_FRAME = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("scale", [1e-200, 1e-160, 2.0**-600, 2.0**505])
def test_sign_test_does_not_depend_on_scale(minkowski2, scale):
    """Far from unit scale the self-products underflow (or grow past 2^1000),
    yet signs, verdict and condition number are those of the unit frame."""
    unit = kf.verify_j_frame(kf.partition_by_sign(TINY_FRAME, minkowski2))
    frame = kf.partition_by_sign(scale * TINY_FRAME, minkowski2)
    assert list(frame.signs) == [1, -1, 1]
    report = kf.verify_j_frame(frame)
    assert report.is_j_frame
    assert report.condition_number == pytest.approx(unit.condition_number, rel=1e-12)
    with pytest.raises(kf.NeutralVector) as excinfo:
        kf.partition_by_sign(scale * np.array([[1.0, 1.0]]), minkowski2)
    assert excinfo.value.index == 0


@pytest.mark.parametrize("scale", [1e-200, 1e-160])
def test_dual_whose_inverse_operator_overflows_is_refused(minkowski2, scale):
    frame = kf.partition_by_sign(scale * TINY_FRAME, minkowski2)
    for derive in (kf.canonical_dual, kf.dual_reciprocity):
        with pytest.raises(kf.InputError, match="^the inverse frame operator overflows a double$"):
            derive(frame)


def test_reciprocity_fails_for_tilted_frame():
    """Pins measured behaviour: the reciprocal-bounds pattern is not exact.

    For generic (tilted) frames the dual's optimal bounds deviate from the
    reciprocals of the original bounds by a visible margin, so the deviation
    must sit far above numerical noise.
    """
    frame = _tilted_frame()
    report = kf.dual_reciprocity(frame)
    assert report.max_relative_deviation > 1e-3


# ---------------------------------------------------------------------------
# interlacing identity


def test_interlacing_identity_exact():
    frame = _tilted_frame()
    rng = np.random.default_rng(SEED + 2)
    for subset in ([0], [1, 3], [0, 2, 4], list(range(len(frame.vectors)))):
        for _ in range(5):
            f = rng.standard_normal(frame.space.dim)
            lhs, rhs = kf.interlacing_identity(frame, subset, f)
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))


def test_interlacing_identity_empty_subset(minkowski2):
    frame = kf.partition_by_sign(EIGEN_VECTORS, minkowski2)
    lhs, rhs = kf.interlacing_identity(frame, [], np.array([1.0, 2.0]))
    assert abs(lhs - rhs) <= EXACT_TOL


# Two positive vectors 1e-9 apart in angle: their span has dimension 2 at the
# default rank cutoff and dimension 1 at a cutoff of 1e-8.
NEAR_PARALLEL = np.array([[1.0, 0.0, 0.0], [1.0, 1e-9, 0.0], [0.0, 0.0, 1.0]])


def test_a_frame_is_judged_at_the_rank_cutoff_it_was_built_at(minkowski3):
    """Built at a cutoff of 1e-8, the frame fails, and its optimal bounds,
    canonical dual and reciprocity report are refused at that cutoff too;
    built at the default cutoff, it verifies."""
    frame = kf.partition_by_sign(NEAR_PARALLEL, minkowski3, tol_rank=1e-8)
    report = kf.verify_j_frame(frame)
    assert not report.is_j_frame
    assert "positive span has dimension 1, signature requires 2" in report.reasons
    for derived in (kf.optimal_j_frame_bounds, kf.canonical_dual, kf.dual_reciprocity):
        with pytest.raises(kf.NotAJFrame, match="positive span has dimension 1"):
            derived(frame)
    assert kf.verify_j_frame(kf.partition_by_sign(NEAR_PARALLEL, minkowski3)).is_j_frame
