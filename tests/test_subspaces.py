"""Subspace classification, indefinite projections, and angular operators."""

import numpy as np
import pytest

import kreinframes as kf
from kreinframes import SubspaceKind

EXACT_TOL = 1e-12
NUM_TOL = 1e-9
SEED = 20240812


# ---------------------------------------------------------------------------
# spans and classification


def test_span_orthonormalizes_and_drops_dependent_rows(minkowski3):
    vecs = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
    sub = kf.span(vecs, minkowski3)
    assert sub.dim == 2
    assert np.allclose(sub.basis.T @ sub.basis, np.eye(2), atol=EXACT_TOL)


def test_span_rejects_zero_input(minkowski2):
    with pytest.raises(kf.ZeroSubspace):
        kf.span(np.zeros((2, 2)), minkowski2)


def test_span_rejects_rows_of_the_wrong_length(minkowski2):
    with pytest.raises(kf.DimensionMismatch,
                       match="^spanning vectors have length 3, expected 2$"):
        kf.span(np.ones((1, 3)), minkowski2)


def test_classify_rejects_zero_dimensional_subspace(minkowski2):
    with pytest.raises(kf.ZeroSubspace, match="^subspace has dimension zero$"):
        kf.classify(kf.Subspace(minkowski2, np.zeros((2, 0))))


def test_classify_canonical_positive_plane(minkowski3):
    sub = kf.span(np.array([[1.0, 0, 0], [0, 1.0, 0]]), minkowski3)
    cls = kf.classify(sub)
    assert cls.kind is SubspaceKind.UNIFORMLY_POSITIVE
    assert cls.margin == pytest.approx(1.0)
    assert cls.regular
    assert cls.maximal_definite
    assert cls.witness is None


def test_classify_neutral_line(minkowski2):
    sub = kf.span(np.array([[1.0, 1.0]]), minkowski2)
    cls = kf.classify(sub)
    assert cls.kind is SubspaceKind.NEUTRAL
    assert not cls.regular
    assert cls.witness is not None
    w = cls.witness
    assert abs(kf.indefinite_product(w, w, minkowski2)) <= EXACT_TOL


def test_classify_indefinite_plane_produces_neutral_witness(minkowski2):
    sub = kf.span(np.eye(2), minkowski2)
    cls = kf.classify(sub)
    assert cls.kind is SubspaceKind.INDEFINITE
    w = cls.witness
    assert np.linalg.norm(w) == pytest.approx(1.0)
    assert abs(kf.indefinite_product(w, w, minkowski2)) <= EXACT_TOL


def test_classify_degenerate_positive_plane():
    # span{(1,0,0), (0,1,1)} in diag(1,1,-1): Gram eigenvalues {0, 1}.
    space = kf.make_krein_space(np.diag([1.0, 1.0, -1.0]))
    sub = kf.span(np.array([[1.0, 0, 0], [0, 1.0, 1.0]]), space)
    cls = kf.classify(sub)
    assert cls.kind is SubspaceKind.POSITIVE_NON_UNIFORM
    assert not cls.regular
    assert sorted(np.round(cls.eigenvalues, 10)) == [0.0, 1.0]
    # gamma skips the zero eigenvalue
    assert cls.gamma == pytest.approx(1.0)


def test_classify_uniformly_negative_line(minkowski2):
    sub = kf.span(np.array([[0.0, 1.0]]), minkowski2)
    cls = kf.classify(sub)
    assert cls.kind is SubspaceKind.UNIFORMLY_NEGATIVE
    assert cls.maximal_definite
    assert cls.margin == pytest.approx(1.0)


def test_gram_operator_matches_compression(minkowski3):
    rng = np.random.default_rng(SEED)
    sub = kf.span(rng.standard_normal((2, 3)), minkowski3)
    g = kf.gram_operator(sub)
    expected = sub.basis.T @ minkowski3.symmetry @ sub.basis
    assert np.allclose(g, expected, atol=EXACT_TOL)
    assert np.allclose(g, g.T, atol=EXACT_TOL)


# ---------------------------------------------------------------------------
# projections


def test_orthogonal_projection_is_idempotent_symmetric(minkowski3):
    sub = kf.span(np.array([[1.0, 2.0, 0.5]]), minkowski3)
    pi = kf.orthogonal_projection(sub).matrix
    assert np.allclose(pi @ pi, pi, atol=EXACT_TOL)
    assert np.allclose(pi, pi.T, atol=EXACT_TOL)


def test_j_projection_properties(minkowski3):
    """Q is idempotent, J-selfadjoint, ran Q = W, and fixes W pointwise."""
    sub = kf.span(np.array([[1.0, 0.0, 0.5], [0.0, 1.0, -0.2]]), minkowski3)
    q = kf.j_projection(sub).matrix
    j = minkowski3.symmetry
    assert np.allclose(q @ q, q, atol=NUM_TOL)
    assert np.allclose(q, j @ q.T @ j, atol=NUM_TOL)
    # fixes the subspace
    assert np.allclose(q @ sub.basis, sub.basis, atol=NUM_TOL)
    # range is exactly the subspace
    assert np.linalg.matrix_rank(q, tol=1e-10) == sub.dim


def test_j_projection_requires_regular_subspace(minkowski2):
    neutral = kf.span(np.array([[1.0, 1.0]]), minkowski2)
    with pytest.raises(kf.NotRegular):
        kf.j_projection(neutral)


def test_j_projection_kernel_is_j_orthogonal(minkowski3):
    sub = kf.span(np.array([[1.0, 0.3, 0.2]]), minkowski3)
    q = kf.j_projection(sub).matrix
    rng = np.random.default_rng(SEED)
    for _ in range(5):
        x = rng.standard_normal(3)
        residual = x - q @ x            # lies in ker Q
        w = q @ rng.standard_normal(3)  # lies in ran Q = W
        assert abs(kf.indefinite_product(residual, w, minkowski3)) <= NUM_TOL


def test_j_orthogonal_complement(minkowski3):
    sub = kf.span(np.array([[1.0, 0.0, 0.5]]), minkowski3)
    comp = kf.j_orthogonal_complement(sub)
    assert comp.dim == 2
    for i in range(comp.dim):
        assert abs(kf.indefinite_product(sub.basis[:, 0], comp.basis[:, i],
                                         minkowski3)) <= NUM_TOL


def test_double_complement_restores_subspace(minkowski3):
    sub = kf.span(np.array([[1.0, 2.0, 0.5], [0.0, 1.0, 0.1]]), minkowski3)
    back = kf.j_orthogonal_complement(kf.j_orthogonal_complement(sub))
    pi_a = sub.basis @ sub.basis.T
    pi_b = back.basis @ back.basis.T
    assert np.allclose(pi_a, pi_b, atol=NUM_TOL)


def test_is_contained_and_subspace_sum(minkowski3):
    line = kf.span(np.array([[1.0, 0, 0]]), minkowski3)
    plane = kf.span(np.array([[1.0, 0, 0], [0, 1.0, 0]]), minkowski3)
    assert kf.is_contained(line, plane)
    assert not kf.is_contained(plane, line)
    total = kf.subspace_sum([line, kf.span(np.array([[0, 1.0, 0]]), minkowski3)])
    assert total.dim == 2
    assert kf.is_contained(total, plane) and kf.is_contained(plane, total)


def test_subspace_sum_refuses_no_parts_and_two_spaces(minkowski2, minkowski3):
    with pytest.raises(kf.ZeroSubspace, match="^cannot form the span of no subspaces$"):
        kf.subspace_sum([])
    parts = [kf.span(np.array([[1.0, 0.0]]), minkowski2),
             kf.span(np.array([[1.0, 0.0, 0.0]]), minkowski3)]
    with pytest.raises(kf.DimensionMismatch, match="^subspaces live in different spaces$"):
        kf.subspace_sum(parts)


# ---------------------------------------------------------------------------
# restricted projection comparison (Q vs pi on an enclosing definite subspace)


def test_rjpp_zero_for_aligned_eigenspace(minkowski3):
    outer = kf.span(np.array([[1.0, 0, 0], [0, 1.0, 0]]), minkowski3)
    inner = kf.span(np.array([[1.0, 1.0, 0]]), minkowski3)
    assert kf.check_rjpp(inner, outer) <= EXACT_TOL


def test_rjpp_nonzero_for_tilted_enclosing_subspace(minkowski3):
    """The two projectors genuinely differ on tilted definite subspaces.

    This pins the measured behaviour: the restriction identity fails as soon
    as the enclosing subspace is not J-invariant, so the residual must be
    far above numerical noise here.
    """
    outer = kf.span(np.array([[1.0, 0, 0.3], [0, 1.0, 0.2]]), minkowski3)
    inner = kf.span(np.array([[1.0, 0, 0.3]]), minkowski3)
    residual = kf.check_rjpp(inner, outer)
    assert residual > 1e-3
    assert residual == pytest.approx(0.12405110352311177, rel=1e-9)


def test_rjpp_requires_containment(minkowski3):
    outer = kf.span(np.array([[1.0, 0, 0], [0, 1.0, 0]]), minkowski3)
    stranger = kf.span(np.array([[0.0, 0, 1.0]]), minkowski3)
    with pytest.raises(kf.NotContained):
        kf.check_rjpp(stranger, outer)


def test_rjpp_requires_definite_outer(minkowski2):
    outer = kf.span(np.eye(2), minkowski2)
    inner = kf.span(np.array([[1.0, 0.0]]), minkowski2)
    with pytest.raises(kf.NotUniformlyDefinite):
        kf.check_rjpp(inner, outer)


# ---------------------------------------------------------------------------
# angular operator


def test_angular_operator_graph_line(minkowski2):
    """W = span{(1, 1/2)}: K = 1/2, gamma = 3/5, and ||K||^2 = (1-g)/(1+g)."""
    sub = kf.span(np.array([[1.0, 0.5]]), minkowski2)
    report = kf.angular_operator(sub)
    assert report.norm == pytest.approx(0.5)
    assert report.gamma == pytest.approx(0.6)
    assert report.relation_value == pytest.approx(0.25)
    assert report.squared_residual <= 1e-10
    # the unsquared reading differs by 0.25 here and is flagged
    assert report.literal_residual == pytest.approx(0.25)
    assert report.literal_discrepancy


def test_angular_operator_canonical_line_has_zero_k(minkowski2):
    sub = kf.span(np.array([[1.0, 0.0]]), minkowski2)
    report = kf.angular_operator(sub)
    assert report.norm <= EXACT_TOL
    assert report.gamma == pytest.approx(1.0)
    assert not report.literal_discrepancy


def test_angular_operator_negative_subspace(minkowski3):
    sub = kf.span(np.array([[0.2, 0.0, 1.0]]), minkowski3)
    report = kf.angular_operator(sub)
    assert report.norm == pytest.approx(0.2)
    assert report.squared_residual <= 1e-10


def test_angular_operator_rejects_indefinite(minkowski2):
    sub = kf.span(np.eye(2), minkowski2)
    with pytest.raises(kf.NotUniformlyDefinite):
        kf.angular_operator(sub)


def test_reduced_min_modulus():
    m = np.diag([4.0, 2.0, 0.0])
    assert kf.reduced_min_modulus(m) == pytest.approx(2.0)
    assert kf.reduced_min_modulus(np.zeros((3, 3))) == 0.0
