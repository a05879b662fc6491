"""Brute-force oracles versus the closed-form linear algebra they audit."""

import numpy as np
import pytest

import kreinframes as kf
from kreinframes import oracles
from oracle_references import (
    gamma_brute,
    max_singular_brute,
    min_singular_brute,
    rayleigh_extrema,
    rayleigh_extrema_sampled,
)

ALGEBRAIC_TOL = 1e-10
SAMPLED_TOL = 1e-4
SEED = 7


def _random_spd(rng, n):
    m = rng.standard_normal((n, n))
    return m @ m.T + n * np.eye(n)


def test_rayleigh_extrema_on_diagonal_pencil():
    a = np.diag([1.0, 5.0, 3.0])
    g = np.eye(3)
    lo, hi = rayleigh_extrema(a, g)
    assert lo == pytest.approx(1.0)
    assert hi == pytest.approx(5.0)


def test_rayleigh_extrema_matches_generalized_eigenvalues():
    rng = np.random.default_rng(SEED)
    a = _random_spd(rng, 4)
    g = _random_spd(rng, 4)
    lo, hi = rayleigh_extrema(a, g)
    # a third route, shared with neither the Cholesky nor the spectral one:
    # the (real) eigenvalues of the nonsymmetric G^-1 A
    eigs = np.sort(np.linalg.eigvals(np.linalg.solve(g, a)).real)
    assert lo == pytest.approx(eigs[0], rel=ALGEBRAIC_TOL)
    assert hi == pytest.approx(eigs[-1], rel=ALGEBRAIC_TOL)


def test_rayleigh_extrema_requires_positive_definite_denominator():
    a = np.eye(2)
    g = np.diag([1.0, -1.0])
    with pytest.raises(kf.NotPositiveDefinite):
        rayleigh_extrema(a, g)


def test_sampled_extrema_bracket_exact_values():
    """Random-search extrema agree with the algebraic ones to SAMPLED_TOL."""
    rng = np.random.default_rng(SEED + 1)
    for _ in range(5):
        a = _random_spd(rng, 3)
        g = _random_spd(rng, 3)
        lo, hi = rayleigh_extrema(a, g)
        slo, shi = rayleigh_extrema_sampled(a, g, seed=SEED)
        assert abs(slo - lo) <= SAMPLED_TOL * (1 + abs(lo))
        assert abs(shi - hi) <= SAMPLED_TOL * (1 + abs(hi))
        # sampling can never escape the exact range
        assert slo >= lo - 1e-12
        assert shi <= hi + 1e-12


def _nearly_degenerate_pencil(rng, k, gap, barely_definite):
    """A pencil whose two lowest and two highest eigenvalues are ``gap`` apart."""
    values = np.sort(rng.uniform(0.2, 4.0, k))
    values[1], values[-2] = values[0] + gap, values[-1] - gap
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    v, _ = np.linalg.qr(rng.standard_normal((k, k)))
    g_values = np.sort(rng.uniform(0.5, 1.5, k))
    if barely_definite:
        g_values[0] = 1e-7
    g = v @ np.diag(g_values) @ v.T
    chol = np.linalg.cholesky(g)
    return chol @ (q @ np.diag(values) @ q.T) @ chol.T, g


def test_sampled_extrema_reach_nearly_degenerate_extremes():
    """Extreme eigenvalues 1e-4 to 1e-2 apart leave a flat valley between
    their eigenvectors that the shrinking-radius refinement cannot cross in
    its budget; the search still comes within SAMPLED_TOL of them."""
    rng = np.random.default_rng(SEED + 4)
    for case in range(12):
        a, g = _nearly_degenerate_pencil(rng, int(rng.integers(3, 9)),
                                         10.0 ** rng.uniform(-4.0, -2.0), case % 2 == 1)
        lo, hi = rayleigh_extrema(a, g)
        for instance_seed in range(4):
            slo, shi = rayleigh_extrema_sampled(a, g, seed=instance_seed)
            assert abs(slo - lo) <= SAMPLED_TOL * (1 + abs(lo))
            assert abs(shi - hi) <= SAMPLED_TOL * (1 + abs(hi))


def test_bracket_lowest_holds_an_extreme_within_its_width():
    """A value of ``rayleigh_extrema`` is bracketed, the upper one through the
    mirrored pencil; a value moved by twice the half-width is not, and a
    denominator that is not positive definite is refused."""
    rng = np.random.default_rng(SEED + 5)
    a = rng.standard_normal((5, 5))
    a = a + a.T
    g = _random_spd(rng, 5)
    lo, hi = rayleigh_extrema(a, g)
    for sign, value in ((1.0, lo), (-1.0, hi)):
        delta = 1e-8 * (1.0 + abs(value))
        oracles.bracket_lowest(sign * a, g, sign * value, delta)
        for moved in (sign * value - 2.0 * delta, sign * value + 2.0 * delta):
            with pytest.raises(kf.InternalInconsistency):
                oracles.bracket_lowest(sign * a, g, moved, delta)
    with pytest.raises(kf.InternalInconsistency, match="not positive definite"):
        oracles.bracket_lowest(np.eye(2), np.diag([1.0, -1.0]), 1.0, 0.5)


def test_min_max_singular_brute_vs_svd():
    rng = np.random.default_rng(SEED + 2)
    m = rng.standard_normal((4, 3))
    svals = np.linalg.svd(m, compute_uv=False)
    assert min_singular_brute(m, seed=SEED) == pytest.approx(svals[-1], abs=SAMPLED_TOL)
    assert max_singular_brute(m, seed=SEED) == pytest.approx(svals[0], abs=SAMPLED_TOL)


def test_gamma_brute_vs_reduced_min_modulus():
    rng = np.random.default_rng(SEED + 3)
    # rank-deficient 4x4 of rank 2
    u = rng.standard_normal((4, 2))
    m = u @ u.T
    exact = kf.reduced_min_modulus(m)
    brute = gamma_brute(m, seed=SEED)
    assert brute == pytest.approx(exact, abs=SAMPLED_TOL * (1 + exact))


def test_hilbert_frame_bounds_matches_gram_spectrum(minkowski2):
    vectors = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    lo, hi = oracles.hilbert_frame_bounds(vectors, minkowski2)
    s = vectors.T @ vectors
    eigs = np.linalg.eigvalsh(s)
    assert lo == pytest.approx(eigs[0])
    assert hi == pytest.approx(eigs[-1])


def test_hilbert_fusion_bounds_on_eigenline_family(minkowski2):
    subs = [kf.span(np.array([[1.0, 0.0]]), minkowski2),
            kf.span(np.array([[0.0, 1.0]]), minkowski2)]
    lo, hi = oracles.hilbert_fusion_bounds(subs, [1.0, 1.0])
    assert lo == pytest.approx(1.0)
    assert hi == pytest.approx(1.0)


def test_completeness_check(minkowski3):
    full = [kf.span(np.array([[1.0, 0, 0], [0, 1.0, 0]]), minkowski3),
            kf.span(np.array([[0.0, 0, 1.0]]), minkowski3)]
    assert oracles.completeness_check(full, minkowski3)
    assert not oracles.completeness_check(full[:1], minkowski3)


# ---------------------------------------------------------------------------
# both pencil routes against a 50-digit referee

PENCIL_BOUND_FACTOR = 16.0


def _generated_pencils():
    """The part pencils of generated problems, n <= 8, tilts up to 1 - 1e-8."""
    for kind in ("fusion", "frame"):
        for n in (4, 6, 8):
            for tilt in (0.0, 0.5, 0.99, 1 - 1e-6, 1 - 1e-7, 1 - 1e-8):
                for instance_seed in range(8):
                    counts = ({"num_vectors_positive": n, "num_vectors_negative": n}
                              if kind == "frame" else {})
                    cfg = kf.GeneratorConfig(kind=kind, seed=instance_seed, dim=n,
                                             num_positive=n // 2, tilt=tilt, rotate=True,
                                             **counts)
                    pencils = (kf.part_pencils(kf.gen_family(cfg)) if kind == "fusion"
                               else kf.frame_part_pencils(kf.gen_frame(cfg)))
                    yield from pencils.values()


def test_pencil_routes_stay_within_their_error_bound():
    """The Cholesky route of the bounds and the spectral route of the oracle each
    stay within 16 times the first-order bound ``eps (||A|| + |lam| ||G||) /
    lambda_min(G)`` of the exact extrema of the stored pencil."""
    mpmath = pytest.importorskip("mpmath")
    from kreinframes._numeric import definite_pair_extrema

    eps = np.finfo(float).eps
    worst = 0.0
    with mpmath.workdps(50):
        for a, g in _generated_pencils():
            a, g = 0.5 * (a + a.T), 0.5 * (g + g.T)
            chol_inv = mpmath.inverse(mpmath.cholesky(mpmath.matrix(g.tolist())))
            reduced = chol_inv * mpmath.matrix(a.tolist()) * chol_inv.T
            exact = sorted(float(x) for x in mpmath.eigsy(reduced, eigvals_only=True))
            norm_a, norm_g = np.linalg.norm(a, 2), np.linalg.norm(g, 2)
            g_min = np.linalg.eigvalsh(g)[0]
            for route in (definite_pair_extrema(a, g), rayleigh_extrema(a, g)):
                for value, lam in zip(route, (exact[0], exact[-1])):
                    bound = eps * (norm_a + abs(lam) * norm_g) / g_min
                    worst = max(worst, abs(value - lam) / bound)
    assert worst <= PENCIL_BOUND_FACTOR
