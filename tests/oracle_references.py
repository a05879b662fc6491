"""Reference routes that the tests hold the package's numbers against.

- :func:`rayleigh_extrema`, the extrema of a definite pencil by the spectral
  congruence of its denominator, where the package reduces by a Cholesky
  factor;
- the seeded brute-force searches (dense sampling of the unit sphere
  followed by a derivative-free shrinking-radius refinement):
  :func:`rayleigh_extrema_sampled`, :func:`gamma_brute`,
  :func:`min_singular_brute` and :func:`max_singular_brute`.

The sampling routes share no code with the package's fast paths beyond
elementary matrix products (and the row space that :func:`gamma_brute`
searches), which is the point: agreement between the two is evidence.
The CLI itself checks its numbers with
:func:`kreinframes.oracles.bracket_lowest`.
"""

from __future__ import annotations

import numpy as np

from kreinframes._numeric import as_matrix, orth_columns
from kreinframes.core import TOL_RANK
from kreinframes.errors import DimensionMismatch, NotPositiveDefinite


# Refinement schedule: the search radius shrinks geometrically to ~1e-7; the
# value error of a smooth quadratic ratio at a stationary point scales with
# the square of the radius, so the refined extremum is far inside the 1e-4
# agreement tolerance used by the acceptance checks.
_LEVELS = 42
_ROUNDS_PER_LEVEL = 6
_BATCH = 64


def _unit_rows(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return m / norms


def _refine(evaluate, x0: np.ndarray, rng: np.random.Generator, minimize: bool) -> float:
    """Stochastic local refinement of an extremum on the unit sphere."""
    sign = 1.0 if minimize else -1.0
    best_x = x0 / np.linalg.norm(x0)
    best_v = float(evaluate(best_x[None, :])[0])
    radius = 0.5
    for _ in range(_LEVELS):
        for _ in range(_ROUNDS_PER_LEVEL):
            cand = _unit_rows(best_x + radius * rng.standard_normal((_BATCH, best_x.size)))
            vals = evaluate(cand)
            idx = int(np.argmin(sign * vals))
            if sign * vals[idx] < sign * best_v:
                best_v = float(vals[idx])
                best_x = cand[idx]
        radius *= 0.7
    return best_v


def _pencil(a, g) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The symmetric parts of a validated pencil, and the whitening factor
    ``W = V diag(lam)^-1/2`` of ``g = V diag(lam) V^T``, so that ``W^T g W = I``."""
    a = as_matrix(a, "numerator")
    g = as_matrix(g, "denominator")
    if a.shape != g.shape or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"incompatible pencil shapes {a.shape} and {g.shape}")
    g = 0.5 * (g + g.T)
    lam, v = np.linalg.eigh(g)
    if np.any(lam <= 0.0):
        raise NotPositiveDefinite("denominator matrix is not positive definite")
    return 0.5 * (a + a.T), g, v / np.sqrt(lam)


def rayleigh_extrema(a, g) -> tuple[float, float]:
    """Extrema of x^T a x / x^T g x with g positive definite (algebraic route).

    Reduces by the spectral congruence ``g = V diag(lam) V^T`` to
    ``lam^-1/2 V^T a V lam^-1/2`` and solves an ordinary symmetric
    eigenproblem; the fast path reduces by a Cholesky factor instead.
    """
    a, _, w = _pencil(a, g)
    reduced = w.T @ a @ w
    vals = np.linalg.eigvalsh(0.5 * (reduced + reduced.T))
    return float(vals[0]), float(vals[-1])


def _sampled_extrema(a: np.ndarray, g: np.ndarray, rng: np.random.Generator,
                     nsamples: int, extra: np.ndarray | None = None) -> tuple[float, float]:
    """Extrema of the ratio over random unit samples and the rows of ``extra``,
    each side refined from its most extreme point."""
    def ratio(c: np.ndarray) -> np.ndarray:
        num = np.einsum("ij,jk,ik->i", c, a, c)
        den = np.einsum("ij,jk,ik->i", c, g, c)
        return num / den

    samples = _unit_rows(rng.standard_normal((nsamples, a.shape[0])))
    if extra is not None:
        samples = np.vstack([samples, _unit_rows(extra)])
    vals = ratio(samples)
    lo = _refine(ratio, samples[int(np.argmin(vals))], rng, minimize=True)
    hi = _refine(ratio, samples[int(np.argmax(vals))], rng, minimize=False)
    return lo, hi


def rayleigh_extrema_sampled(a, g, seed: int = 0, nsamples: int = 10000) -> tuple[float, float]:
    """Extrema of the same ratio by dense sampling plus refinement.

    Searches in the given coordinates and in the coordinates ``x = W y``
    whitened by the spectral factor of g, and returns the more extreme value
    of each side.  On a barely definite g either search alone misses
    extrema by more than 1e-4 relative: the given coordinates on generated
    near-neutral frames, the whitened ones on generated near-neutral fusion
    families.  The whitened search also evaluates the ratio at the two
    extremal eigenvectors of the whitened numerator: where the two extreme
    eigenvalues nearly coincide (a relative gap of 1e-4 to 1e-2), the
    refinement cannot cross the flat valley between their eigenvectors in
    its budget and misses the extremum by up to the gap, whichever basis
    the pencil is written in.  Every sample, these two included, is a value
    of the ratio, so no search can pass the true extrema.  The two come from
    the same spectral reduction as :func:`rayleigh_extrema`, so on them this
    search re-checks that route rather than searching independently of it.
    """
    a, g, w = _pencil(a, g)
    rng = np.random.default_rng(seed)
    lo, hi = _sampled_extrema(a, g, rng, nsamples)
    reduced = w.T @ a @ w
    extremal = np.linalg.eigh(0.5 * (reduced + reduced.T))[1][:, [0, -1]].T
    wlo, whi = _sampled_extrema(reduced, w.T @ g @ w, rng, nsamples, extremal)
    return min(lo, wlo), max(hi, whi)


def gamma_brute(matrix, seed: int = 0, nsamples: int = 10000,
                tol_rank: float = TOL_RANK) -> float:
    """Reduced minimum modulus by brute force.

    Minimizes ``||M x||`` over unit vectors of the row space of M (the
    orthogonal complement of the kernel), found by a thin SVD.  Returns 0.0
    for the zero matrix — callers should treat that value as a flag that the
    notion degenerates rather than as a meaningful modulus.
    """
    m = as_matrix(matrix, "matrix")
    if np.max(np.abs(m)) == 0.0:
        return 0.0
    rowspace = orth_columns(m.T, tol_rank)
    mq = m @ rowspace

    def lengths(c: np.ndarray) -> np.ndarray:
        return np.linalg.norm(c @ mq.T, axis=1)

    rng = np.random.default_rng(seed)
    samples = _unit_rows(rng.standard_normal((nsamples, rowspace.shape[1])))
    vals = lengths(samples)
    return _refine(lengths, samples[int(np.argmin(vals))], rng, minimize=True)


def min_singular_brute(matrix, seed: int = 0, nsamples: int = 10000) -> float:
    """Smallest singular value by brute force over the whole unit sphere."""
    m = as_matrix(matrix, "matrix")

    def lengths(c: np.ndarray) -> np.ndarray:
        return np.linalg.norm(c @ m.T, axis=1)

    rng = np.random.default_rng(seed)
    samples = _unit_rows(rng.standard_normal((nsamples, m.shape[1])))
    vals = lengths(samples)
    return _refine(lengths, samples[int(np.argmin(vals))], rng, minimize=True)


def max_singular_brute(matrix, seed: int = 0, nsamples: int = 10000) -> float:
    """Operator norm by brute force over the whole unit sphere."""
    m = as_matrix(matrix, "matrix")

    def lengths(c: np.ndarray) -> np.ndarray:
        return np.linalg.norm(c @ m.T, axis=1)

    rng = np.random.default_rng(seed)
    samples = _unit_rows(rng.standard_normal((nsamples, m.shape[1])))
    vals = lengths(samples)
    return _refine(lengths, samples[int(np.argmax(vals))], rng, minimize=False)
