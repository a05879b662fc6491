"""Private numerical helpers shared across modules."""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .errors import DimensionMismatch, NotPositiveDefinite

__all__ = [
    "as_matrix",
    "as_vector",
    "operator_norm",
    "smallest_singular_value",
    "orth_columns",
    "scaled_below_overflow",
    "rank_from_singular_values",
    "definite_pair_extrema",
    "same_span",
    "block_diag",
]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-dimensional, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise DimensionMismatch(f"{name} contains non-finite entries")
    return m


def as_vector(a, n: int | None = None, name: str = "vector") -> np.ndarray:
    v = np.asarray(a, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-dimensional, got ndim={v.ndim}")
    if not np.all(np.isfinite(v)):
        raise DimensionMismatch(f"{name} contains non-finite entries")
    if n is not None and v.shape[0] != n:
        raise DimensionMismatch(f"{name} has length {v.shape[0]}, expected {n}")
    return v


def operator_norm(m: np.ndarray) -> float:
    """Spectral norm; 0.0 for empty matrices."""
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def smallest_singular_value(m: np.ndarray) -> float:
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[-1])


def rank_from_singular_values(s: np.ndarray, tol_rank: float) -> int:
    if s.size == 0:
        return 0
    return int(np.sum(s > tol_rank * s[0]))


# Entries above this magnitude can overflow a column norm or a product.
OVERFLOW_GUARD = 2.0**500


def scaled_below_overflow(m: np.ndarray) -> np.ndarray:
    """``m`` itself, or, when an entry exceeds ``OVERFLOW_GUARD``, ``m`` times the
    power of two that brings its largest magnitude into [0.5, 1).

    Scaling by a power of two is exact (up to entries that fall into the
    subnormal range, far below any rank cutoff relative to the largest), so
    it leaves every column space, and every result that is homogeneous in
    ``m``, unchanged; inputs below the guard are returned as they are.
    """
    if m.size == 0:
        return m
    peak = float(np.max(np.abs(m)))
    if peak <= OVERFLOW_GUARD:
        return m
    return np.ldexp(m, -int(np.frexp(peak)[1]))


def orth_columns(m: np.ndarray, tol_rank: float) -> np.ndarray:
    """Orthonormal basis (columns) of the column space of ``m``.

    Uses QR with column pivoting so the rank decision matches the pivot
    magnitudes; the relative cutoff is ``tol_rank`` times the largest pivot.
    Input near the double limit is first rescaled by an exact power of two
    (:func:`scaled_below_overflow`), because the Householder reflections
    would otherwise overflow.
    """
    if m.size == 0:
        return np.zeros((m.shape[0], 0))
    q, r, _ = sla.qr(scaled_below_overflow(m), mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        return np.zeros((m.shape[0], 0))
    rank = int(np.sum(diag > tol_rank * diag[0]))
    return q[:, :rank]


def definite_pair_extrema(a: np.ndarray, g: np.ndarray, tol_def: float) -> tuple[float, float]:
    """Extreme eigenvalues of the pencil ``(a, g)`` with ``g`` positive definite.

    Solves the symmetric-definite generalized problem with LAPACK; when ``g``
    is barely definite (margin below 1e-6) the Cholesky-based routine loses
    accuracy, so fall back to the QZ route and keep the real finite spectrum.
    """
    a = 0.5 * (a + a.T)
    g = 0.5 * (g + g.T)
    gmin = float(np.min(np.linalg.eigvalsh(g))) if g.size else 0.0
    if gmin <= tol_def:
        raise NotPositiveDefinite(
            f"pencil right-hand side is not positive definite (min eigenvalue {gmin:.3e})"
        )
    if gmin >= 1e-6:
        vals = sla.eigh(a, g, eigvals_only=True)
    else:
        vals, _ = sla.eig(a, g, right=True)
        vals = np.real(vals[np.isfinite(vals)])
        vals = np.sort(vals)
    return float(vals[0]), float(vals[-1])


def same_span(b1: np.ndarray, b2: np.ndarray, tol: float = 1e-8) -> bool:
    """Whether two orthonormal column blocks span the same subspace."""
    if b1.shape != b2.shape:
        return False
    return operator_norm(b1 @ b1.T - b2 @ b2.T) <= tol


def block_diag(blocks) -> np.ndarray:
    blocks = [np.atleast_2d(b) for b in blocks]
    if not blocks:
        return np.zeros((0, 0))
    return sla.block_diag(*blocks)
