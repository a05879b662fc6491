"""Private numerical helpers shared across modules."""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .errors import DimensionMismatch, NotPositiveDefinite

__all__ = [
    "as_matrix",
    "as_vector",
    "operator_norm",
    "orth_columns",
    "scaled_below_overflow",
    "definite_pair_extrema",
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


# Entries above this magnitude can overflow a column norm or a product.
OVERFLOW_GUARD = 2.0**500
# Products of entries all below this magnitude can underflow.
UNDERFLOW_GUARD = 2.0**-500


def scaled_below_overflow(m: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """``m`` itself, or, when an entry exceeds ``OVERFLOW_GUARD`` or every entry
    is below ``floor`` (and one is nonzero), ``m`` times the power of two that
    brings its largest magnitude into [0.5, 1).

    Scaling by a power of two is exact (up to entries that fall into the
    subnormal range, far below any rank cutoff relative to the largest), so
    it leaves every column space, and every result that is homogeneous in
    ``m``, unchanged; inputs between the guards are returned as they are.
    """
    if m.size == 0:
        return m
    peak = float(np.max(np.abs(m)))
    if floor <= peak <= OVERFLOW_GUARD or peak == 0.0:
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


def definite_pair_extrema(a: np.ndarray, g: np.ndarray) -> tuple[float, float]:
    """Extreme eigenvalues of the pencil ``(a, g)`` with ``g`` positive definite.

    Reduces by the Cholesky congruence ``g = L L^T`` to the symmetric matrix
    ``L^-1 a L^-T``, which has the eigenvalues of the pencil.  A ``g`` without
    a Cholesky factor raises :class:`NotPositiveDefinite`.
    """
    try:
        chol = np.linalg.cholesky(0.5 * (g + g.T))
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("pencil right-hand side is not positive definite") from None
    half = sla.solve_triangular(chol, 0.5 * (a + a.T), lower=True)
    reduced = sla.solve_triangular(chol, half.T, lower=True)
    vals = np.linalg.eigvalsh(0.5 * (reduced + reduced.T))
    return float(vals[0]), float(vals[-1])


def block_diag(blocks) -> np.ndarray:
    blocks = [np.atleast_2d(b) for b in blocks]
    if not blocks:
        return np.zeros((0, 0))
    return sla.block_diag(*blocks)
