"""The checks that the CLI runs on what it reports, and the sign-free
bounds of the associated Hilbert space.

:func:`bracket_lowest` checks a bound, margin or reduced modulus without an
eigensolver: an inertia test by two Cholesky factorizations, which shares
nothing with the pencil reduction that computed the value beyond the
matrices themselves, so agreement is evidence and disagreement is an
internal inconsistency.  :func:`completeness_check` asks whether a family's
entries span the whole space, by :func:`~kreinframes.subspaces.subspace_sum`.
"""

from __future__ import annotations

import numpy as np

from ._numeric import as_matrix
from .core import TOL_RANK, KreinSpace
from .errors import DimensionMismatch, InternalInconsistency
from .subspaces import subspace_sum

__all__ = [
    "bracket_lowest",
    "hilbert_frame_bounds",
    "hilbert_fusion_bounds",
    "completeness_check",
]


def _has_cholesky(m: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def bracket_lowest(a, g, lam: float, delta: float, what: str = "value") -> None:
    """Check that ``lam`` is within ``delta`` of the smallest eigenvalue of the
    symmetric-definite pencil ``(a, g)``; an upper extreme ``lam`` of
    ``(a, g)`` is checked as the smallest eigenvalue ``-lam`` of ``(-a, g)``.

    By Sylvester's law of inertia, with ``g`` positive definite every
    eigenvalue exceeds ``s`` exactly when ``a - s g`` is positive definite,
    which a Cholesky factorization decides (Parlett, *The Symmetric
    Eigenvalue Problem*, ch. 3).  So ``a - (lam - delta) g`` must have a
    Cholesky factor and ``a - (lam + delta) g`` must not; ``delta`` has to
    cover the rounding of both factorizations (Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 10).  Any other outcome, or a
    ``g`` without a Cholesky factor, raises :class:`InternalInconsistency`
    naming ``what``.
    """
    a = 0.5 * (a + a.T)
    g = 0.5 * (g + g.T)
    if not _has_cholesky(g):
        raise InternalInconsistency(f"{what}: pencil denominator is not positive definite")
    if not _has_cholesky(a - (lam - delta) * g):
        raise InternalInconsistency(f"{what} {lam!r}: the pencil has an eigenvalue "
                                    f"more than {delta!r} below it")
    if _has_cholesky(a - (lam + delta) * g):
        raise InternalInconsistency(f"{what} {lam!r}: every eigenvalue of the pencil "
                                    f"is more than {delta!r} above it")


def hilbert_frame_bounds(vectors, space: KreinSpace) -> tuple[float, float]:
    """Ordinary (sign-free) frame bounds of a vector sequence on R^n.

    Extreme eigenvalues of sum_i f_i f_i^T: the sharp constants in
    A ||f||^2 <= sum_i <f, f_i>^2 <= B ||f||^2.
    """
    v = as_matrix(np.atleast_2d(np.asarray(vectors, dtype=float)), "vectors")
    if v.shape[1] != space.dim:
        raise DimensionMismatch(f"vectors have length {v.shape[1]}, expected {space.dim}")
    vals = np.linalg.eigvalsh(v.T @ v)
    return float(vals[0]), float(vals[-1])


def hilbert_fusion_bounds(subspaces, weights) -> tuple[float, float]:
    """Ordinary weighted fusion bounds: extreme eigenvalues of sum v_i^2 pi_i."""
    subspaces = list(subspaces)
    w = np.asarray(weights, dtype=float)
    if len(subspaces) != w.shape[0]:
        raise DimensionMismatch(f"{len(subspaces)} subspaces but {w.shape[0]} weights")
    if not subspaces:
        raise DimensionMismatch("need at least one subspace")
    n = subspaces[0].space.dim
    acc = np.zeros((n, n))
    for sub, wi in zip(subspaces, w):
        b = sub.basis
        acc += wi**2 * (b @ b.T)
    vals = np.linalg.eigvalsh(0.5 * (acc + acc.T))
    return float(vals[0]), float(vals[-1])


def completeness_check(subspaces, space: KreinSpace, tol_rank: float = TOL_RANK) -> bool:
    """Whether the given subspaces together span the whole space (False for
    none)."""
    subspaces = list(subspaces)
    return bool(subspaces) and subspace_sum(subspaces, tol_rank).dim == space.dim
