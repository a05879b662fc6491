"""Indefinite inner product spaces on R^n built from a fundamental symmetry.

A space is determined by a symmetric involution J (the fundamental symmetry).
The indefinite product is ``[x, y] = x^T J y``; the associated positive
product obtained by flipping the sign on the negative part is the ordinary
Euclidean dot product, which is why bases throughout the package are kept
orthonormal in the plain Euclidean sense.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ._numeric import as_matrix, as_vector, operator_norm
from .errors import DimensionMismatch, NotAnInvolution

# Default tolerances, overridable per call (and by the --tol-def and
# --tol-rank flags of the CLI).  tol_sym gates symmetry/involution checks, tol_num is the
# general residual tolerance, tol_def decides definiteness from eigenvalues,
# tol_rank is the relative rank cutoff.
TOL_SYM = 1e-10
TOL_NUM = 1e-9
TOL_DEF = 1e-10
TOL_RANK = 1e-10


class KreinSpace:
    """R^n with the indefinite product ``[x, y] = x^T J y``.

    Attributes
    ----------
    symmetry:
        The fundamental symmetry J (symmetric, J^2 = I).
    dim:
        Ambient dimension n.
    num_positive, num_negative:
        Signature (p, q): dimensions of the canonical positive/negative
        eigenspaces of J.
    """

    def __init__(self, symmetry: np.ndarray, dim: int, num_positive: int, num_negative: int):
        self.symmetry = symmetry
        self.dim = dim
        self.num_positive = num_positive
        self.num_negative = num_negative

    @cached_property
    def positive_projector(self) -> np.ndarray:
        """Euclidean-orthogonal projector onto the +1 eigenspace of J."""
        p = 0.5 * (np.eye(self.dim) + self.symmetry)
        return 0.5 * (p + p.T)

    @cached_property
    def negative_projector(self) -> np.ndarray:
        m = 0.5 * (np.eye(self.dim) - self.symmetry)
        return 0.5 * (m + m.T)

    def product(self, x, y) -> float:
        """Indefinite product [x, y]."""
        return indefinite_product(x, y, self)

    def __eq__(self, other) -> bool:  # value semantics on J
        if not isinstance(other, KreinSpace):
            return NotImplemented
        return self is other or (self.dim == other.dim
                                 and np.array_equal(self.symmetry, other.symmetry))

    def __hash__(self) -> int:
        return hash((self.dim, self.symmetry.tobytes()))


def _norm_or_inf(m: np.ndarray) -> float:
    """Spectral norm of a defect matrix; inf where forming it overflowed.

    A symmetric involution has norm 1, so a defect that overflows belongs to
    a matrix that is no involution.
    """
    return operator_norm(m) if np.isfinite(m).all() else np.inf


def make_krein_space(symmetry, tol_sym: float = TOL_SYM) -> KreinSpace:
    """Validate a fundamental symmetry and build the space around it.

    Rejects matrices that are not symmetric involutions within ``tol_sym``
    (relative to the matrix scale).

    A J whose defects ``||J - J^T||`` and ``||J_s^2 - I||`` (J_s the
    symmetric part) are at most ``tol_sym / 2`` in the Frobenius norm, which
    bounds the spectral norm, is accepted without an eigendecomposition.
    Each eigenvalue ``lam`` of J_s is then within ``|lam^2 - 1|`` of its
    sign, and these distances sum to at most ``sqrt(n) ||J_s^2 - I||_F``;
    below 1, the signature p is ``round((n + tr J_s) / 2)``.  Any other J
    takes the exact route (:func:`_checked_defects`, then the eigenvalues of
    J_s), so accept/reject decisions, the defect a rejection reports and the
    signature are those of the spectral norms and the spectrum.
    """
    j = as_matrix(symmetry, "symmetry")
    n = j.shape[0]
    if j.shape[1] != n:
        raise DimensionMismatch(f"symmetry must be square, got {j.shape}")
    if n == 0:
        raise DimensionMismatch("symmetry must be at least 1x1")
    with np.errstate(over="ignore", invalid="ignore"):
        j_sym = 0.5 * (j + j.T)
        sym_defect = float(np.linalg.norm(j - j.T))
        inv_defect = float(np.linalg.norm(j_sym @ j_sym - np.eye(n)))
    half = 0.5 * tol_sym
    if sym_defect <= half and inv_defect <= half and np.sqrt(n) * inv_defect < 1.0:
        p = round(0.5 * (n + float(np.trace(j_sym))))
    else:
        _checked_defects(j, tol_sym)
        p = int(np.sum(np.linalg.eigvalsh(j_sym) > 0.0))
    return KreinSpace(symmetry=j_sym, dim=n, num_positive=p, num_negative=n - p)


def _checked_defects(j: np.ndarray, tol_sym: float) -> None:
    """Reject ``j`` unless its symmetry defect ``||J - J^T||`` and the
    involution defect ``||J_s^2 - I||`` of its symmetric part ``J_s``, both
    spectral norms relative to ``max(1, ||J||)``, are within ``tol_sym``."""
    n = j.shape[0]
    scale = max(1.0, operator_norm(j))
    if not np.isfinite(scale):
        raise NotAnInvolution("symmetry norm overflows a double", np.inf, np.inf)
    sym_defect = _norm_or_inf(j - j.T) / scale
    if sym_defect > tol_sym:
        raise NotAnInvolution(
            f"symmetry defect {sym_defect:.3e} exceeds tolerance {tol_sym:.1e}",
            symmetry_defect=sym_defect,
        )
    j = 0.5 * (j + j.T)
    inv_defect = _norm_or_inf(j @ j - np.eye(n)) / scale
    if inv_defect > tol_sym:
        raise NotAnInvolution(
            f"involution defect {inv_defect:.3e} exceeds tolerance {tol_sym:.1e}",
            symmetry_defect=sym_defect,
            involution_defect=inv_defect,
        )


def indefinite_product(x, y, space: KreinSpace) -> float:
    """[x, y] = x^T J y."""
    xv = as_vector(x, space.dim, "x")
    yv = as_vector(y, space.dim, "y")
    return float(xv @ space.symmetry @ yv)


class Operator:
    """A linear operator on a space, stored as its matrix."""

    def __init__(self, space: KreinSpace, matrix):
        m = as_matrix(matrix, "operator matrix")
        if m.shape != (space.dim, space.dim):
            raise DimensionMismatch(
                f"operator matrix has shape {m.shape}, expected square of size {space.dim}"
            )
        self.space = space
        self.matrix = m

    def __call__(self, x) -> np.ndarray:
        return self.matrix @ as_vector(x, self.space.dim, "x")

    @property
    def norm(self) -> float:
        return operator_norm(self.matrix)


def j_adjoint(op: Operator) -> Operator:
    """Adjoint with respect to the indefinite product: T# = J T^T J.

    Characterized by [T x, y] = [x, T# y] for all x, y.
    """
    j = op.space.symmetry
    return Operator(op.space, j @ op.matrix.T @ j)


def j_adjoint_matrix(matrix: np.ndarray, space: KreinSpace) -> np.ndarray:
    """Matrix form of :func:`j_adjoint` for internal use."""
    j = space.symmetry
    return j @ matrix.T @ j
