"""Private numerical helpers shared across modules (numpy's LAPACK only)."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, NumericalFailure

__all__ = [
    "as_matrix",
    "as_vector",
    "operator_norm",
    "operator_norms",
    "shape_groups",
    "stacked",
    "column_space",
    "column_spaces",
    "orth_columns",
    "q_factors",
    "null_space",
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
    """Spectral norm; 0.0 for empty and zero matrices, inf for non-finite ones
    and where the norm exceeds the double range.

    Taken without an SVD: the largest eigenvalue modulus of ``m`` when it is
    symmetric, else the square root of the largest eigenvalue of the smaller
    Gram (``m^T m`` or ``m m^T``), whose relative error is a small multiple
    of eps.  ``m`` is first scaled by the power of two that brings its
    largest entry into [0.5, 1), so the Gram can neither overflow nor
    underflow, and the scale is undone exactly.
    """
    if m.size == 0:
        return 0.0
    peak = float(np.max(np.abs(m)))
    if peak == 0.0:
        return 0.0
    if not np.isfinite(peak):
        return np.inf
    exponent = int(np.frexp(peak)[1])
    s = np.ldexp(m, -exponent)
    if s.shape[0] == s.shape[1] and np.array_equal(s, s.T):
        eigvals = np.linalg.eigvalsh(s)
        top = max(-eigvals[0], eigvals[-1])
    else:
        top = _gram_norms(s[None])[0]
    with np.errstate(over="ignore"):
        return float(np.ldexp(top, exponent))


def _gram_norms(s: np.ndarray) -> np.ndarray:
    """Spectral norms of a stack of matrices, each with entries of magnitude at
    most 1: the square root of the largest eigenvalue of the smaller Gram."""
    st = np.swapaxes(s, -1, -2)
    gram = st @ s if s.shape[-1] <= s.shape[-2] else s @ st
    return np.sqrt(np.linalg.eigvalsh(gram)[..., -1])


def operator_norms(m: np.ndarray) -> np.ndarray:
    """The spectral norm of each matrix of a finite stack ``m`` (g x a x b), as
    :func:`operator_norm` takes it for a matrix that is not symmetric: after
    an exact power-of-two scaling of each, from one stacked ``eigvalsh``."""
    exponent = np.frexp(np.max(np.abs(m), axis=(-2, -1)))[1]
    return np.ldexp(_gram_norms(np.ldexp(m, -exponent[:, None, None])), exponent)


def shape_groups(*operands) -> list[list[int]]:
    """The indices of the items of ``operands`` grouped by the shapes of
    their arguments, in order of first appearance."""
    groups: dict[tuple, list[int]] = {}
    for i, shapes in enumerate(zip(*([a.shape for a in op] for op in operands))):
        groups.setdefault(shapes, []).append(i)
    return list(groups.values())


def stacked(fn, *operands) -> list:
    """``[fn(*args) for args in zip(*operands)]``, with one call of ``fn`` per
    distinct combination of operand shapes, on those operands stacked along a
    new leading axis.

    ``fn`` must act on stacks, as numpy's ``linalg`` functions and ``matmul``
    do, and return an array or a tuple of arrays indexed by that axis.  Many
    same-shaped small problems then cost one Python-level call, not one each
    (the batched-BLAS idea of Dongarra et al., 2017).  LAPACK and BLAS see
    the same matrices as they do item by item, so the results are the same
    bits, which ``tests/test_numeric.py`` pins.
    """
    out: list = [None] * len(operands[0])
    for idx in shape_groups(*operands):
        res = fn(*(np.stack([op[i] for i in idx]) for op in operands))
        for i, item in zip(idx, zip(*res) if isinstance(res, tuple) else res):
            out[i] = item
    return out


# Entries above this magnitude can overflow a column norm or a product.
OVERFLOW_GUARD = 2.0**500
# Products of entries all below this magnitude can underflow.
UNDERFLOW_GUARD = 2.0**-500


def _rescale_exponent(m: np.ndarray, floor: float) -> int:
    """The power of two :func:`scaled_below_overflow` divides ``m`` by (0 if none)."""
    if m.size == 0:
        return 0
    peak = float(np.max(np.abs(m)))
    if floor <= peak <= OVERFLOW_GUARD or peak == 0.0:
        return 0
    return int(np.frexp(peak)[1])


def scaled_below_overflow(m: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """``m`` itself, or, when an entry exceeds ``OVERFLOW_GUARD`` or every entry
    is below ``floor`` (and one is nonzero), ``m`` times the power of two that
    brings its largest magnitude into [0.5, 1).

    Scaling by a power of two is exact (up to entries that fall into the
    subnormal range, far below any rank cutoff relative to the largest), so
    it leaves every column space, and every result that is homogeneous in
    ``m``, unchanged; inputs between the guards are returned as they are.
    """
    exponent = _rescale_exponent(m, floor)
    return np.ldexp(m, -exponent) if exponent else m


def _rank(svals: np.ndarray, tol_rank: float) -> int:
    """The number of singular values (descending) above ``tol_rank`` times the largest."""
    return int(np.sum(svals > tol_rank * svals[0])) if svals.size and svals[0] > 0.0 else 0


def column_space(m: np.ndarray, tol_rank: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis (columns) of the column space of ``m``, and the
    singular values of ``m`` in descending order.

    One thin SVD ``m = U diag(s) V^T``, the rank-revealing factorization
    (Golub and Van Loan, *Matrix Computations*, section 5.4): the rank counts
    the singular values above ``tol_rank`` times the largest, and the basis is
    the leading columns of U.  LAPACK's ``gesdd`` reduces a tall ``m`` by a
    Householder QR first and takes the SVD of R (T. F. Chan, *ACM TOMS* 8,
    1982).  Input near the double limit is first rescaled by an exact power
    of two (:func:`scaled_below_overflow`), because the reflections would
    otherwise overflow; the singular values are returned at the scale of
    ``m``.
    """
    return column_spaces([m], tol_rank)[0]


def column_spaces(matrices, tol_rank: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """:func:`column_space` of each of ``matrices``, with one stacked SVD per
    distinct shape (:func:`shape_groups`): the rescale exponents, ranks and
    singular values of a stack are taken in whole-stack passes.  An SVD that
    LAPACK fails to converge raises :class:`NumericalFailure`."""
    out = [(np.zeros((m.shape[0], 0)), np.zeros(0)) if not m.size else None for m in matrices]
    nonempty = [i for i, m in enumerate(matrices) if m.size]
    for group in shape_groups([matrices[i] for i in nonempty]):
        idx = [nonempty[k] for k in group]
        stack = np.stack([matrices[i] for i in idx])
        # the exponent of _rescale_exponent(m, 0.0) of each, from one pass
        peaks = np.max(np.abs(stack), axis=(1, 2))
        scaled = bool(peaks.max() > OVERFLOW_GUARD)
        if scaled:  # ldexp by 0 leaves an item as it is
            exponents = np.where(peaks > OVERFLOW_GUARD, np.frexp(peaks)[1], 0)
            stack = np.ldexp(stack, -exponents[:, None, None])
        try:
            u, svals, _ = np.linalg.svd(stack, full_matrices=False)
        except np.linalg.LinAlgError:
            raise NumericalFailure(f"the SVD (LAPACK gesdd) of a {stack.shape[1]}x"
                                   f"{stack.shape[2]} matrix did not converge") from None
        top = svals[:, 0]
        ranks = np.where(top > 0.0, np.sum(svals > tol_rank * top[:, None], axis=1), 0)
        if scaled:
            with np.errstate(over="ignore"):  # beyond the double range: inf
                svals = np.ldexp(svals, exponents[:, None])
        for i, basis, values, rank in zip(idx, u, svals, ranks.tolist()):
            out[i] = (basis[:, :rank], values)
    return out


def orth_columns(m: np.ndarray, tol_rank: float) -> np.ndarray:
    """Orthonormal basis (columns) of the column space of ``m``; the basis of
    :func:`column_space`, with its relative rank cutoff ``tol_rank``."""
    return column_space(m, tol_rank)[0]


def q_factors(matrices) -> list[np.ndarray]:
    """The Q factor of a Householder QR of each of ``matrices`` (full column
    rank), its columns signed so that R has a positive diagonal: the one
    orthonormal basis of the column space whose Gram-Schmidt coefficients
    are positive, with no rank decision.  One stacked QR per distinct shape
    (:func:`stacked`)."""
    return [q * np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
            for q, r in stacked(np.linalg.qr, matrices)]


def null_space(m: np.ndarray, tol_rank: float) -> np.ndarray:
    """Orthonormal basis (columns) of the null space of ``m``: the right
    singular vectors of one full SVD beyond the rank (as :func:`column_space`
    counts it)."""
    _, svals, vt = np.linalg.svd(m)
    return vt[_rank(svals, tol_rank):].T


def definite_pair_extrema(a: np.ndarray, g: np.ndarray) -> tuple[float, float]:
    """Extreme eigenvalues of the pencil ``(a, g)`` with ``g`` positive definite.

    Reduces by the Cholesky congruence ``g = L L^T`` to the symmetric matrix
    ``L^-1 a L^-T``, which has the eigenvalues of the pencil; both solves
    with L are LU solves, backward stable like triangular ones.  A ``g``
    without a Cholesky factor raises :class:`NotPositiveDefinite`.
    """
    try:
        chol = np.linalg.cholesky(0.5 * (g + g.T))
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("pencil right-hand side is not positive definite") from None
    half = np.linalg.solve(chol, 0.5 * (a + a.T))
    reduced = np.linalg.solve(chol, half.T)
    vals = np.linalg.eigvalsh(0.5 * (reduced + reduced.T))
    return float(vals[0]), float(vals[-1])


def block_diag(blocks) -> np.ndarray:
    """The block-diagonal matrix of ``blocks`` (each made at least 2-D)."""
    blocks = [np.atleast_2d(b) for b in blocks]
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)))
    row = col = 0
    for b in blocks:
        out[row:row + b.shape[0], col:col + b.shape[1]] = b
        row, col = row + b.shape[0], col + b.shape[1]
    return out
