"""How close a reported number must be, the checks that the CLI runs on
what it reports, and the sign-free bounds of the associated Hilbert space.

Every width comes from here: :func:`bound_width` of each bound, which the
verification core stores as the ``bound_widths`` of its reports, and
:func:`modulus_width` of each margin and reduced modulus.  :func:`certify`
brackets them by :func:`bracket_lowest`, an inertia test by two Cholesky
factorizations that shares nothing with the pencil reduction that computed
the value beyond the matrices themselves, so agreement is evidence and
disagreement is an internal inconsistency.  :func:`compare_trees` holds a
stored result to its recomputation, and :func:`completeness_check` asks
whether a family's entries span the whole space.
"""

from __future__ import annotations

import numpy as np

from ._numeric import as_matrix, stacked
from .core import TOL_RANK, KreinSpace
from .errors import DimensionMismatch, InternalInconsistency, SchemaError
from .problem_io import is_finite_number
from .subspaces import subspace_sum

__all__ = [
    "bracket_lowest",
    "bound_width",
    "modulus_width",
    "bound_tolerance",
    "alignment_tolerance",
    "certify",
    "certify_entries",
    "compare_trees",
    "hilbert_frame_bounds",
    "hilbert_fusion_bounds",
    "completeness_check",
]

# Relative tolerance of an ``oracle`` re-run on every stored number whose
# rounding error has no larger bound, and the largest it allows any number.
ORACLE_TOL = 1e-9
ORACLE_TOL_CAP = 1e-6
# Multiple of eps (beta + |lam|) / margin within which a bound is held (see
# :func:`bound_width`); over 1040 generated problems (n = 4..256, tilts up
# to 1 - 1e-7) an SVD and a pivoted-QR basis of each part span moved no
# bound by more than 17.4 times it.
BOUND_ROUNDING_FACTOR = 64.0
EPS = float(np.finfo(float).eps)


def bound_width(lam: float, beta: float, margin: float) -> float:
    """The rounding width of a bound ``lam`` of a part with Gram margin
    ``margin`` in a system with Bessel bound ``beta``.

    The bound carries the rounding of the part-span basis its pencil is
    written in, as well as of reducing that pencil; with the numerator
    bounded by ``beta``, its first-order error is ``eps (beta + |lam|) /
    margin``.  The width is ``BOUND_ROUNDING_FACTOR`` times that, and never
    below ``ORACLE_TOL (1 + |lam|)``.
    """
    return max(ORACLE_TOL * (1.0 + abs(lam)),
               BOUND_ROUNDING_FACTOR * EPS * (beta + abs(lam)) / margin)


def modulus_width(value: float) -> float:
    """The rounding width of a margin or reduced modulus ``value`` of the Gram
    of an orthonormal basis, whose norm is at most 1: ``BOUND_ROUNDING_FACTOR
    eps (1 + value)``."""
    return BOUND_ROUNDING_FACTOR * EPS * (1.0 + value)


def bound_tolerance(lam: float, width: float) -> float:
    """The ``oracle`` tolerance of a bound ``lam`` of rounding width
    ``width``: the width relative to ``1 + |lam|``, at most ``ORACLE_TOL_CAP``,
    since past that a number that cannot be told from noise is refused."""
    return min(ORACLE_TOL_CAP, width / (1.0 + abs(lam)))


def alignment_tolerance(dim: int, margin: float) -> float:
    """The ``oracle`` tolerance of r' of an entry with Gram margin ``margin``
    in dimension ``dim``, within ``[ORACLE_TOL, ORACLE_TOL_CAP]``: its
    first-order rounding error ``dim eps / margin``."""
    return min(ORACLE_TOL_CAP, max(ORACLE_TOL, dim * EPS / margin))


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


def certify(report, tol_rank: float) -> dict:
    """The ``oracle`` block of a verified frame or family ``report``: the
    half-width of each :func:`bracket_lowest` by quantity.  Each bound is
    bracketed as the lower or upper extreme of its part pencil ``(A, G)``
    within its ``report.bound_widths``, and the margin and reduced modulus
    of each part span as the lowest eigenvalue of ``(G, I)`` within
    :func:`modulus_width` (``G``, the signed Gram, is positive definite).
    The reduced modulus skips eigenvalues up to ``tol_rank ||G||``, and
    ``||G|| <= 1``, so it is bracketed only where the margin exceeds
    ``tol_rank``."""
    checks = {}
    widths = {"negative": report.bound_widths[:2], "positive": report.bound_widths[2:]}
    for label, (numerator, denominator) in report.pencils.items():
        part = getattr(report, label)
        for which, sign, lam, delta in zip(("lower", "upper"), (1.0, -1.0), part.ratio_range,
                                           widths[label]):
            quantity = f"{label}_{which}_bound"
            bracket_lowest(sign * numerator, denominator, sign * lam, delta, quantity)
            checks[quantity] = delta
        identity = np.eye(denominator.shape[0])
        moduli = ("margin", "gamma") if part.classification.margin > tol_rank else ("margin",)
        for name in moduli:
            quantity = f"{label}_span_{name}"
            value = getattr(part.classification, name)
            delta = modulus_width(value)
            bracket_lowest(denominator, identity, value, delta, quantity)
            checks[quantity] = delta
    return {"checks": checks, "agreement": True}


def certify_entries(subspaces, classifications) -> dict:
    """The ``oracle`` block of ``classify``: each entry's margin is the
    smallest singular value of its Gram, which may be indefinite, within
    :func:`modulus_width`, from one SVD per entry dimension."""
    checks = {}
    smallest = stacked(lambda g: np.linalg.svd(g, compute_uv=False)[..., -1],
                       [sub.gram for sub in subspaces])
    for i, (cls, sigma) in enumerate(zip(classifications, smallest)):
        delta = modulus_width(cls.margin)
        if abs(float(sigma) - cls.margin) > delta:
            raise InternalInconsistency(
                f"entry_{i}_margin {cls.margin!r}: the smallest singular value of the "
                f"entry's Gram is {float(sigma)!r}, more than {delta!r} away")
        checks[f"entry_{i}_margin"] = delta
    return {"checks": checks, "agreement": True}


def compare_trees(stored, fresh, path: str, diffs: list[str],
                  tolerances: dict[str, float] | None = None) -> None:
    """Append to ``diffs`` every difference between two result trees; numbers
    are compared at ``tolerances[path]``, or ``ORACLE_TOL`` where it has none,
    relative to the recomputed value, so that no stored value is judged on
    its own scale.  Two objects with different keys are no difference of
    values but of layout: :class:`SchemaError` at the first such key."""
    if isinstance(stored, dict) and isinstance(fresh, dict):
        odd = sorted(set(stored) ^ set(fresh))
        if odd:
            side = "recomputed" if odd[0] in stored else "stored"
            raise SchemaError(f"field absent from the {side} result", f"$.{path}.{odd[0]}")
        for key in sorted(fresh):
            compare_trees(stored[key], fresh[key], f"{path}.{key}", diffs, tolerances)
        return
    if isinstance(stored, list) and isinstance(fresh, list):
        if len(stored) != len(fresh):
            diffs.append(f"{path}: length {len(stored)} vs {len(fresh)}")
            return
        for i, (a, b) in enumerate(zip(stored, fresh)):
            compare_trees(a, b, f"{path}[{i}]", diffs, tolerances)
        return
    if isinstance(stored, bool) or isinstance(fresh, bool):
        same = stored is fresh
    elif isinstance(stored, (int, float)) and isinstance(fresh, (int, float)):
        x, tol = float(fresh), (tolerances or {}).get(path, ORACLE_TOL)
        same = is_finite_number(stored) and abs(x - float(stored)) <= tol * (1.0 + abs(x))
    else:
        same = stored == fresh
    if not same:
        diffs.append(f"{path}: {stored!r} vs {fresh!r}")


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
