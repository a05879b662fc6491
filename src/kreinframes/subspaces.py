"""Subspaces of an indefinite product space and their classification.

A subspace is stored through a Euclidean-orthonormal basis ``B`` (columns).
Its geometry relative to the indefinite product is captured by the compressed
Gram operator ``G = B^T J B``; every classification decision in this module
is a statement about the spectrum of ``G``.
"""

import enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._numeric import (
    as_matrix,
    column_spaces,
    null_space,
    operator_norm,
    orth_columns,
    shape_groups,
    stacked,
)
from .core import TOL_DEF, TOL_NUM, TOL_RANK, KreinSpace, Operator
from .errors import (
    DimensionMismatch,
    NotContained,
    NotRegular,
    NotUniformlyDefinite,
    ZeroSubspace,
)


class SubspaceKind(enum.Enum):
    """Sign character of a subspace under the indefinite product."""

    UNIFORMLY_POSITIVE = "UniformlyPositive"
    UNIFORMLY_NEGATIVE = "UniformlyNegative"
    POSITIVE_NON_UNIFORM = "PositiveNonUniform"
    NEGATIVE_NON_UNIFORM = "NegativeNonUniform"
    NEUTRAL = "Neutral"
    INDEFINITE = "Indefinite"


class Subspace:
    """A linear subspace with a Euclidean-orthonormal column basis."""

    def __init__(self, space: KreinSpace, basis: np.ndarray):
        self.space = space
        self.basis = basis

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @cached_property
    def gram(self) -> np.ndarray:
        """Compressed Gram operator G = B^T J B (symmetric, k x k)."""
        g = self.basis.T @ self.space.symmetry @ self.basis
        return 0.5 * (g + g.T)

    def embed(self, c) -> np.ndarray:
        return self.basis @ np.asarray(c, dtype=float)


def span(vectors, space: KreinSpace, tol_rank: float = TOL_RANK) -> Subspace:
    """Subspace spanned by the given vectors (rows of a 2-D array or a list).

    The spanning set is reduced to an orthonormal basis by a thin SVD with a
    relative rank cutoff of ``tol_rank`` (:func:`~kreinframes._numeric.column_space`).
    A spanning set of numerical rank zero raises :class:`ZeroSubspace`.
    """
    return _entry_spans([vectors], space, tol_rank, "")[0]


def _spanning_columns(vectors, space: KreinSpace) -> np.ndarray:
    """The spanning vectors (rows) of :func:`span`, validated, as columns."""
    m = as_matrix(np.atleast_2d(np.asarray(vectors, dtype=float)), "spanning vectors")
    if m.shape[1] != space.dim:
        raise DimensionMismatch(
            f"spanning vectors have length {m.shape[1]}, expected {space.dim}"
        )
    return m.T


def _entry_spans(entry_vectors, space: KreinSpace, tol_rank: float = TOL_RANK,
                 name: str = "entry {}: ") -> list[Subspace]:
    """The :func:`span` of each of ``entry_vectors`` (the spanning rows of
    each family entry), from one stacked SVD per distinct shape; a refusal
    of an entry (:class:`DimensionMismatch`, :class:`ZeroSubspace`) starts
    with ``name`` formatted with its index."""
    columns = []
    for i, rows in enumerate(entry_vectors):
        try:
            columns.append(_spanning_columns(rows, space))
        except DimensionMismatch as exc:
            raise DimensionMismatch(name.format(i) + str(exc)) from exc
    subs = _spans(columns, space, tol_rank)
    for i, sub in enumerate(subs):
        if sub.dim == 0:
            raise ZeroSubspace(name.format(i) + "spanning set has numerical rank zero")
    return subs


def _spans(columns, space: KreinSpace, tol_rank: float = TOL_RANK) -> list[Subspace]:
    """The column space of each of ``columns``, spanned as :func:`span` spans
    its vectors, from one stacked SVD per distinct shape; a column space of
    numerical rank zero has an empty basis.

    Each basis is copied to C order where the rank cut it out of a wider
    factor: a product with a strided single column takes another BLAS route
    than with a contiguous one, so only contiguous bases give every entry
    Gram the same bits whether it is formed alone or in a stack.
    """
    return [Subspace(space=space, basis=np.ascontiguousarray(basis))
            for basis, _ in column_spaces(columns, tol_rank)]


def _images(t: np.ndarray, subspaces, tol_rank: float = TOL_RANK) -> list[Subspace]:
    """The images ``t W`` of ``subspaces`` (a non-empty sequence):
    :func:`_spans` of the stacked products."""
    return _spans(stacked(lambda b: t @ b, [sub.basis for sub in subspaces]),
                  subspaces[0].space, tol_rank)


def gram_operator(subspace: Subspace) -> np.ndarray:
    return subspace.gram


class Classification(NamedTuple):
    """Outcome of :func:`classify`.

    ``margin`` is the distance from the Gram spectrum to zero, ``gamma`` the
    reduced minimum modulus of the Gram operator (smallest nonzero singular
    value), and ``witness`` a unit vector in the subspace exhibiting the
    failure of uniform definiteness (None for uniformly definite subspaces).
    """

    kind: SubspaceKind
    margin: float
    regular: bool
    gamma: float
    maximal_definite: bool
    witness: np.ndarray | None
    eigenvalues: np.ndarray


def smallest_nonzero_modulus(values: np.ndarray, tol_rank: float) -> float:
    """The smallest modulus among ``values`` above ``tol_rank`` times the
    largest; 0.0 when every value is zero.  On the singular values of M this
    is the reduced minimum modulus of M, on the eigenvalues of a symmetric M
    too."""
    mods = np.sort(np.abs(values))
    if mods.size == 0 or mods[-1] <= 0.0:
        return 0.0
    nonzero = mods[mods > tol_rank * mods[-1]]
    return float(nonzero[0]) if nonzero.size else 0.0


def classify(subspace: Subspace, tol_def: float = TOL_DEF,
             tol_rank: float = TOL_RANK) -> Classification:
    """Classify a subspace by the spectrum of its compressed Gram operator.

    A subspace of dimension zero raises :class:`ZeroSubspace`.
    """
    return _classify_all([subspace], tol_def, tol_rank, "")[0]


# the kinds by the codes that _classify_all assigns them: 0 and 1 are the
# uniformly definite kinds, 4 neutral and 5 indefinite
_KINDS = (SubspaceKind.UNIFORMLY_POSITIVE, SubspaceKind.UNIFORMLY_NEGATIVE,
          SubspaceKind.POSITIVE_NON_UNIFORM, SubspaceKind.NEGATIVE_NON_UNIFORM,
          SubspaceKind.NEUTRAL, SubspaceKind.INDEFINITE)


def _grams(subspaces: list[Subspace]) -> list[np.ndarray]:
    """``Subspace.gram`` of each of ``subspaces``, which share one space: a
    Gram not computed yet of a C-contiguous basis comes from one stacked
    product per distinct dimension (the bits ``Subspace.gram`` computes),
    and is kept as the subspace's own."""
    pending = [sub for sub in subspaces
               if "gram" not in sub.__dict__ and sub.basis.flags.c_contiguous]
    if pending:
        j = pending[0].space.symmetry

        def grams(b: np.ndarray) -> np.ndarray:
            g = np.swapaxes(b, 1, 2) @ j @ b
            return 0.5 * (g + np.swapaxes(g, 1, 2))

        for sub, g in zip(pending, stacked(grams, [sub.basis for sub in pending])):
            sub.__dict__["gram"] = g  # the cached_property's slot
    return [sub.gram for sub in subspaces]


def _classify_all(subspaces, tol_def: float = TOL_DEF, tol_rank: float = TOL_RANK,
                  name: str = "entry {}: ") -> list[Classification]:
    """:func:`classify` of each of ``subspaces``, which share one space, with
    one stacked ``eigh`` per distinct dimension (:func:`_grams` for the
    Grams).  Margins, reduced moduli, kinds and maximality are taken in
    whole-stack passes; only the witness of a subspace that is not uniformly
    definite is built on its own.  The first subspace of dimension zero
    raises :class:`ZeroSubspace`, starting with ``name`` formatted with its
    index."""
    subspaces = list(subspaces)
    grams = _grams(subspaces)
    out: list = [None] * len(subspaces)
    for idx in shape_groups(grams):
        if not grams[idx[0]].size:
            raise ZeroSubspace(name.format(idx[0]) + "subspace has dimension zero")
        eigvals, eigvecs = np.linalg.eigh(np.stack([grams[i] for i in idx]))
        mods = np.abs(eigvals)
        margins = mods.min(axis=1)
        regular = margins > tol_def  # no eigenvalue in [-tol_def, tol_def]
        # smallest_nonzero_modulus of each spectrum: inf where none is nonzero
        gammas = np.where(mods > tol_rank * mods.max(axis=1)[:, None], mods, np.inf).min(axis=1)
        has_pos, has_neg = eigvals[:, -1] > tol_def, eigvals[:, 0] < -tol_def
        # both or neither sign: 5 or 4; one sign: 0 or 1 if regular, else 2 or 3
        codes = np.where(has_pos == has_neg, 4 + has_pos, has_neg + 2 * ~regular)
        space, dim = subspaces[idx[0]].space, eigvals.shape[1]
        maximal = (dim == space.num_positive, dim == space.num_negative)
        for k, (i, code, margin, reg, gamma) in enumerate(zip(
                idx, codes.tolist(), margins.tolist(), regular.tolist(), gammas.tolist())):
            out[i] = Classification(
                kind=_KINDS[code],
                margin=margin,
                regular=reg,
                gamma=gamma if gamma != np.inf else 0.0,
                maximal_definite=code < 2 and maximal[code],
                witness=(_witness(subspaces[i], eigvals[k], eigvecs[k], code == 5)
                         if code > 1 else None),
                eigenvalues=eigvals[k],
            )
    return out


def _witness(subspace: Subspace, eigvals: np.ndarray, eigvecs: np.ndarray,
             indefinite: bool) -> np.ndarray:
    """A unit vector exhibiting that a subspace is not uniformly definite,
    from the spectral decomposition of its Gram (ascending, as ``eigh``
    returns it): for an indefinite subspace the exact neutral combination
    of the extreme eigenvectors, else the eigenvector of the eigenvalue of
    least modulus."""
    if indefinite:
        # [w, w] = (-lam_minus) * lam_plus + lam_plus * lam_minus = 0.
        lam_plus = float(eigvals[-1])
        lam_minus = float(eigvals[0])
        combo = np.sqrt(-lam_minus) * eigvecs[:, -1] + np.sqrt(lam_plus) * eigvecs[:, 0]
    else:
        combo = eigvecs[:, int(np.argmin(np.abs(eigvals)))]
    witness = subspace.embed(combo)
    return witness / np.linalg.norm(witness)


def orthogonal_projection(subspace: Subspace) -> Operator:
    """Euclidean-orthogonal projector pi_W = B B^T."""
    b = subspace.basis
    return Operator(subspace.space, b @ b.T)


def regular_gram(subspace: Subspace, tol_def: float = TOL_DEF) -> np.ndarray:
    """The Gram operator G = B^T J B of a regular subspace.

    Raises :class:`NotRegular` when the smallest eigenvalue modulus of G is
    at most ``tol_def``, so that G^{-1} (and with it Q_W) is not defined.
    """
    g = subspace.gram
    _require_regular(float(np.min(np.abs(np.linalg.eigvalsh(g)))) if g.size else 0.0, tol_def)
    return g


def _require_regular(margin: float, tol_def: float) -> None:
    """Raise :class:`NotRegular` when a Gram margin (smallest eigenvalue
    modulus) is at most ``tol_def``."""
    if margin <= tol_def:
        raise NotRegular(
            f"subspace is degenerate: Gram smallest singular value {margin:.3e}",
            smallest_singular_value=margin,
        )


def j_projection(subspace: Subspace, tol_def: float = TOL_DEF) -> Operator:
    """Projector onto W orthogonal with respect to the indefinite product.

    Q_W = B G^{-1} B^T J.  Defined only for regular subspaces; degenerate
    Gram operators raise :class:`NotRegular`.
    """
    g = regular_gram(subspace, tol_def)
    b = subspace.basis
    q = b @ np.linalg.solve(g, b.T @ subspace.space.symmetry)
    return Operator(subspace.space, q)


def j_orthogonal_complement(subspace: Subspace, tol_rank: float = TOL_RANK) -> Subspace:
    """The orthogonal companion W^[perp] = {x : [x, w] = 0 for all w in W}:
    the null space of ``B^T J``, from one SVD."""
    basis = null_space(subspace.basis.T @ subspace.space.symmetry, tol_rank)
    if basis.shape[1] == 0:
        raise ZeroSubspace("orthogonal companion is trivial")
    return Subspace(space=subspace.space, basis=basis)


def is_contained(inner: Subspace, outer: Subspace, tol: float = TOL_NUM) -> bool:
    """Whether inner is a subspace of outer, up to tolerance."""
    resid = inner.basis - outer.basis @ (outer.basis.T @ inner.basis)
    return operator_norm(resid) <= tol


def check_rjpp(inner: Subspace, outer: Subspace, tol_num: float = TOL_NUM,
               tol_def: float = TOL_DEF) -> float:
    """Residual of the projection-restriction identity on a definite subspace.

    For W contained in a uniformly definite M, compares the indefinite
    projector onto W with the Euclidean projector onto W on vectors from M:
    returns ``|| (Q_W - pi_W) pi_M ||``.  A zero residual means projecting
    with either product agrees on M.

    With B an orthonormal basis of W and G = B^T J B,
    ``(Q_W - pi_W) pi_M = B G^{-1} B^T J (pi_M - pi_W)``, so the residual is
    zero exactly when W is J-orthogonal to its Euclidean complement in M.
    That holds when W = M or when W lies in an eigenspace of J (in particular
    when M does); for a proper W in a tilted M it is generically positive.
    """
    if inner.space != outer.space:
        raise DimensionMismatch("subspaces live in different spaces")
    if not is_contained(inner, outer, tol_num):
        raise NotContained("first subspace is not contained in the second")
    outer_kind = classify(outer, tol_def).kind
    if outer_kind not in (SubspaceKind.UNIFORMLY_POSITIVE, SubspaceKind.UNIFORMLY_NEGATIVE):
        raise NotUniformlyDefinite(
            f"enclosing subspace must be uniformly definite, got {outer_kind.value}"
        )
    q_w = j_projection(inner, tol_def).matrix
    pi_w = orthogonal_projection(inner).matrix
    pi_m = orthogonal_projection(outer).matrix
    return operator_norm((q_w - pi_w) @ pi_m)


class AngularReport(NamedTuple):
    """Angular operator of a uniformly definite subspace.

    ``norm`` is the operator norm of the angular operator K.  The exact
    spectral relation ties the *square* of the norm to the reduced minimum
    modulus of the Gram operator: ``norm**2 == (1 - gamma) / (1 + gamma)``.
    The unsquared reading of that right-hand side is also reported, with a
    flag set when it visibly disagrees with the computed norm (it does for
    every subspace that is not canonically aligned or maximally tilted).
    """

    matrix: np.ndarray
    norm: float
    gamma: float
    relation_value: float
    squared_residual: float
    literal_residual: float
    literal_discrepancy: bool


def angular_operator(subspace: Subspace, tol_def: float = TOL_DEF,
                     tol_num: float = TOL_NUM) -> AngularReport:
    """Angular operator of a uniformly definite subspace.

    A uniformly positive W is the graph of a strict contraction K from its
    shadow in the canonical positive eigenspace into the negative one
    (roles swap for uniformly negative subspaces).
    """
    cls = classify(subspace, tol_def)
    if cls.kind is SubspaceKind.UNIFORMLY_POSITIVE:
        x_dom = subspace.space.positive_projector @ subspace.basis
        x_img = subspace.space.negative_projector @ subspace.basis
    elif cls.kind is SubspaceKind.UNIFORMLY_NEGATIVE:
        x_dom = subspace.space.negative_projector @ subspace.basis
        x_img = subspace.space.positive_projector @ subspace.basis
    else:
        raise NotUniformlyDefinite(
            f"angular operator requires a uniformly definite subspace, got {cls.kind.value}"
        )
    k = x_img @ np.linalg.pinv(x_dom)
    norm = operator_norm(k)
    gamma = cls.gamma
    relation = (1.0 - gamma) / (1.0 + gamma)
    squared_residual = abs(norm**2 - relation)
    literal_residual = abs(norm - relation)
    return AngularReport(
        matrix=k,
        norm=norm,
        gamma=gamma,
        relation_value=relation,
        squared_residual=squared_residual,
        literal_residual=literal_residual,
        literal_discrepancy=literal_residual > tol_num,
    )


def reduced_min_modulus(operator, tol_rank: float = TOL_RANK) -> float:
    """Smallest nonzero singular value; 0.0 for the zero operator."""
    m = operator.matrix if isinstance(operator, Operator) else as_matrix(operator, "operator")
    if m.size == 0:
        return 0.0
    return smallest_nonzero_modulus(np.linalg.svd(m, compute_uv=False), tol_rank)


def subspace_sum(parts, tol_rank: float = TOL_RANK) -> Subspace:
    """Span of the union of the given subspaces."""
    parts = list(parts)
    if not parts:
        raise ZeroSubspace("cannot form the span of no subspaces")
    space = parts[0].space
    for s in parts[1:]:
        if s.space != space:
            raise DimensionMismatch("subspaces live in different spaces")
    stacked = np.hstack([s.basis for s in parts])
    basis = orth_columns(stacked, tol_rank)
    return Subspace(space=space, basis=basis)
