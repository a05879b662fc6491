"""The numpy-only kernels: rank-revealing bases, null spaces, norms, block diagonals."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import kreinframes as kf
from kreinframes._numeric import (
    block_diag,
    column_space,
    column_spaces,
    operator_norm,
    operator_norms,
    orth_columns,
    stacked,
)

TOL_RANK = 1e-10
PROJECTOR_TOL = 1e-12
# Singular values planted on either side of the rank cutoff: far beyond the
# rounding of the computed ones (eps times the largest), yet "just" there.
CUTOFF_FACTORS = (1.05, 0.95)
# 2^505 exceeds the rescale guard of the bases, 2^-600 lies below the
# products' underflow guard; both are exact scalings.
SCALES = (1.0, 2.0**505, 2.0**-600)


def _orthonormal(rng, n, k):
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return q


@st.composite
def _planted(draw):
    """A matrix U diag(s) V^T with a known rank and column space.

    ``s`` holds ``solid`` values in [1e-3, 1] (none: the zero matrix) and,
    optionally, one value at ``TOL_RANK`` times a factor just above or just
    below 1, so that the value counts towards the rank or not.
    """
    n = draw(st.integers(min_value=1, max_value=24))
    cols = draw(st.integers(min_value=1, max_value=24))
    solid = draw(st.integers(min_value=0, max_value=min(n, cols)))
    room = 0 < solid < min(n, cols)  # the cutoff is relative to the largest value
    edge = draw(st.sampled_from((None, *CUTOFF_FACTORS))) if room else None
    scale = draw(st.sampled_from(SCALES))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    values = list(np.logspace(0.0, -3.0, solid)) if solid else []
    if edge is not None:
        values.append(TOL_RANK * edge)
    k = len(values)
    u = _orthonormal(rng, n, k)
    v = _orthonormal(rng, cols, k)
    m = (u * np.array(values)) @ v.T if k else np.zeros((n, cols))
    rank = solid + (edge is not None and edge > 1.0)
    return m * scale, u[:, :solid], rank, scale


@seed(11)
@settings(max_examples=200, deadline=None)
@given(_planted())
def test_orth_columns_finds_the_planted_rank_and_space(planted):
    """The rank counts the planted values above the cutoff; the basis is
    orthonormal, reproduces every column up to the dropped value, and spans
    the planted solid space wherever no planted value sits at the cutoff."""
    m, solid_basis, rank, scale = planted
    basis = orth_columns(m, TOL_RANK)
    assert basis.shape == (m.shape[0], rank)
    assert np.linalg.norm(basis.T @ basis - np.eye(rank), 2) <= PROJECTOR_TOL
    projector = basis @ basis.T
    residual = np.linalg.norm(np.ldexp(m - projector @ m, -int(np.log2(scale))), 2)
    assert residual <= TOL_RANK + PROJECTOR_TOL
    if rank == solid_basis.shape[1]:
        planted_projector = solid_basis @ solid_basis.T
        assert np.linalg.norm(projector - planted_projector, 2) <= PROJECTOR_TOL


@pytest.mark.parametrize("shape", [(4, 0), (0, 3), (0, 0)])
def test_orth_columns_of_an_empty_matrix_is_empty(shape):
    basis, svals = column_space(np.zeros(shape), TOL_RANK)
    assert basis.shape == (shape[0], 0)
    assert svals.size == 0


@pytest.mark.parametrize("scale", SCALES)
def test_orth_columns_of_a_zero_or_scaled_matrix(scale):
    assert orth_columns(np.zeros((5, 3)), TOL_RANK).shape == (5, 0)
    m = scale * np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]])
    basis, svals = column_space(m, TOL_RANK)
    assert basis.shape == (3, 1)
    assert svals[0] == pytest.approx(scale * np.sqrt(25.0), rel=1e-15)
    assert abs(basis[:, 0] @ np.array([1.0, 2.0, 0.0])) == pytest.approx(np.sqrt(5.0), rel=1e-15)


@st.composite
def _subspaces(draw):
    n = draw(st.integers(min_value=2, max_value=16))
    p = draw(st.integers(min_value=0, max_value=n))
    k = draw(st.integers(min_value=1, max_value=n - 1))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rotation = _orthonormal(rng, n, n)
    j = rotation @ np.diag([1.0] * p + [-1.0] * (n - p)) @ rotation.T
    space = kf.make_krein_space(0.5 * (j + j.T))
    return kf.span(rng.standard_normal((k, n)), space)


@seed(12)
@settings(max_examples=100, deadline=None)
@given(_subspaces())
def test_j_orthogonal_complement_is_the_null_space(sub):
    """W^[perp] has dimension n - k, an orthonormal basis, and is J-orthogonal to W."""
    comp = kf.j_orthogonal_complement(sub)
    n = sub.space.dim
    assert comp.dim == n - sub.dim
    assert np.linalg.norm(comp.basis.T @ comp.basis - np.eye(comp.dim), 2) <= PROJECTOR_TOL
    assert np.linalg.norm(sub.basis.T @ sub.space.symmetry @ comp.basis, 2) <= PROJECTOR_TOL


def test_j_orthogonal_complement_of_the_whole_space_is_trivial(minkowski3):
    with pytest.raises(kf.ZeroSubspace):
        kf.j_orthogonal_complement(kf.span(np.eye(3), minkowski3))


@seed(13)
@settings(max_examples=150, deadline=None)
@given(rows=st.integers(min_value=1, max_value=12), cols=st.integers(min_value=1, max_value=12),
       symmetric=st.booleans(), scale=st.sampled_from(SCALES),
       instance=st.integers(min_value=0, max_value=2**32 - 1))
def test_operator_norm_is_the_largest_singular_value(rows, cols, symmetric, scale, instance):
    rng = np.random.default_rng(instance)
    m = rng.standard_normal((rows, cols))
    if symmetric:
        m = m[:rows, :rows] if cols >= rows else rng.standard_normal((rows, rows))
        m = m + m.T
    exact = np.linalg.svd(m, compute_uv=False)[0]
    assert operator_norm(scale * m) == pytest.approx(scale * exact, rel=1e-13)


def test_operator_norm_of_empty_zero_and_overflowing_matrices():
    assert operator_norm(np.zeros((0, 3))) == 0.0
    assert operator_norm(np.zeros((2, 3))) == 0.0
    assert operator_norm(np.array([[np.inf, 0.0]])) == np.inf
    assert operator_norm(np.full((2, 2), 8e307)) == pytest.approx(1.6e308, rel=1e-15)
    assert operator_norm(np.full((2, 3), 1e308)) == np.inf


def test_operator_norms_of_a_stack_are_operator_norm_of_each():
    rng = np.random.default_rng(5)
    scales = np.array([1.0, 2.0**505, 2.0**-600, 0.0, 1.0, 3.0])
    m = rng.standard_normal((6, 3, 7)) * scales[:, None, None]
    assert np.array_equal(operator_norms(m), [operator_norm(x) for x in m])


# Shapes that mix a single column (BLAS dot and gemv routes), small blocks and
# a tall block, as entries of mixed dimension do.
STACK_SHAPES = ((9, 1), (9, 2), (9, 1), (9, 3), (9, 2), (9, 1), (40, 7))


def test_stacked_calls_give_the_bits_of_one_call_per_item():
    """One call per shape on a stack computes what one call per item does."""
    rng = np.random.default_rng(12)
    mats = [rng.standard_normal(shape) for shape in STACK_SHAPES]
    grams = [m.T @ m + np.eye(m.shape[1]) for m in mats]
    t = rng.standard_normal((40, 40))
    cases = (
        (lambda a: np.linalg.svd(a, full_matrices=False), (mats,)),
        (np.linalg.qr, (mats,)),
        (np.linalg.eigh, (grams,)),
        (np.linalg.solve, (grams, [m.T for m in mats])),
        (lambda a: np.swapaxes(a, -1, -2) @ t[: a.shape[-2], : a.shape[-2]] @ a, (mats,)),
    )
    for fn, operands in cases:
        for args, got in zip(zip(*operands), stacked(fn, *operands), strict=True):
            want = fn(*args)
            want = tuple(want) if isinstance(want, tuple) else (want,)
            got = got if isinstance(got, tuple) else (got,)
            assert all(np.array_equal(w, g) for w, g in zip(want, got, strict=True))


def test_column_spaces_are_column_space_of_each():
    rng = np.random.default_rng(8)
    mats = [rng.standard_normal(shape) for shape in STACK_SHAPES]
    mats[1] = np.hstack([mats[0], 2.0 * mats[0]])  # rank 1 of 2 columns
    mats[3] = mats[3] * 2.0**600
    mats.append(np.zeros((9, 0)))
    for m, (basis, svals) in zip(mats, column_spaces(mats, TOL_RANK), strict=True):
        ref_basis, ref_svals = column_space(m, TOL_RANK)
        assert np.array_equal(basis, ref_basis) and np.array_equal(svals, ref_svals)
    assert column_spaces(mats, TOL_RANK)[1][0].shape == (9, 1)


def test_block_diag_places_blocks_on_the_diagonal():
    out = block_diag([np.array([[1.0, 2.0]]), 3.0, np.eye(2)])
    expected = np.array([[1.0, 2.0, 0.0, 0.0, 0.0],
                         [0.0, 0.0, 3.0, 0.0, 0.0],
                         [0.0, 0.0, 0.0, 1.0, 0.0],
                         [0.0, 0.0, 0.0, 0.0, 1.0]])
    assert np.array_equal(out, expected)
    assert block_diag([]).shape == (0, 0)


def test_importing_the_cli_loads_numpy_alone():
    """A fresh interpreter that imports the CLI loads no third-party package
    besides numpy (private modules such as ``_sysconfigdata_*`` aside): the
    linear algebra is numpy's LAPACK alone."""
    package_root = Path(kf.__file__).resolve().parents[1]
    script = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
              "import kreinframes.cli; "
              "print(sorted({name.split('.')[0] for name in set(sys.modules) - before "
              "if not name.startswith('_')} - set(sys.stdlib_module_names)))")
    out = subprocess.run([sys.executable, "-c", script, str(package_root)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "['kreinframes', 'numpy']"
