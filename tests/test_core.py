"""Fundamental symmetry, indefinite product, and J-adjoint."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import kreinframes as kf
import kreinframes._numeric

EXACT_TOL = 1e-12
SEED = 20240811


def test_make_krein_space_diagonal():
    space = kf.make_krein_space(np.diag([1.0, 1.0, -1.0]))
    assert space.dim == 3
    assert space.num_positive == 2
    assert space.num_negative == 1
    assert np.allclose(space.symmetry @ space.symmetry, np.eye(3), atol=EXACT_TOL)


def test_make_krein_space_accepts_rotated_symmetry():
    rng = np.random.default_rng(SEED)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    j = q @ np.diag([1.0, 1.0, -1.0, -1.0]) @ q.T
    space = kf.make_krein_space(j)
    assert space.num_positive == 2
    assert space.num_negative == 2


def test_make_krein_space_rejects_non_symmetric():
    j = np.array([[1.0, 0.5], [0.0, -1.0]])
    with pytest.raises(kf.NotAnInvolution):
        kf.make_krein_space(j)


def test_make_krein_space_rejects_non_involution():
    with pytest.raises(kf.NotAnInvolution) as excinfo:
        kf.make_krein_space(np.diag([2.0, -1.0]))
    assert excinfo.value.involution_defect > 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("rows", [
    [[1e308, 0.0], [0.0, -1.0]],
    [[0.0, 1e308], [-1e308, 0.0]],
    [[1e308, 1e308], [1e308, 1e308]],
])
def test_make_krein_space_rejects_matrices_whose_defects_overflow(rows):
    with pytest.raises(kf.NotAnInvolution):
        kf.make_krein_space(np.array(rows))


def test_projectors_resolve_identity():
    space = kf.make_krein_space(np.diag([1.0, -1.0, -1.0]))
    p_plus = space.positive_projector
    p_minus = space.negative_projector
    assert np.allclose(p_plus + p_minus, np.eye(3), atol=EXACT_TOL)
    assert np.allclose(p_plus - p_minus, space.symmetry, atol=EXACT_TOL)
    assert np.allclose(p_plus @ p_plus, p_plus, atol=EXACT_TOL)


def test_indefinite_product_matches_quadratic_form(minkowski2):
    x = np.array([3.0, 1.0])
    y = np.array([2.0, 5.0])
    assert kf.indefinite_product(x, y, minkowski2) == pytest.approx(3 * 2 - 1 * 5)
    assert kf.indefinite_product(x, x, minkowski2) == pytest.approx(8.0)


def test_indefinite_product_symmetry(minkowski3):
    rng = np.random.default_rng(SEED)
    for _ in range(10):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        lhs = kf.indefinite_product(x, y, minkowski3)
        rhs = kf.indefinite_product(y, x, minkowski3)
        assert lhs == pytest.approx(rhs, abs=EXACT_TOL)


def test_j_adjoint_matrix_formula(minkowski3):
    rng = np.random.default_rng(SEED)
    t = rng.standard_normal((3, 3))
    j = minkowski3.symmetry
    expected = j @ t.T @ j
    assert np.allclose(kf.j_adjoint_matrix(t, minkowski3), expected, atol=EXACT_TOL)


def test_j_adjoint_pairing_identity(minkowski3):
    """[Tx, y] == [x, T# y] for arbitrary vectors."""
    rng = np.random.default_rng(SEED + 1)
    t = rng.standard_normal((3, 3))
    ts = kf.j_adjoint_matrix(t, minkowski3)
    for _ in range(20):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        lhs = kf.indefinite_product(t @ x, y, minkowski3)
        rhs = kf.indefinite_product(x, ts @ y, minkowski3)
        assert abs(lhs - rhs) <= EXACT_TOL * max(1.0, abs(lhs))


def test_j_adjoint_is_involutive(minkowski2):
    rng = np.random.default_rng(SEED + 2)
    op = kf.Operator(matrix=rng.standard_normal((2, 2)), space=minkowski2)
    twice = kf.j_adjoint(kf.j_adjoint(op))
    assert np.allclose(twice.matrix, op.matrix, atol=EXACT_TOL)


def test_operator_norm_is_spectral(minkowski2):
    op = kf.Operator(matrix=np.array([[3.0, 0.0], [0.0, -4.0]]), space=minkowski2)
    assert op.norm == pytest.approx(4.0)


def test_operator_rejects_shape_mismatch(minkowski2):
    with pytest.raises(kf.DimensionMismatch):
        kf.Operator(matrix=np.zeros((3, 3)), space=minkowski2)


def test_space_equality_is_by_symmetry():
    a = kf.make_krein_space(np.diag([1.0, -1.0]))
    b = kf.make_krein_space(np.diag([1.0, -1.0]))
    c = kf.make_krein_space(np.diag([-1.0, 1.0]))
    assert a == b
    assert a != c


def test_every_exported_name_resolves():
    missing = [f"{module.__name__}.{name}"
               for module in (kf, kf.oracles, kreinframes._numeric)
               for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert set(kf.__all__) <= set(dir(kf))
    with pytest.raises(AttributeError):
        getattr(kf, "no_such_name")
    # the generator's names load on first use, and its config stays a dataclass
    config = dataclasses.replace(kf.GeneratorConfig(), seed=7)
    assert config == kf.GeneratorConfig(seed=7)


def _exact_route(j: np.ndarray, tol_sym: float):
    """What ``make_krein_space`` must return: the spectral-norm defects of
    ``core._checked_defects`` decide, and the signature is read off the
    eigenvalues of the symmetric part."""
    try:
        kf.core._checked_defects(j, tol_sym)
    except kf.NotAnInvolution as exc:
        return "rejected", str(exc), exc.symmetry_defect, exc.involution_defect
    p = int(np.sum(np.linalg.eigvalsh(0.5 * (j + j.T)) > 0.0))
    return "accepted", p, j.shape[0] - p


def _outcome(j: np.ndarray, tol_sym: float):
    try:
        space = kf.make_krein_space(j, tol_sym)
    except kf.NotAnInvolution as exc:
        return "rejected", str(exc), exc.symmetry_defect, exc.involution_defect
    return "accepted", space.num_positive, space.num_negative


def _rotated_symmetries():
    rng = np.random.default_rng(SEED + 3)
    for n in (4, 5, 16, 64, 256):
        for p in (0, 1, n // 2, n):
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            j = q @ np.diag([1.0] * p + [-1.0] * (n - p)) @ q.T
            yield f"rotated-n{n}-p{p}", 0.5 * (j + j.T)


def _fixture_symmetries():
    for path in sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*.json")):
        spec = json.loads(path.read_text(encoding="utf-8"))["J"]
        rows = spec["rows"] if spec["type"] == "matrix" else np.diag(spec["signs"])
        yield path.stem, np.array(rows, dtype=float)


def test_valid_symmetries_take_no_eigendecomposition(monkeypatch):
    """Every fixture J and rotated J at n = 4..256 is accepted by its
    Frobenius defects alone, with the signature of its eigenvalues."""
    cases = [*_fixture_symmetries(), *_rotated_symmetries()]
    expected = {name: _exact_route(j, kf.TOL_SYM) for name, j in cases}

    def refused(*args):
        raise AssertionError("an exact route was taken")

    monkeypatch.setattr(kf.core, "_checked_defects", refused)
    monkeypatch.setattr(kf.core.np.linalg, "eigvalsh", refused)
    for name, j in cases:
        assert _outcome(j, kf.TOL_SYM) == expected[name], name
        assert expected[name][0] == "accepted", name


def _involution_off_by(defect: float, n: int = 6) -> np.ndarray:
    """A rotated symmetric J whose first eigenvalue is 1 + ``defect``."""
    rng = np.random.default_rng(SEED + 4)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    j = q @ np.diag([1.0 + defect] + [1.0, -1.0] * (n // 2 - 1) + [-1.0]) @ q.T
    return 0.5 * (j + j.T)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("rows, tol_sym", [
    ([[1.0, 0.5], [0.0, -1.0]], kf.TOL_SYM),
    ([[2.0, 0.0], [0.0, -1.0]], kf.TOL_SYM),
    ([[1e308, 0.0], [0.0, -1.0]], kf.TOL_SYM),
    ([[0.0, 1e308], [-1e308, 0.0]], kf.TOL_SYM),
    ([[1e308, 1e308], [1e308, 1e308]], kf.TOL_SYM),
    ([[1.0, 1e-10], [0.0, -1.0]], kf.TOL_SYM),
    ([[1.0, 6e-11], [0.0, -1.0]], kf.TOL_SYM),
    ([[1.0, 3e-11], [0.0, -1.0]], kf.TOL_SYM),
    (_involution_off_by(3e-11), kf.TOL_SYM),
    (_involution_off_by(9e-11), kf.TOL_SYM),
    (_involution_off_by(2e-10), kf.TOL_SYM),
    (_involution_off_by(-0.5), 1.0),
    (np.diag([1.0, 0.0]), 3.0),
    (0.9 * np.eye(16), 2.0),
])
def test_make_krein_space_decides_as_the_exact_route(rows, tol_sym):
    """Accept/reject decisions, the reported defects and the signature are
    those of the spectral norms and the eigenvalues, also where the
    Frobenius screen passes J to the exact route: defects between half the
    tolerance and the tolerance, overflowing defects, and (at a loose
    tolerance) a J whose trace would misread the signature, 0.9 I."""
    j = np.array(rows, dtype=float)
    assert _outcome(j, tol_sym) == _exact_route(j, tol_sym)
