"""Transporting families through bounded invertible operators."""

import numpy as np
import pytest

import kreinframes as kf
from kreinframes import SubspaceKind

EXACT_TOL = 1e-12
NUM_TOL = 1e-9
SEED = 314


def _eigenline_family(space):
    rows = [np.zeros((1, space.dim)) for _ in range(space.dim)]
    for i in range(space.dim):
        rows[i][0, i] = 1.0
    return kf.family_from_spans(rows, [1.0] * space.dim, space)


def test_apply_identity_is_noop(tilted_family):
    image = kf.apply_operator(np.eye(tilted_family.space.dim), tilted_family)
    assert list(image.signs) == list(tilted_family.signs)
    for a, b in zip(image.subspaces, tilted_family.subspaces):
        assert np.allclose(a.basis @ a.basis.T, b.basis @ b.basis.T, atol=EXACT_TOL)


def test_apply_diagonal_scaling_preserves_verdict(tilted_family):
    t = np.diag(np.linspace(1.0, 2.0, tilted_family.space.dim))
    image = kf.apply_operator(t, tilted_family)
    assert kf.verify_j_fusion_frame(image).is_j_fusion_frame


def test_apply_operator_rejects_neutral_image(minkowski2):
    """A shear can push a definite line onto the neutral cone."""
    fam = _eigenline_family(minkowski2)
    t = np.array([[1.0, 1.0], [1.0, 2.0]])  # maps e1 to (1, 1), neutral
    with pytest.raises(kf.IndefiniteOrNeutralSubspace) as excinfo:
        kf.apply_operator(t, fam)
    exc = excinfo.value
    assert exc.index == 0
    w = exc.witness / np.linalg.norm(exc.witness)
    target = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert min(np.linalg.norm(w - target), np.linalg.norm(w + target)) <= 1e-12
    assert abs(kf.indefinite_product(w, w, minkowski2)) <= EXACT_TOL


def test_apply_operator_rejects_an_image_of_dimension_zero(minkowski2):
    """An operator that kills an entry is refused with the entry's index."""
    with pytest.raises(kf.ZeroSubspace, match="^entry 0: subspace has dimension zero$"):
        kf.apply_operator(np.diag([0.0, 1.0]), _eigenline_family(minkowski2))


def test_preservation_audit_sufficient_for_definite_scaling():
    # a mild diagonal scaling in canonical coordinates keeps every sign
    space = kf.make_krein_space(np.diag([1.0, 1.0, -1.0, -1.0]))
    fam = kf.family_from_spans(
        [np.array([[1.0, 0.2, 0.0, 0.0], [0.0, 1.0, 0.1, 0.0]]),
         np.array([[0.1, 0.0, 1.0, 0.0]]),
         np.array([[0.0, 0.1, 0.0, 1.0]])],
        [1.0, 1.2, 0.9], space)
    report = kf.preservation_audit(np.diag([1.1, 0.9, 1.2, 0.8]), fam)
    assert report.surjective
    assert report.all_entries_preserved
    assert report.positive_span_ok and report.negative_span_ok
    assert report.sufficient


def test_preservation_audit_rejects_rank_deficient(tilted_family):
    t = np.zeros((tilted_family.space.dim, tilted_family.space.dim))
    with pytest.raises(kf.NotSurjective):
        kf.preservation_audit(t, tilted_family)


def test_sufficient_hypotheses_imply_image_verdict(tilted_family):
    """Verified hypotheses force a verified image (checked, not assumed)."""
    t = np.diag(np.linspace(1.0, 1.5, tilted_family.space.dim))
    check = kf.image_fusion_check(t, tilted_family)
    if check.sufficient:
        assert check.image_verdict


def _near_identity(family):
    rng = np.random.default_rng(SEED)
    n = family.space.dim
    return np.eye(n) + 0.05 * rng.standard_normal((n, n))


def test_image_report_parts_are_the_audited_span_images(tilted_family):
    """An operator that keeps every sign: the image family is the grouping
    the audit spanned, so each part classification of the image report is
    the audit's span-image classification, bit for bit."""
    check = kf.image_fusion_check(_near_identity(tilted_family), tilted_family)
    assert all(e.sign_preserved for e in check.preservation.entries)
    for label in ("positive", "negative"):
        image = getattr(check.image_report, label).classification
        audited = getattr(check.preservation, f"{label}_span_image")
        for name, value in image._asdict().items():
            other = getattr(audited, name)
            if isinstance(value, np.ndarray):
                assert np.array_equal(value, other)
            else:
                assert value == other


def test_sign_keeping_image_classifies_each_part_span_once(tilted_family, monkeypatch):
    """The audit of T M+/- is the verification of the grouped images, so an
    image family that keeps its signs has each part span classified once."""
    spans_classified = []
    classify_all = kf.subspaces._classify_all

    def counting(subspaces, *args, **kwargs):
        spans_classified.append(subspaces)
        return classify_all(subspaces, *args, **kwargs)

    monkeypatch.setattr(kf.subspaces, "_classify_all", counting)
    check = kf.image_fusion_check(_near_identity(tilted_family), tilted_family)
    assert check.sufficient and check.image_verdict
    assert len(spans_classified) == 2


@pytest.mark.parametrize("case", ["sign swap", "sign keeping", "rejected image"])
def test_audited_span_passes_are_those_of_the_grouped_images(case, minkowski2, tilted_family):
    """Each ``*_span_ok`` of the audit is the pass of that part in a
    verification, from scratch, of the images grouped by the original signs;
    where the images keep their signs, also that of the image report."""
    t, family = {
        "sign swap": (np.array([[0.0, 1.0], [1.0, 0.0]]), _eigenline_family(minkowski2)),
        "sign keeping": (_near_identity(tilted_family), tilted_family),
        "rejected image": (np.array([[1.0, 1.0], [1.0, 2.0]]), _eigenline_family(minkowski2)),
    }[case]
    check = kf.image_fusion_check(t, family)
    images = kf.subspaces._images(t, family.subspaces)
    grouped = kf.WeightedSubspaceFamily(family.space, tuple(images), family.weights,
                                        family.signs, tuple(map(kf.classify, images)),
                                        family.tol_def, family.tol_rank)
    fresh = kf.verify_j_fusion_frame(grouped)
    reports = [fresh] + ([check.image_report] if check.sufficient else [])
    for label, required in (("positive", family.space.num_positive),
                            ("negative", family.space.num_negative)):
        audited = getattr(check.preservation, f"{label}_span_ok")
        for report in reports:
            part = getattr(report, label)
            assert audited == (part.ok if part is not None else required == 0)
    assert check.decomposition_original == fresh.is_j_fusion_frame


def test_sign_swap_operator_regroups_entries(minkowski2):
    """The swap maps positive entries to negative ones and vice versa.

    Grouping images by the original signs then fails, while grouping by
    the actual image signs still decomposes the space.
    """
    fam = _eigenline_family(minkowski2)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    check = kf.image_fusion_check(swap, fam)
    assert check.image_verdict
    assert not check.decomposition_original
    assert check.decomposition_image
    assert not check.sufficient  # entry signs flipped, hypotheses fail
    image_kinds = [e.image_kind for e in check.preservation.entries]
    assert image_kinds[0] is SubspaceKind.UNIFORMLY_NEGATIVE
    assert image_kinds[1] is SubspaceKind.UNIFORMLY_POSITIVE


def test_image_check_reports_neutral_rejection(minkowski2):
    fam = _eigenline_family(minkowski2)
    t = np.array([[1.0, 1.0], [1.0, 2.0]])
    check = kf.image_fusion_check(t, fam)
    assert not check.image_verdict
    assert check.rejected_entry == 0
    w = check.rejection_witness
    assert check.rejection_self_product == float(w @ minkowski2.symmetry @ w)
    assert check.image_report is None


def test_neutral_image_fixture():
    """Shipped dim-4 fixture: the operator collapses the first eigenplane."""
    from pathlib import Path
    parsed = kf.load_problem(
        Path(__file__).resolve().parent.parent / "fixtures" / "neutral_image.json")
    fam = kf.family_from_spans([r for r, _ in parsed.entries],
                               [w for _, w in parsed.entries], parsed.space)
    with pytest.raises(kf.IndefiniteOrNeutralSubspace) as excinfo:
        kf.apply_operator(parsed.operator, fam)
    w = excinfo.value.witness
    w = w / np.linalg.norm(w)
    target = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
    assert min(np.linalg.norm(w - target), np.linalg.norm(w + target)) <= 1e-8
    assert abs(kf.indefinite_product(w, w, parsed.space)) <= 1e-12


def test_projection_commutation_identity(tilted_family):
    """Q_V T# == Q_V T# Q_{TV} holds exactly for regular V and TV."""
    rng = np.random.default_rng(SEED)
    space = tilted_family.space
    for sub in tilted_family.subspaces:
        t = np.eye(space.dim) + 0.3 * rng.standard_normal((space.dim, space.dim))
        residual = kf.projection_commutation_residual(t, sub)
        assert residual <= 1e-10


def test_projection_commutation_requires_regular_image(minkowski2):
    sub = kf.span(np.array([[1.0, 0.0]]), minkowski2)
    t = np.array([[1.0, 1.0], [1.0, 2.0]])  # image of e1 is neutral
    with pytest.raises(kf.KreinFrameError):
        kf.projection_commutation_residual(t, sub)


# Each entry point of the module with its argument: the family, or, for the
# commutation residual, the family's first entry.
TRANSPORTS = {
    "apply_operator": (kf.apply_operator, False),
    "preservation_audit": (kf.preservation_audit, False),
    "image_fusion_check": (kf.image_fusion_check, False),
    "projection_commutation_residual": (kf.projection_commutation_residual, True),
}
# A raw matrix is refused as :class:`kf.Operator` refuses it.
BAD_MATRICES = {
    "nan": (np.array([[1.0, np.nan], [0.0, 1.0]]),
            "^operator matrix contains non-finite entries$"),
    "nan everywhere": (np.full((2, 2), np.nan), "^operator matrix contains non-finite entries$"),
    "inf": (np.array([[1.0, 0.0], [0.0, np.inf]]),
            "^operator matrix contains non-finite entries$"),
    "-inf": (np.array([[-np.inf, 0.0], [0.0, 1.0]]),
             "^operator matrix contains non-finite entries$"),
    "3x3": (np.eye(3), r"^operator matrix has shape \(3, 3\), expected square of size 2$"),
    "vector": (np.ones(2), "^operator matrix must be 2-dimensional, got ndim=1$"),
}


@pytest.mark.parametrize("bad", BAD_MATRICES)
@pytest.mark.parametrize("name", TRANSPORTS)
def test_a_malformed_operator_matrix_is_refused_as_an_input(minkowski2, name, bad):
    """A non-finite entry or a wrong shape is an input error that names
    what is wrong, not numpy's ``LinAlgError``, an exit-4
    :class:`kf.NumericalFailure` or :class:`kf.NotRegular`."""
    call, of_entry = TRANSPORTS[name]
    family = _eigenline_family(minkowski2)
    matrix, message = BAD_MATRICES[bad]
    with pytest.raises(kf.DimensionMismatch, match=message):
        call(matrix, family.subspaces[0] if of_entry else family)


@pytest.mark.parametrize("name", TRANSPORTS)
def test_an_operator_of_another_space_is_refused(minkowski2, name):
    """An :class:`kf.Operator` on a space of the same dimension but another J."""
    call, of_entry = TRANSPORTS[name]
    family = _eigenline_family(minkowski2)
    other = kf.Operator(kf.make_krein_space(np.diag([-1.0, 1.0])), np.eye(2))
    with pytest.raises(kf.DimensionMismatch, match="^operator and family live in different spaces$"):
        call(other, family.subspaces[0] if of_entry else family)


@pytest.mark.parametrize("scale", [1.0, 2.0**520])
def test_an_operator_argument_is_its_matrix(tilted_family, scale):
    """An :class:`kf.Operator` gives the image check of its matrix, at unit
    scale and past the power-of-two rescale."""
    space = tilted_family.space
    t = scale * np.diag(np.linspace(1.0, 1.5, space.dim))
    by_matrix = kf.image_fusion_check(t, tilted_family)
    by_operator = kf.image_fusion_check(kf.Operator(space, t), tilted_family)
    assert by_matrix.image_verdict
    assert kf.dumps_canonical(kf.jsonify(by_operator)) == kf.dumps_canonical(kf.jsonify(by_matrix))
