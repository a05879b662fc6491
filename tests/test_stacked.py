"""The stacked per-family kernels against the per-entry public functions.

Family build, analysis, projection alignment and transport take one stacked
numpy call per distinct entry dimension.  Bases and Gram eigenvalues must be
the bits that ``span`` and ``classify`` give entry by entry; every other
number must agree within 1e-12 relative.  The families mix entry
dimensions, and their spanning rows are rotated and carry a redundant row,
so that the spanning sets are rank-deficient.
"""

import numpy as np
import pytest

import kreinframes as kf
from kreinframes import cli
from kreinframes._numeric import operator_norm, orth_columns
from kreinframes.core import _checked_defects
from kreinframes.subspaces import (
    _classify_all,
    _entry_spans,
    regular_gram,
    smallest_nonzero_modulus,
)
from kreinframes.transforms import _transport

REL_TOL = 1e-12
NEAR_NEUTRAL = 0.9999999
SIZES = (6, 16, 64)
TILTS = (0.5, NEAR_NEUTRAL)


def _mixed_dims(part, n):
    """Entries of dimensions max(1, n/8), 1, 2, 3, ... covering the part, plus
    one more entry so that entries overlap."""
    dims, rest = [], part
    while rest > 0:
        dims.append(min(rest, (max(1, n // 8), 1, 2, 3)[len(dims) % 4]))
        rest -= dims[-1]
    return tuple(dims) + (min(2, part),) if part else ()


def _problem(n, tilt, seed=0):
    """A mixed-dimension family as (rows per entry, weights, space): each
    entry's spanning rows are rotated, and every other entry gets one more
    row, a combination of its others (rank-deficient spanning rows)."""
    p = n // 2
    doc = kf.gen_problem(kf.GeneratorConfig(
        kind="fusion", seed=seed, dim=n, num_positive=p, tilt=tilt, rotate=True,
        entry_dims_positive=_mixed_dims(p, n), entry_dims_negative=_mixed_dims(n - p, n)))
    parsed = kf.parse_problem(doc)
    rng = np.random.default_rng(seed)
    rows = []
    for i, (r, _) in enumerate(parsed.entries):
        q, _ = np.linalg.qr(rng.standard_normal((r.shape[0], r.shape[0])))
        r = q @ r
        rows.append(np.vstack([r, rng.standard_normal(r.shape[0]) @ r]) if i % 2 else r)
    return rows, np.array([w for _, w in parsed.entries]), parsed.space


def _close(new, ref):
    new, ref = np.asarray(new, dtype=float), np.asarray(ref, dtype=float)
    return np.max(np.abs(new - ref), initial=0.0) <= REL_TOL * max(1.0, np.max(np.abs(ref),
                                                                             initial=0.0))


CASES = [(n, tilt) for n in SIZES for tilt in TILTS]


@pytest.mark.parametrize("n, tilt", CASES)
def test_build_is_span_and_classify_entry_by_entry(n, tilt):
    rows, weights, space = _problem(n, tilt)
    family = kf.family_from_spans(rows, weights, space)
    assert len(set(family.entry_dims)) > 1
    for r, sub, cls in zip(rows, family.subspaces, family.entry_classifications, strict=True):
        ref = kf.span(r, space)
        ref_cls = kf.classify(ref)
        assert np.array_equal(sub.basis, ref.basis)
        assert np.array_equal(sub.gram, ref.gram)
        assert np.array_equal(cls.eigenvalues, ref_cls.eigenvalues)
        assert (cls.kind, cls.margin, cls.gamma, cls.regular, cls.maximal_definite) == (
            ref_cls.kind, ref_cls.margin, ref_cls.gamma, ref_cls.regular,
            ref_cls.maximal_definite)


def _indefinite_and_neutral_rows(space, tilt, rng):
    """Spanning rows of entries that are not uniformly definite: a positive
    and a negative eigenvector of J (indefinite), their sum (neutral), a
    near-neutral tilt of it, and the span of all three (indefinite, with a
    redundant row)."""
    eigvals, eigvecs = np.linalg.eigh(space.symmetry)
    plus, minus = eigvecs[:, -1], eigvecs[:, 0]
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    pair = q @ np.vstack([plus, minus])
    neutral = (plus + minus) / np.sqrt(2.0)
    tilted = (plus + tilt * minus) / np.linalg.norm(plus + tilt * minus)
    return [pair, neutral[None], tilted[None], np.vstack([pair, neutral, pair[0] + pair[1]])]


def _classification_reference(sub, tol_def=kf.TOL_DEF, tol_rank=kf.TOL_RANK):
    """The classification of one subspace, decided eigenvalue by eigenvalue
    from ``eigh`` of its Gram (the loop the stacked passes replace)."""
    eigvals, eigvecs = np.linalg.eigh(sub.gram)
    values = eigvals.tolist()
    margin = min(map(abs, values))
    regular = margin > tol_def
    has_pos, has_neg = values[-1] > tol_def, values[0] < -tol_def
    witness = None
    if has_pos and has_neg:
        kind = kf.SubspaceKind.INDEFINITE
        lam_plus, lam_minus = float(eigvals[-1]), float(eigvals[0])
        witness = sub.embed(np.sqrt(-lam_minus) * eigvecs[:, -1]
                            + np.sqrt(lam_plus) * eigvecs[:, 0])
    elif has_pos:
        kind = (kf.SubspaceKind.UNIFORMLY_POSITIVE if regular
                else kf.SubspaceKind.POSITIVE_NON_UNIFORM)
    elif has_neg:
        kind = (kf.SubspaceKind.UNIFORMLY_NEGATIVE if regular
                else kf.SubspaceKind.NEGATIVE_NON_UNIFORM)
    else:
        kind = kf.SubspaceKind.NEUTRAL
    if witness is None and kind not in (kf.SubspaceKind.UNIFORMLY_POSITIVE,
                                        kf.SubspaceKind.UNIFORMLY_NEGATIVE):
        witness = sub.embed(eigvecs[:, int(np.argmin(np.abs(eigvals)))])
    if witness is not None:
        witness = witness / np.linalg.norm(witness)
    maximal = ((kind is kf.SubspaceKind.UNIFORMLY_POSITIVE and sub.dim == sub.space.num_positive)
               or (kind is kf.SubspaceKind.UNIFORMLY_NEGATIVE
                   and sub.dim == sub.space.num_negative))
    return kf.Classification(kind=kind, margin=margin, regular=regular,
                             gamma=smallest_nonzero_modulus(eigvals, tol_rank),
                             maximal_definite=maximal, witness=witness, eigenvalues=eigvals)


@pytest.mark.parametrize("n, tilt", CASES)
def test_stacked_entries_are_span_and_classify_bit_for_bit(n, tilt):
    """Every field of each entry's span and classification, witnesses
    included, from the stacked build (as ``classify`` the command takes it)
    against ``span`` of the entry alone, its Gram by definition and the
    classification decided eigenvalue by eigenvalue."""
    rows, _, space = _problem(n, tilt)
    rows = rows + _indefinite_and_neutral_rows(space, tilt, np.random.default_rng(n))
    subs = _entry_spans(rows, space)
    classes = _classify_all(subs)
    kinds = {cls.kind for cls in classes}
    assert {kf.SubspaceKind.INDEFINITE, kf.SubspaceKind.NEUTRAL} <= kinds
    assert len({sub.dim for sub in subs}) > 1
    for r, sub, cls in zip(rows, subs, classes, strict=True):
        ref = kf.span(r, space)
        assert np.array_equal(sub.basis, ref.basis)
        g = ref.basis.T @ space.symmetry @ ref.basis
        assert np.array_equal(sub.gram, 0.5 * (g + g.T))
        for ref_cls in (_classification_reference(ref), kf.classify(ref)):
            for field, value in cls._asdict().items():
                want = getattr(ref_cls, field)
                if isinstance(value, np.ndarray) or isinstance(want, np.ndarray):
                    assert np.array_equal(value, want), field
                else:
                    assert type(value) is type(want) and value == want, field
        assert (cls.witness is None) == (cls.kind in (kf.SubspaceKind.UNIFORMLY_POSITIVE,
                                                      kf.SubspaceKind.UNIFORMLY_NEGATIVE))


@pytest.mark.parametrize("n, tilt", CASES)
def test_classify_command_is_classify_entry_by_entry(n, tilt):
    rows, weights, space = _problem(n, tilt)
    doc = {"dimension": n, "J": {"type": "matrix", "rows": space.symmetry.tolist()},
           "family": {"entries": [{"basis": r.tolist(), "weight": float(w)}
                                  for r, w in zip(rows, weights)]}}
    outcome = cli.run_classify(kf.parse_problem(doc), cli.Params(kf.TOL_DEF, kf.TOL_RANK))
    parsed = kf.parse_problem(doc)
    for entry, (r, _) in zip(outcome.result["entries"], parsed.entries, strict=True):
        ref = kf.classify(kf.span(r, parsed.space))
        assert np.array_equal(entry["classification"].eigenvalues, ref.eigenvalues)
        assert entry["classification"].kind is ref.kind


@pytest.mark.parametrize("n, tilt", CASES)
def test_analysis_is_one_solve_per_entry(n, tilt):
    family = kf.family_from_spans(*_problem(n, tilt))
    j = family.space.symmetry
    reference = np.vstack([w * np.linalg.solve(regular_gram(sub), sub.basis.T @ j)
                           for w, sub in zip(family.weights, family.subspaces)])
    assert _close(kf.fusion_analysis(family), reference)


def _rps_entry(family, i):
    """r and r' of entry i from its projectors (the definitions, n x n)."""
    sub = family.subspaces[i]
    part_span = family.positive_span if family.signs[i] > 0 else family.negative_span
    j = family.space.symmetry
    pi_m = kf.orthogonal_projection(part_span).matrix
    pi_w = kf.orthogonal_projection(sub).matrix
    q_w = kf.j_projection(sub).matrix
    return operator_norm(j @ pi_w @ j @ pi_m - pi_w), operator_norm((q_w - pi_w) @ pi_m)


@pytest.mark.parametrize("n, tilt", CASES)
def test_rps_is_the_per_entry_definition(n, tilt):
    family = kf.family_from_spans(*_problem(n, tilt))
    eps = np.finfo(float).eps
    for i, entry in enumerate(kf.check_rps_corollary(family)):
        r, r_prime = _rps_entry(family, i)
        # r' is known to n eps / margin on rounded bases (tests/test_fusion.py)
        noise = n * eps / family.entry_classifications[i].margin
        assert entry.index == i and entry.part == ("positive" if family.signs[i] > 0
                                                   else "negative")
        assert _close(entry.r, r)
        assert abs(entry.r_prime - r_prime) <= REL_TOL * max(1.0, r_prime) + noise


@pytest.mark.parametrize("n, tilt", CASES)
def test_transport_is_one_image_per_entry(n, tilt):
    family = kf.family_from_spans(*_problem(n, tilt))
    rng = np.random.default_rng(n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    t = q * rng.uniform(0.5, 2.0, n)
    report, grouped = _transport(t, family)
    images = grouped.subspaces
    assert np.array_equal(grouped.signs, family.signs)
    for sub, image, cls in zip(family.subspaces, images, grouped.entry_classifications,
                               strict=True):
        ref = orth_columns(t @ sub.basis, kf.TOL_RANK)
        assert np.array_equal(image.basis, ref)
        assert np.array_equal(cls.eigenvalues, kf.classify(kf.Subspace(family.space, ref))
                              .eigenvalues)
    for label, indices in (("positive", family.positive_indices),
                           ("negative", family.negative_indices)):
        # T M is spanned from the weighted image bases, as a family spans its parts
        ref = kf.Subspace(family.space, orth_columns(
            np.hstack([family.weights[i] * images[i].basis for i in indices]), kf.TOL_RANK))
        assert np.array_equal(getattr(grouped, f"{label}_span").basis, ref.basis)
        assert getattr(report, f"{label}_span_image").kind is kf.classify(ref).kind
    check = kf.image_fusion_check(t, family)
    assert check.decomposition_original == (report.positive_span_ok
                                            and report.negative_span_ok)


def _span_identity_reference(family, inverse):
    """The projector form of the span identity residual:
    ``max ||P(S^-1 M+/-) - P((M-/+)^[perp])||`` over both parts."""
    worst = 0.0
    for source, other in ((family.positive_span, family.negative_span),
                          (family.negative_span, family.positive_span)):
        mapped = orth_columns(inverse @ source.basis, kf.TOL_RANK)
        target = kf.j_orthogonal_complement(other).basis
        worst = max(worst, operator_norm(mapped @ mapped.T - target @ target.T))
    return worst


@pytest.mark.parametrize("n, tilt", CASES)
def test_span_identity_residual_is_the_projector_distance(n, tilt):
    family = kf.family_from_spans(*_problem(n, tilt))
    diag = kf.fusion_dual_diagnostics(family)
    reference = _span_identity_reference(family, diag.inverse.matrix)
    assert abs(diag.span_identity_residual - reference) <= REL_TOL


@pytest.mark.parametrize("seed", range(5))
def test_span_residual_formula_away_from_zero(seed):
    """For a subspace U of dimension n - q and an orthonormal B (n x q),
    ``||B^T J U||`` is the distance of the projectors onto U and onto
    ``null(B^T J)``: the identity the residual rests on, tested where it is
    far from zero."""
    rng = np.random.default_rng(seed)
    n, q = 9, 4
    space = kf.make_krein_space(np.diag([1.0] * (n - q) + [-1.0] * q))
    b = np.linalg.qr(rng.standard_normal((n, q)))[0]
    u = np.linalg.qr(rng.standard_normal((n, n - q)))[0]
    target = kf.j_orthogonal_complement(kf.Subspace(space, b)).basis
    distance = operator_norm(u @ u.T - target @ target.T)
    assert distance > 0.1
    assert operator_norm((space.symmetry @ b).T @ u) == pytest.approx(distance, rel=1e-12)


@pytest.mark.parametrize("n", [6, 16])
@pytest.mark.parametrize("tilt", [1.0 - 1e-6, 1.0 - 1e-7])
def test_dual_runs_wherever_verify_passes_on_rotated_spans(n, tilt):
    """``dual`` refused near-neutral families depending on how the entries'
    spans were written; its part spans now come without a rank decision."""
    params = cli.Params(kf.TOL_DEF, kf.TOL_RANK)
    for seed in range(6):
        rows, weights, space = _problem(n, tilt, seed)
        doc = {"dimension": n, "J": {"type": "matrix", "rows": space.symmetry.tolist()},
               "family": {"entries": [{"basis": r.tolist(), "weight": float(w)}
                                      for r, w in zip(rows, weights)]}}
        parsed = kf.parse_problem(doc)
        if cli.run_verify(parsed, params).code == 0:
            assert cli.run_dual(parsed, params).code == 0, seed


def test_frame_singular_values_are_those_of_s():
    frame = kf.gen_frame(kf.GeneratorConfig(kind="frame", seed=3, dim=12, num_positive=5,
                                            tilt=0.9, rotate=True))
    report = kf.verify_j_frame(frame)
    s, singular_values = frame._operator
    svals = np.linalg.svd(s, compute_uv=False)
    assert np.max(np.abs(singular_values - svals)) <= REL_TOL * svals[0]
    assert report.condition_number == pytest.approx(svals[0] / svals[-1], rel=1e-10)


@pytest.mark.parametrize("defect", [0.0, 1e-12, 4e-11, 6e-11, 9.99e-11, 1.001e-10, 3e-10, 1e-6])
@pytest.mark.parametrize("symmetric", [True, False])
def test_krein_space_decision_is_the_spectral_one(defect, symmetric):
    """The one-eigensolve screen accepts and rejects exactly what the
    spectral-norm defects do."""
    rng = np.random.default_rng(int(defect * 1e12) + symmetric)
    q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    j = q @ np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0]) @ q.T
    e = rng.standard_normal((7, 7))
    e = e + e.T if symmetric else e - e.T
    j = 0.5 * (j + j.T) + defect * e / np.linalg.norm(e, 2)
    try:
        _checked_defects(j, kf.TOL_SYM)
        exact = None
    except kf.NotAnInvolution as exc:
        exact = str(exc)
    if exact is None:
        space = kf.make_krein_space(j)
        assert (space.num_positive, space.num_negative) == (3, 4)
    else:
        with pytest.raises(kf.NotAnInvolution) as info:
            kf.make_krein_space(j)
        assert str(info.value) == exact


def _partition_reference(v, space, tol_def):
    """The per-vector sign test: signs, or the index of the first neutral vector."""
    from kreinframes._numeric import UNDERFLOW_GUARD, scaled_below_overflow
    signs = []
    for i, f in enumerate(v):
        g = scaled_below_overflow(f, UNDERFLOW_GUARD)
        product, size = float(g @ space.symmetry @ g), float(g @ g)
        if abs(product) <= tol_def * size:
            return i
        signs.append(1 if product > 0.0 else -1)
    return signs


@pytest.mark.parametrize("scale", [1.0, 2.0**505, 1e-200])
def test_partition_by_sign_is_the_per_vector_test(scale):
    rng = np.random.default_rng(7)
    space = kf.make_krein_space(np.diag([1.0] * 5 + [-1.0] * 4))
    v = rng.standard_normal((30, 9))
    v[::3] *= scale
    frame = kf.partition_by_sign(v, space)
    assert frame.signs.tolist() == _partition_reference(v, space, kf.TOL_DEF)
    v[17] = np.array([1.0, 0, 0, 0, 0, 1.0, 0, 0, 0]) * scale  # neutral
    v[23] = 0.0
    with pytest.raises(kf.NeutralVector) as info:
        kf.partition_by_sign(v, space)
    assert info.value.index == _partition_reference(v, space, kf.TOL_DEF) == 17
