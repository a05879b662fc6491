"""Property-based checks over the seeded generator's instance space."""

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import kreinframes as kf
from test_fusion import _projector_sum

REL_TOLERANCE = 1e-9
SANDWICH_SLACK = 1e-9
MAX_EXAMPLES = 25


def _family_for(instance_seed: int, dim: int, num_positive: int):
    q = dim - num_positive
    cfg = kf.GeneratorConfig(kind="fusion", seed=instance_seed, dim=dim,
                             num_positive=num_positive,
                             entry_dims_positive=(1,) * num_positive,
                             entry_dims_negative=(1,) * q,
                             rotate=instance_seed % 2 == 0)
    return kf.gen_family(cfg)


@seed(1)
@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    instance_seed=st.integers(min_value=0, max_value=10_000),
    dim=st.integers(min_value=2, max_value=6),
    p_offset=st.integers(min_value=1, max_value=5),
)
def test_bounds_are_ordered_and_sandwiched(instance_seed, dim, p_offset):
    """Every generated family yields B- <= A- < 0 < A+ <= B+ with the
    closed-form estimates containing the optimal interval on each side."""
    num_positive = 1 + p_offset % (dim - 1) if dim > 1 else 1
    fam = _family_for(instance_seed, dim, num_positive)
    report = kf.verify_j_fusion_frame(fam)
    assert report.is_j_fusion_frame
    bm, am, ap, bp = report.bounds
    assert bm <= am < 0 < ap <= bp
    bme, ame, ape, bpe = report.bound_estimates
    assert ape <= ap + SANDWICH_SLACK
    assert bp <= bpe + SANDWICH_SLACK
    assert ame >= am - SANDWICH_SLACK
    assert bm >= bme - SANDWICH_SLACK
    # the Bessel constant dominates the weighted Euclidean projection sum
    hi = kf.oracles.hilbert_fusion_bounds(fam.subspaces, fam.weights)[1]
    assert report.bessel_bound + SANDWICH_SLACK >= hi


@seed(2)
@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    instance_seed=st.integers(min_value=0, max_value=10_000),
    subset_mask=st.integers(min_value=0, max_value=63),
)
def test_interlacing_identity_holds_for_random_subsets(instance_seed, subset_mask):
    cfg = kf.GeneratorConfig(kind="frame", seed=instance_seed, dim=4, num_positive=2,
                             num_vectors_positive=3, num_vectors_negative=3)
    frame = kf.gen_frame(cfg)
    subset = [i for i in range(frame.size) if subset_mask & (1 << i)]
    rng = np.random.default_rng(instance_seed)
    f = rng.standard_normal(frame.space.dim)
    lhs, rhs = kf.interlacing_identity(frame, subset, f)
    assert abs(lhs - rhs) <= REL_TOLERANCE * (1 + abs(lhs))


@seed(3)
@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(instance_seed=st.integers(min_value=0, max_value=10_000))
def test_frame_operator_factorizations(instance_seed):
    """S == T A == sum_i v_i^2 Q_{W_i} and S == S+ - S- hold exactly for every
    generated family, with S+ and S- the projector sums over each sign."""
    fam = _family_for(instance_seed, 4, 2)
    s = kf.fusion_frame_operator(fam).matrix
    t = kf.fusion_synthesis(fam)
    a = kf.fusion_analysis(fam)
    scale = np.linalg.norm(s)
    assert np.linalg.norm(s - t @ a) <= 1e-12 * scale
    assert np.linalg.norm(s - _projector_sum(fam)) <= 1e-12 * scale
    plus, minus = kf.fusion_operator_parts(fam)
    assert np.linalg.norm(s - (plus.matrix - minus.matrix)) <= 1e-12 * scale
    assert np.linalg.norm(plus.matrix - _projector_sum(fam, 1)) <= 1e-12 * scale
    assert np.linalg.norm(minus.matrix + _projector_sum(fam, -1)) <= 1e-12 * scale
    ss = kf.j_adjoint_matrix(s, fam.space)
    assert np.linalg.norm(s - ss) <= 1e-12 * scale


@seed(4)
@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    instance_seed=st.integers(min_value=0, max_value=10_000),
    scale_exp=st.integers(min_value=-2, max_value=2),
)
def test_image_partition_implication(instance_seed, scale_exp):
    """If the transported family verifies, grouping by image signs always
    decomposes the space (the original-sign grouping may fail)."""
    fam = _family_for(instance_seed, 4, 2)
    rng = np.random.default_rng(instance_seed + 1)
    t = np.eye(4) * (2.0 ** scale_exp) + 0.2 * rng.standard_normal((4, 4))
    if np.linalg.cond(t) > 1e6:
        return
    try:
        check = kf.image_fusion_check(t, fam)
    except kf.IndefiniteOrNeutralSubspace:
        return  # the operator pushed an entry onto the neutral cone
    if check.image_verdict:
        assert check.decomposition_image


@seed(5)
@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(instance_seed=st.integers(min_value=0, max_value=10_000))
def test_adjoint_identity_for_generated_families(instance_seed):
    fam = _family_for(instance_seed, 5, 2)
    assert kf.adjoint_identity_residual(fam, seed=instance_seed) <= 1e-11
