"""Acceptance gate: twelve numbered checks, one printed verdict line each.

Every check pins its stated tolerance.  Four checks (3, the last clause of 6,
7, and the first clause of 12) concern identities that hold only in special
cases: the reciprocal dual-bounds pattern, the dual family's operator being
S^-1, and the restriction Q_W = pi_W on M.  Each asserts the identity at its
pinned tolerance on the instances where it is a theorem, asserts the true
identity that replaces it everywhere else through a route that does not use
the quantity under test, and pins the counterexample: the tilted instances
must still show it, and the detail line prints their count and worst value.
See README "Counterexamples pinned by the gate".  Checks are numbered in
output as [01]..[12].
"""

from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np

import kreinframes as kf
from kreinframes.cli import main
from oracle_references import (
    gamma_brute,
    min_singular_brute,
    rayleigh_extrema,
    rayleigh_extrema_sampled,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# pinned tolerances, one block per check ------------------------------------
WITNESS_PRODUCT_TOL = 1e-10      # [01] |[w, w]| for the claimed neutral witness
WITNESS_ALIGN_TOL = 1e-8         # [01] distance to the line through (1, 1, sqrt 2)
HILBERT_LOWER_MIN = 0.1          # [01] associated-Hilbert lower fusion bound
NEUTRAL_IMAGE_TOL = 1e-12        # [02] |[w, w]| for the transported witness
RECIPROCITY_REL_TOL = 1e-8       # [03] reciprocal-bounds relative deviation
INTERLACING_TOL = 1e-9           # [04] |lhs - rhs| <= tol * (1 + |lhs|)
SANDWICH_SLACK = 1e-9            # [05] estimate interval containment slack
OPERATOR_REL_TOL = 1e-12         # [06] S = S#, S = T T# (relative)
DUAL_OPERATOR_REL_TOL = 1e-8     # [06] canonical-dual reconstruction residual
RESTRICTION_TOL = 1e-12          # [07] (Q_W - pi_W) pi_M residual and its sandwich
COMMUTATION_TOL = 1e-10          # [08] Q_V T# = Q_V T# Q_TV residual
ORACLE_SAMPLED_TOL = 1e-4        # [09] sampled-search agreement
ORACLE_ALGEBRAIC_TOL = 1e-10     # [09] algebraic-route agreement
ANGULAR_TOL = 1e-10              # [11] | ||K||^2 - (1-g)/(1+g) |
ALIGNMENT_TOL = 1e-12            # [12] Q-restricted residual r'
R_DETECT_MIN = 0.1               # [12] detector fixture must show r above this
COUNTEREXAMPLE_MIN = 1e-3        # [03] [06] [07] [12] a pinned counterexample exceeds this

FUSION_POOL_SIZE = 200
FRAME_POOL_SIZE = 200
INTERLACING_FRAMES = 50
INTERLACING_TRIALS = 20


def _verdict(capsys, num: int, label: str, ok: bool, detail: str = "") -> bool:
    line = f"[{num:02d}] {label:<38} {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    return ok


def _family_from(name: str) -> kf.WeightedSubspaceFamily:
    parsed = kf.load_problem(FIXTURES / name)
    return kf.family_from_spans([r for r, _ in parsed.entries],
                                [w for _, w in parsed.entries], parsed.space)


@lru_cache(maxsize=1)
def _fusion_pool() -> tuple:
    """200 seeded, verified fusion families of ambient dimension <= 8."""
    pool = []
    for i in range(FUSION_POOL_SIZE):
        dim = (2, 3, 4, 5, 6, 7, 8)[i % 7]
        p = 1 + (i * 7 + 3) % (dim - 1)
        q = dim - p
        cfg = kf.GeneratorConfig(
            kind="fusion", seed=1000 + i, dim=dim, num_positive=p,
            entry_dims_positive=(2,) + (1,) * (p - 1) if p >= 2 else (1,),
            entry_dims_negative=(2,) + (1,) * (q - 1) if q >= 2 else (1,),
            rotate=i % 2 == 0)
        pool.append(kf.gen_family(cfg))
    return tuple(pool)


@lru_cache(maxsize=1)
def _fusion_reports() -> tuple:
    return tuple(kf.verify_j_fusion_frame(f) for f in _fusion_pool())


@lru_cache(maxsize=1)
def _fusion_dual_diags() -> tuple:
    return tuple(kf.fusion_dual_diagnostics(f) for f in _fusion_pool())


def _frame_configs() -> list:
    """200 seeded frame configurations of ambient dimension <= 8 (tilt 0.5)."""
    configs = []
    for i in range(FRAME_POOL_SIZE):
        dim = (2, 3, 4, 5, 6, 8)[i % 6]
        p = 1 + (i * 5 + 2) % (dim - 1)
        configs.append(kf.GeneratorConfig(
            kind="frame", seed=2000 + i, dim=dim, num_positive=p,
            num_vectors_positive=p + 1, num_vectors_negative=dim - p + 1,
            rotate=i % 2 == 1))
    return configs


@lru_cache(maxsize=1)
def _frame_pool() -> tuple:
    """200 seeded, verified vector frames of ambient dimension <= 8."""
    return tuple(kf.gen_frame(cfg) for cfg in _frame_configs())


@lru_cache(maxsize=1)
def _untilted_frame_pool() -> tuple:
    """The same 200 configurations at tilt 0: M+ and M- are eigenspaces of J,
    hence J-orthogonal (rotation moves J along with the frame)."""
    return tuple(kf.gen_frame(replace(cfg, tilt=0.0)) for cfg in _frame_configs())


def _oracle_bound_gap(bounds, pencils) -> float:
    """Largest |bound - oracle| / (1 + |bound|) over the bounds of each part,
    the oracle being the algebraic Rayleigh extrema of the part's pencil."""
    gap = 0.0
    for part, slots in (("negative", (0, 1)), ("positive", (2, 3))):
        for slot, extremum in zip(slots, rayleigh_extrema(*pencils[part])):
            gap = max(gap, abs(bounds[slot] - extremum) / (1 + abs(bounds[slot])))
    return gap


def _restriction_sandwich(inner: kf.Subspace, outer: kf.Subspace) -> tuple:
    """Bounds (c, c / sigma_min(G_W)) on r = ||(Q_W - pi_W) pi_M|| for W in M.

    With B the orthonormal basis of W and G = B^T J B its Gram operator,
    (Q_W - pi_W) pi_M = B G^-1 B^T J (pi_M - pi_W), and ||G|| <= 1, so
    c = ||B^T J (pi_M - pi_W)|| satisfies c <= r <= c / sigma_min(G).  Hence
    r = 0 exactly when W is J-orthogonal to its Euclidean complement in M.
    Neither bound forms Q_W.
    """
    b = inner.basis
    pi_gap = outer.basis @ outer.basis.T - b @ b.T
    c = float(np.linalg.norm(b.T @ inner.space.symmetry @ pi_gap, 2))
    sigma_min = float(np.min(np.abs(np.linalg.eigvalsh(inner.gram))))
    return c, c / sigma_min


# ---------------------------------------------------------------------------


def test_criterion_01_dim3_counterexample(capsys):
    """Two tilted positive lines and one negative line in R^3: a classical
    fusion frame whose positive span degenerates, so the verdict is false
    and a neutral witness on the line through (1, 1, sqrt 2) is produced."""
    fam = _family_from("r3_family.json")
    report = kf.verify_j_fusion_frame(fam)
    exit_code = main(["verify", str(FIXTURES / "r3_family.json")])
    capsys.readouterr()  # swallow the CLI report

    w = report.positive.classification.witness
    self_product = abs(kf.indefinite_product(w, w, fam.space))
    target = np.array([1.0, 1.0, np.sqrt(2.0)])
    scale = float(w @ target) / float(target @ target)
    align = float(np.linalg.norm(w - scale * target))
    hilbert_lower = kf.oracles.hilbert_fusion_bounds(fam.subspaces, fam.weights)[0]

    ok = (not report.is_j_fusion_frame and exit_code == 1
          and self_product <= WITNESS_PRODUCT_TOL
          and align <= WITNESS_ALIGN_TOL
          and hilbert_lower > HILBERT_LOWER_MIN)
    detail = (f"verdict=false, |[w,w]|={self_product:.1e}, "
              f"witness offset={align:.1e}, hilbert C={hilbert_lower:.3f}")
    assert _verdict(capsys, 1, "dim-3 counterexample", ok, detail)


def test_criterion_02_neutral_image_witness(capsys):
    """Transporting the dim-4 eigenline family through the shipped shear
    must reject entry 0 with the neutral witness (1, 1, 0, 0)."""
    parsed = kf.load_problem(FIXTURES / "neutral_image.json")
    fam = kf.family_from_spans([r for r, _ in parsed.entries],
                               [w for _, w in parsed.entries], parsed.space)
    ok = False
    detail = "no rejection raised"
    try:
        kf.apply_operator(parsed.operator, fam)
    except kf.IndefiniteOrNeutralSubspace as exc:
        w = exc.witness / np.linalg.norm(exc.witness)
        target = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
        align = min(np.linalg.norm(w - target), np.linalg.norm(w + target))
        self_product = abs(kf.indefinite_product(w, w, parsed.space))
        ok = (exc.index == 0 and align <= WITNESS_ALIGN_TOL
              and self_product <= NEUTRAL_IMAGE_TOL)
        detail = f"entry 0 rejected, |[w,w]|={self_product:.1e}, offset={align:.1e}"
    assert _verdict(capsys, 2, "neutral-image witness", ok, detail)


def test_criterion_03_reciprocal_dual_bounds(capsys):
    """Canonical-dual optimal bounds vs the reciprocal pattern
    (1/A-, 1/B-, 1/B+, 1/A+).

    The pattern is exact when M+ and M- are J-orthogonal (S then acts on each
    part separately): asserted on the untilted copies of the 200 frame
    configurations.  On the tilted pools it is false, and at least one frame
    must deviate by more than 1e-3.  There the dual bounds of every frame and
    family are asserted to be the algebraic Rayleigh extrema of the pencils
    of a dual built here from S, and every family's span identities
    S^-1 M+/- = (M-/+)^[perp] are asserted to 1e-12.
    """
    untilted_devs = [kf.dual_reciprocity(fr).max_relative_deviation
                     for fr in _untilted_frame_pool()]
    frame_devs = []
    frame_gap = 0.0
    for fr in _frame_pool():
        reciprocity = kf.dual_reciprocity(fr)
        frame_devs.append(reciprocity.max_relative_deviation)
        s = kf.frame_operator(fr).matrix
        dual = kf.partition_by_sign(np.linalg.solve(s, fr.vectors.T).T, fr.space)
        frame_gap = max(frame_gap, _oracle_bound_gap(reciprocity.dual_bounds,
                                                     kf.frame_part_pencils(dual)))
    fusion_devs = []
    fusion_gap = worst_span = 0.0
    for fam, diag in zip(_fusion_pool(), _fusion_dual_diags()):
        fusion_devs.append(diag.max_relative_deviation)
        s = kf.fusion_frame_operator(fam).matrix
        dual = kf.family_from_spans([np.linalg.solve(s, sub.basis).T
                                     for sub in fam.subspaces],
                                    fam.weights, fam.space)
        fusion_gap = max(fusion_gap, _oracle_bound_gap(diag.dual_bounds,
                                                       kf.part_pencils(dual)))
        worst_span = max(worst_span, diag.span_identity_residual)
    untilted_bad = sum(d > RECIPROCITY_REL_TOL for d in untilted_devs)
    frame_bad = sum(d > RECIPROCITY_REL_TOL for d in frame_devs)
    fusion_bad = sum(d > RECIPROCITY_REL_TOL for d in fusion_devs)
    ok = (untilted_bad == 0
          and frame_gap <= ORACLE_ALGEBRAIC_TOL
          and fusion_gap <= ORACLE_ALGEBRAIC_TOL
          and worst_span <= OPERATOR_REL_TOL
          and max(frame_devs) > COUNTEREXAMPLE_MIN)
    detail = (f"untilted frames: {FRAME_POOL_SIZE - untilted_bad}/{FRAME_POOL_SIZE} "
              f"within {RECIPROCITY_REL_TOL:.0e}, worst dev {max(untilted_devs):.1e}; "
              f"dual bounds vs oracle: frames {frame_gap:.1e}, families "
              f"{fusion_gap:.1e}; span identities {worst_span:.1e}; "
              f"tilted frames: {FRAME_POOL_SIZE - frame_bad}/{FRAME_POOL_SIZE} "
              f"within, worst dev {max(frame_devs):.2e}; "
              f"families: {FUSION_POOL_SIZE - fusion_bad}/{FUSION_POOL_SIZE}, "
              f"worst dev {max(fusion_devs):.2e}")
    assert _verdict(capsys, 3, "reciprocal dual bounds", ok, detail)


def test_criterion_04_interlacing_identity(capsys):
    """[S1 f, f] - [S^-1 S1 f, S1 f] equals the same expression for the
    complementary subfamily: all subsets of 50 frames, 20 vectors each."""
    worst = 0.0
    checked = 0
    rng = np.random.default_rng(404)
    for k in range(INTERLACING_FRAMES):
        dim = (2, 3, 4)[k % 3]
        p = 1 + k % (dim - 1)
        cfg = kf.GeneratorConfig(kind="frame", seed=4000 + k, dim=dim,
                                 num_positive=p, num_vectors_positive=p + 1,
                                 num_vectors_negative=dim - p + 1,
                                 rotate=k % 2 == 0)
        frame = kf.gen_frame(cfg)
        m = frame.size
        j = frame.space.symmetry
        per = [s * np.outer(v, v) @ j for s, v in zip(frame.signs, frame.vectors)]
        s_full = sum(per)
        fs = rng.standard_normal((frame.space.dim, INTERLACING_TRIALS))

        def side(part: np.ndarray) -> np.ndarray:
            pf = part @ fs
            direct = np.einsum("ij,ij->j", pf, j @ fs)
            back = np.einsum("ij,ij->j", np.linalg.solve(s_full, pf), j @ pf)
            return direct - back

        sides = [side(sum((per[i] for i in range(m) if mask & (1 << i)),
                          np.zeros_like(s_full)))
                 for mask in range(2 ** m)]
        full_mask = 2 ** m - 1
        for mask in range(2 ** m):
            lhs, rhs = sides[mask], sides[full_mask ^ mask]
            worst = max(worst, float(np.max(np.abs(lhs - rhs) / (1 + np.abs(lhs)))))
            checked += INTERLACING_TRIALS
        # spot-check the public evaluator against the same data
        for _ in range(3):
            subset = [i for i in range(m) if rng.integers(2)]
            f = rng.standard_normal(frame.space.dim)
            lhs, rhs = kf.interlacing_identity(frame, subset, f)
            worst = max(worst, abs(lhs - rhs) / (1 + abs(lhs)))
    ok = worst <= INTERLACING_TOL
    detail = f"{checked} evaluations, worst normalized defect {worst:.1e}"
    assert _verdict(capsys, 4, "interlacing identity", ok, detail)


def test_criterion_05_bound_sandwich(capsys):
    """Closed-form estimates contain the optimal interval on each side for
    all 200 pooled families, and are strictly non-optimal on a fixture."""
    bad = 0
    for report in _fusion_reports():
        bm, am, ap, bp = report.bounds
        bme, ame, ape, bpe = report.bound_estimates
        if not (ape <= ap + SANDWICH_SLACK and bp <= bpe + SANDWICH_SLACK
                and ame >= am - SANDWICH_SLACK and bm >= bme - SANDWICH_SLACK):
            bad += 1
    skewed = _family_from("skewed_pair.json")
    bm, am, ap, bp = kf.optimal_fusion_bounds(skewed)
    bme, ame, ape, bpe = kf.fusion_bound_estimates(skewed)
    strict = ape < ap and bp < bpe and ame > am and bm > bme
    ok = bad == 0 and strict
    detail = (f"{FUSION_POOL_SIZE - bad}/{FUSION_POOL_SIZE} families sandwiched; "
              f"strict gap on skewed_pair: A+={ap:.2f} vs est {ape:.2f}, "
              f"B+={bp:.2f} vs est {bpe:.2f}")
    assert _verdict(capsys, 5, "bound sandwich", ok, detail)


def test_criterion_06_frame_operator_theorem(capsys):
    """S, taken as synthesis times its adjoint, is J-selfadjoint, bijective and
    equals the projector sum sum_i v_i^2 Q_{W_i} that defines it; the
    canonical dual reconstructs: sum_i v_i^2 Q_{S^-1 W_i} S^-1 Q_{W_i} = I.

    The reconstruction is exact because S^-1 Q_{W_i} f lies in S^-1 W_i.  The
    dual family's own operator is not S^-1: its relative distance to S^-1 is
    pinned above 1e-3 and printed.
    """
    worst_sa = worst_factor = worst_recon = worst_dual = 0.0
    min_sigma = np.inf
    for fam, diag in zip(_fusion_pool(), _fusion_dual_diags()):
        s = kf.fusion_frame_operator(fam).matrix
        scale = np.linalg.norm(s, 2)
        worst_sa = max(worst_sa, np.linalg.norm(
            s - kf.j_adjoint_matrix(s, fam.space), 2) / scale)
        projector_sum = sum(v ** 2 * kf.j_projection(sub).matrix
                            for v, sub in zip(fam.weights, fam.subspaces))
        worst_factor = max(worst_factor, np.linalg.norm(s - projector_sum, 2) / scale)
        min_sigma = min(min_sigma, np.linalg.svd(s, compute_uv=False)[-1])
        recon = sum(v ** 2 * kf.j_projection(dual_sub).matrix @ diag.inverse.matrix
                    @ kf.j_projection(sub).matrix
                    for v, sub, dual_sub in zip(fam.weights, fam.subspaces,
                                                diag.dual.subspaces))
        worst_recon = max(worst_recon,
                          np.linalg.norm(recon - np.eye(fam.space.dim), 2))
        worst_dual = max(worst_dual, diag.dual_operator_residual)
    clauses = (worst_sa <= OPERATOR_REL_TOL,
               min_sigma > 0.0,
               worst_factor <= OPERATOR_REL_TOL,
               worst_recon <= DUAL_OPERATOR_REL_TOL,
               worst_dual > COUNTEREXAMPLE_MIN)
    ok = all(clauses)
    detail = (f"selfadjoint {worst_sa:.1e}, sigma_min {min_sigma:.2e}, "
              f"factorization {worst_factor:.1e}, dual reconstruction "
              f"{worst_recon:.1e}; dual operator vs S^-1 {worst_dual:.2e}")
    assert _verdict(capsys, 6, "frame operator theorem", ok, detail)


def test_criterion_07_restricted_projection(capsys):
    """(Q_W - pi_W) pi_M over 500 random pairs W inside uniformly definite M.

    The residual r vanishes exactly when W is J-orthogonal to its Euclidean
    complement in M: asserted at 1e-12 where W = M or the tilt is 0.  On all
    500 pairs r is asserted to lie in [c, c / sigma_min(G_W)] (see
    :func:`_restriction_sandwich`).  Tilted proper W are the pinned
    counterexample: the largest r must exceed 1e-3.
    """
    rng = np.random.default_rng(707)
    exact, proper = [], []
    worst_excess = 0.0
    for i in range(500):
        n = 2 + i % 5
        p = 1 + i % (n - 1)
        q = n - p
        positive = i % 2 == 0
        dom, img = (p, q) if positive else (q, p)
        signs = [1.0] * p + [-1.0] * q
        space = kf.make_krein_space(np.diag(signs))
        tilt = 0.0 if i % 10 == 0 else rng.uniform(0.05, 0.8)
        k0 = rng.standard_normal((img, dom))
        norm = np.linalg.norm(k0, 2)
        if norm > 0:
            k0 *= tilt / norm
        top, bottom = (np.eye(dom), k0) if positive else (k0, np.eye(dom))
        basis = np.vstack([top, bottom])          # n x dom graph basis
        outer = kf.span(basis.T, space)
        k = 1 + int(rng.integers(outer.dim))
        coeffs = rng.standard_normal((outer.dim, k))
        inner = kf.span((outer.basis @ coeffs).T, space)
        r = kf.check_rjpp(inner, outer)
        lower, upper = _restriction_sandwich(inner, outer)
        worst_excess = max(worst_excess, lower - r, r - upper)
        (exact if tilt == 0.0 or inner.dim == outer.dim else proper).append(r)
    exact_bad = sum(r > RESTRICTION_TOL for r in exact)
    proper_over = sum(r > RESTRICTION_TOL for r in proper)
    ok = (exact_bad == 0
          and worst_excess <= RESTRICTION_TOL
          and max(proper) > COUNTEREXAMPLE_MIN)
    detail = (f"W = M or untilted: {len(exact) - exact_bad}/{len(exact)} within "
              f"{RESTRICTION_TOL:.0e}, max {max(exact):.1e}; sandwich on 500, "
              f"worst excess {worst_excess:.1e}; tilted proper W: "
              f"{proper_over}/{len(proper)} over {RESTRICTION_TOL:.0e}, "
              f"max residual {max(proper):.2e}")
    assert _verdict(capsys, 7, "restricted projection identity", ok, detail)


def test_criterion_08_projection_commutation(capsys):
    """Q_V T# = Q_V T# Q_TV over 100 admissible (T, V) pairs."""
    rng = np.random.default_rng(808)
    residuals = []
    attempts = 0
    while len(residuals) < 100 and attempts < 2000:
        attempts += 1
        n = 2 + attempts % 5
        p = 1 + attempts % (n - 1)
        space = kf.make_krein_space(np.diag([1.0] * p + [-1.0] * (n - p)))
        k = 1 + int(rng.integers(n - 1))
        sub_rows = rng.standard_normal((k, n))
        t = np.eye(n) + 0.4 * rng.standard_normal((n, n))
        if np.linalg.cond(t) > 1e4:
            continue
        try:
            sub = kf.span(sub_rows, space)
            residuals.append(kf.projection_commutation_residual(t, sub))
        except kf.KreinFrameError:
            continue  # V or T(V) degenerate: not an admissible instance
    ok = len(residuals) == 100 and max(residuals) <= COMMUTATION_TOL
    detail = f"{len(residuals)} instances, max residual {max(residuals):.1e}"
    assert _verdict(capsys, 8, "projection commutation", ok, detail)


def test_criterion_09_oracle_agreement(capsys):
    """Brute-force recomputation of every gamma, bound, and margin on the
    shipped dim <= 8 fixtures; no CLI invocation may exit with code 3."""
    failures: list[str] = []
    exit_codes: list[int] = []

    def compare(label, fast, slow, tol):
        if abs(fast - slow) > tol * (1 + abs(fast)):
            failures.append(f"{label}: {fast!r} vs {slow!r}")

    for name, is_frame in (("fusion_dim6.json", False), ("skewed_pair.json", False),
                           ("eigen_frame.json", True), ("tilted_frame.json", True)):
        parsed = kf.load_problem(FIXTURES / name)
        if is_frame:
            obj = kf.partition_by_sign(parsed.vectors, parsed.space)
            report = kf.verify_j_frame(obj)
            pencils = kf.frame_part_pencils(obj)
            spans = {"positive": obj.positive_span, "negative": obj.negative_span}
        else:
            obj = kf.family_from_spans([r for r, _ in parsed.entries],
                                       [w for _, w in parsed.entries], parsed.space)
            report = kf.verify_j_fusion_frame(obj)
            pencils = kf.part_pencils(obj)
            spans = {"positive": obj.positive_span, "negative": obj.negative_span}
        slots = {"negative": (0, 1), "positive": (2, 3)}
        for part, (lo_i, hi_i) in slots.items():
            num, den = pencils[part]
            lo, hi = rayleigh_extrema(num, den)
            compare(f"{name}:{part}:lo", report.bounds[lo_i], lo, ORACLE_ALGEBRAIC_TOL)
            compare(f"{name}:{part}:hi", report.bounds[hi_i], hi, ORACLE_ALGEBRAIC_TOL)
            slo, shi = rayleigh_extrema_sampled(num, den, seed=99)
            compare(f"{name}:{part}:lo~", report.bounds[lo_i], slo, ORACLE_SAMPLED_TOL)
            compare(f"{name}:{part}:hi~", report.bounds[hi_i], shi, ORACLE_SAMPLED_TOL)
            span_obj = spans[part]
            cls = kf.classify(span_obj)
            compare(f"{name}:{part}:margin", cls.margin,
                    min_singular_brute(span_obj.gram, seed=99),
                    ORACLE_SAMPLED_TOL)
            compare(f"{name}:{part}:gamma", cls.gamma,
                    gamma_brute(span_obj.gram, seed=99),
                    ORACLE_SAMPLED_TOL)

    cli_runs = [
        ("verify", "fusion_dim6.json"), ("verify", "skewed_pair.json"),
        ("verify", "r3_family.json"), ("verify", "neutral_entry_family.json"),
        ("verify-frame", "eigen_frame.json"), ("verify-frame", "tilted_frame.json"),
        ("bounds", "fusion_dim6.json"), ("bounds", "skewed_pair.json"),
        ("classify", "r3_family.json"), ("classify", "fusion_dim6.json"),
        ("dual", "fusion_dim6.json"), ("dual", "eigen_frame.json"),
        ("transform", "neutral_image.json"),
    ]
    for command, name in cli_runs:
        exit_codes.append(main([command, str(FIXTURES / name)]))
    capsys.readouterr()
    ok = not failures and 3 not in exit_codes
    detail = (f"{len(cli_runs)} CLI runs, exit codes {sorted(set(exit_codes))}; "
              f"{len(failures)} oracle mismatches")
    if failures:
        detail += " first: " + failures[0]
    assert _verdict(capsys, 9, "oracle agreement", ok, detail)


def test_criterion_10_equivalence_theorem(capsys):
    """Family-of-subspaces verdict vs flattened-vector-sequence verdict on
    100 instances with definite entry spans, some planted to fail both."""
    agreements = 0
    planted_both_false = 0
    for i in range(100):
        plant = "deficient" if i % 7 == 3 else "none"
        dim = (3, 4, 5, 6)[i % 4]
        p = 2 if plant == "deficient" else 1 + i % (dim - 1)
        if p >= dim:
            p = dim - 1
        q = dim - p
        cfg = kf.GeneratorConfig(
            kind="fusion", seed=5000 + i, dim=dim, num_positive=p,
            entry_dims_positive=(1,) * p, entry_dims_negative=(1,) * q,
            plant=plant, rotate=i % 3 == 0)
        problem = kf.gen_problem(cfg)
        parsed = kf.parse_problem(problem)
        report = kf.equivalence_check([r for r, _ in parsed.entries],
                                      [w for _, w in parsed.entries],
                                      parsed.space)
        if report.agree:
            agreements += 1
        if plant == "deficient" and not report.fusion_verdict and not report.frame_verdict:
            planted_both_false += 1
    ok = agreements == 100 and planted_both_false > 0
    detail = (f"{agreements}/100 agree, "
              f"{planted_both_false} planted instances fail both conditions")
    assert _verdict(capsys, 10, "frame/fusion equivalence", ok, detail)


def test_criterion_11_angular_operator_relation(capsys):
    """||K||^2 = (1 - gamma)/(1 + gamma) on 100 random maximal uniformly
    positive subspaces; the unsquared reading is reported, not asserted."""
    rng = np.random.default_rng(1111)
    worst = 0.0
    flagged = 0
    example = ""
    for i in range(100):
        n = 2 + i % 7
        p = 1 + i % (n - 1)
        q = n - p
        space = kf.make_krein_space(np.diag([1.0] * p + [-1.0] * q))
        k0 = rng.standard_normal((q, p))
        tilt = rng.uniform(0.0, 0.9)
        norm = np.linalg.norm(k0, 2)
        if norm > 0:
            k0 *= tilt / norm
        rows = np.vstack([np.eye(p), k0]).T
        if i % 2 == 0:
            rot, _ = np.linalg.qr(rng.standard_normal((n, n)))
            space = kf.make_krein_space(rot @ space.symmetry @ rot.T)
            rows = rows @ rot.T
        report = kf.angular_operator(kf.span(rows, space))
        worst = max(worst, report.squared_residual)
        if report.literal_discrepancy:
            flagged += 1
            if not example:
                example = (f"e.g. ||K||={report.norm:.3f} vs unsquared "
                           f"value {report.relation_value:.3f}")
    ok = worst <= ANGULAR_TOL
    detail = (f"max squared-relation residual {worst:.1e}; unsquared reading "
              f"flagged on {flagged}/100 subspaces{', ' + example if example else ''}")
    assert _verdict(capsys, 11, "angular operator relation", ok, detail)


def test_criterion_12_projection_alignment(capsys):
    """Per-entry residuals r (Euclidean route) and r' (Q-restricted route).

    r' is the residual of check 7 with M the entry's part span: asserted at
    1e-12 on the entries that fill their part span, and inside the sandwich
    [c, c / sigma_min(G_W)] on every entry; the largest r' of a proper entry
    must exceed 1e-3 (the pinned counterexample).  r is reported for every
    entry, and the skewed fixture must push r above the detection threshold.
    """
    full, proper = [], []
    worst_excess = 0.0
    entries_reported = 0
    for fam in _fusion_pool():
        entries = kf.check_rps_corollary(fam)
        entries_reported += sum(1 for e in entries if np.isfinite(e.r))
        for entry, sub in zip(entries, fam.subspaces):
            part_span = (fam.positive_span if entry.part == "positive"
                         else fam.negative_span)
            lower, upper = _restriction_sandwich(sub, part_span)
            worst_excess = max(worst_excess, lower - entry.r_prime,
                               entry.r_prime - upper)
            (full if sub.dim == part_span.dim else proper).append(entry.r_prime)
    skewed_entries = kf.check_rps_corollary(_family_from("skewed_pair.json"))
    detector = max(e.r for e in skewed_entries)
    total_entries = sum(f.size for f in _fusion_pool())
    full_bad = sum(r > ALIGNMENT_TOL for r in full)
    proper_over = sum(r > ALIGNMENT_TOL for r in proper)
    ok = (full_bad == 0
          and worst_excess <= ALIGNMENT_TOL
          and max(proper) > COUNTEREXAMPLE_MIN
          and entries_reported == total_entries
          and detector > R_DETECT_MIN)
    detail = (f"full entries: {len(full) - full_bad}/{len(full)} with r' within "
              f"{ALIGNMENT_TOL:.0e}, max {max(full):.1e}; sandwich worst excess "
              f"{worst_excess:.1e}; proper entries: {proper_over}/{len(proper)} "
              f"over {ALIGNMENT_TOL:.0e}, max r'={max(proper):.2e}; r reported for "
              f"{entries_reported}/{total_entries} entries; "
              f"detector fixture max r={detector:.2f}")
    assert _verdict(capsys, 12, "projection alignment residuals", ok, detail)
