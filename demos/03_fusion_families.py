"""Walkthrough: weighted subspace families — the dim-3 counterexample,
bound sandwiches, canonical duals with their diagnostics, per-entry
projection-alignment residuals, and the flattening equivalence.
"""

from pathlib import Path

import numpy as np

import kreinframes as kf

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def section(title: str) -> None:
    print()
    print(f"--- {title} ---")


def load_family(name: str) -> kf.WeightedSubspaceFamily:
    parsed = kf.load_problem(FIXTURES / name)
    return kf.family_from_spans([rows for rows, _ in parsed.entries],
                                [w for _, w in parsed.entries], parsed.space)


def main() -> None:
    section("a classical fusion frame that fails the indefinite test")
    fam = load_family("r3_family.json")
    lo, hi = kf.oracles.hilbert_fusion_bounds(fam.subspaces, fam.weights)
    print(f"associated-Hilbert fusion bounds: C={lo:.4f}, D={hi:.4f} "
          "(a genuine fusion frame)")
    report = kf.verify_j_fusion_frame(fam)
    print(f"indefinite verdict: {report.is_j_fusion_frame}")
    w = report.positive.classification.witness
    print(f"positive span is {report.positive.classification.kind.value}; "
          f"witness w = {np.round(w, 6)} with [w, w] = "
          f"{kf.indefinite_product(w, w, fam.space):.2e}")

    section("optimal bounds vs closed-form estimates (strict gap)")
    skewed = load_family("skewed_pair.json")
    print(f"optimal:   {tuple(round(b, 4) for b in kf.optimal_fusion_bounds(skewed))}")
    print(f"estimates: {tuple(round(b, 4) for b in kf.fusion_bound_estimates(skewed))}")

    section("per-entry projection-alignment residuals")
    for name in ("skewed_pair.json", "fusion_dim6.json"):
        entries = kf.check_rps_corollary(load_family(name))
        print(f"{name}:")
        for e in entries:
            print(f"  entry {e.index} ({e.part}): r = {e.r:.4f}, r' = {e.r_prime:.4f}")
    print("(r compares Q against the Euclidean projection on the part span;")
    print(" r' restricts the comparison to the product projection's action.")
    print(" Even r' is nonzero once distinct tilted entries overlap.)")

    section("canonical dual of a verified family")
    dim6 = load_family("fusion_dim6.json")
    diag = kf.fusion_dual_diagnostics(dim6)
    print(f"original bounds: {tuple(round(b, 4) for b in diag.original_bounds)}")
    print(f"dual bounds:     {tuple(round(b, 4) for b in diag.dual_bounds)}")
    print(f"span identity    S^-1 M+- = (M-+)^[perp] residual: "
          f"{diag.span_identity_residual:.2e}")
    print(f"dual family operator vs S^-1 residual: "
          f"{diag.dual_operator_residual:.3f}")
    print("(the span identity is exact; the operator identity is not)")

    section("analysis/synthesis adjointness")
    print(f"adjoint identity residual {kf.adjoint_identity_residual(dim6):.2e}")

    section("flattening a family into a vector system")
    rep = kf.equivalence_check([s.basis.T for s in dim6.subspaces],
                               list(dim6.weights), dim6.space)
    print(f"family verdict: {rep.fusion_verdict}, "
          f"flattened-vector verdict: {rep.frame_verdict}, "
          f"agree: {rep.agree}")


if __name__ == "__main__":
    main()
