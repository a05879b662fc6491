"""Command-line interface.

Subcommands: classify, verify, verify-frame, bounds, dual, transform, gen,
oracle.  Every command writes a canonical JSON report to stdout (and to
``-o PATH`` when given) and a short human summary to stderr.

Exit codes: 0 verdict true / success; 1 verdict false (a report is still
emitted); 2 input error (parse, schema, shapes, infeasible configs);
3 internal inconsistency (fast path and oracle recomputation disagree, or a
stored report does not match its own problem).

For problems of dimension at most eight the verifying commands re-derive
every reported bound, margin, and reduced modulus through the independent
oracle routes and refuse to answer (exit 3) if the fast path disagrees.

The environment variable KREINFRAME_TOLERANCE, when set to a float, becomes
the default for all three tolerance flags.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import oracles
from .core import TOL_DEF, TOL_NUM, TOL_RANK
from .errors import (
    IndefiniteOrNeutralSubspace,
    InputError,
    InternalInconsistency,
    KreinFrameError,
    NeutralVector,
    NonPositiveWeight,
    NotAJFrame,
    NotAJFusionFrame,
    ParseError,
    SchemaError,
)
from .frames import (
    VectorFrame,
    dual_reciprocity,
    frame_part_pencils,
    partition_by_sign,
    verify_j_frame,
)
from .fusion import (
    WeightedSubspaceFamily,
    check_rps_corollary,
    family_from_spans,
    fusion_dual_diagnostics,
    part_pencils,
    verify_j_fusion_frame,
)
from .generator import GeneratorConfig, gen_problem
from .problem_io import (
    ParsedProblem,
    dumps_canonical,
    is_finite_number,
    jsonify,
    load_problem,
    load_report,
    make_report,
    parse_problem,
)
from .subspaces import classify, span, subspace_sum
from .transforms import image_fusion_check

ORACLE_DIM_LIMIT = 8
ALGEBRAIC_TOL = 1e-10
SAMPLED_TOL = 1e-4


@dataclass(frozen=True)
class Params:
    tol_def: float
    tol_num: float
    tol_rank: float
    seed: int
    variant: str

    def as_dict(self) -> dict:
        return {
            "tol_def": self.tol_def,
            "tol_num": self.tol_num,
            "tol_rank": self.tol_rank,
            "seed": self.seed,
            "variant": self.variant,
        }


def _env_tolerance() -> float | None:
    raw = os.environ.get("KREINFRAME_TOLERANCE")
    if raw is None:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise InputError(f"KREINFRAME_TOLERANCE is not a float: {raw!r}") from None
    if not np.isfinite(value) or value <= 0.0:
        raise InputError(f"KREINFRAME_TOLERANCE must be a positive float, got {value!r}")
    return value


def _resolve_params(args: argparse.Namespace) -> Params:
    env = _env_tolerance()
    tol_def = args.tol_def if args.tol_def is not None else (env if env is not None else TOL_DEF)
    tol_num = args.tol_num if args.tol_num is not None else (env if env is not None else TOL_NUM)
    tol_rank = args.tol_rank if args.tol_rank is not None else (env if env is not None else TOL_RANK)
    for name, value in (("--tol-def", tol_def), ("--tol-num", tol_num), ("--tol-rank", tol_rank)):
        if not np.isfinite(value) or value <= 0.0:
            raise InputError(f"{name} must be a positive float, got {value!r}")
    return Params(
        tol_def=tol_def,
        tol_num=tol_num,
        tol_rank=tol_rank,
        seed=args.seed,
        variant=args.variant,
    )


# ---------------------------------------------------------------------------
# oracle cross-checking


def _compare(fast: float, slow: float, tol: float) -> bool:
    return abs(fast - slow) <= tol * (1.0 + abs(fast))


def _oracle_pencil_checks(pencils: dict, bounds, seed: int) -> tuple[list[dict], list[str]]:
    checks = []
    failures = []
    slot_map = {"negative": (0, 1), "positive": (2, 3)}
    for label, (numerator, denominator) in pencils.items():
        lo_slot, hi_slot = slot_map[label]
        fast_pair = (bounds[lo_slot], bounds[hi_slot])
        if fast_pair[0] is None:
            continue
        alg = oracles.rayleigh_extrema(numerator, denominator)
        sam = oracles.rayleigh_extrema_sampled(numerator, denominator, seed=seed)
        for which, fast, a, s in (("lower", fast_pair[0], alg[0], sam[0]),
                                  ("upper", fast_pair[1], alg[1], sam[1])):
            alg_ok = _compare(fast, a, ALGEBRAIC_TOL)
            sam_ok = _compare(fast, s, SAMPLED_TOL)
            checks.append({
                "quantity": f"{label}_{which}_bound",
                "fast": fast,
                "algebraic": a,
                "sampled": s,
                "algebraic_ok": alg_ok,
                "sampled_ok": sam_ok,
            })
            if not (alg_ok and sam_ok):
                failures.append(f"{label} {which} bound: fast={fast!r} algebraic={a!r} sampled={s!r}")
    return checks, failures


def _oracle_part_moduli(parts: dict, seed: int) -> tuple[list[dict], list[str]]:
    checks = []
    failures = []
    for label, (gram, margin, gamma) in parts.items():
        brute_margin = oracles.min_singular_brute(gram, seed=seed)
        brute_gamma = oracles.gamma_brute(gram, seed=seed)
        margin_ok = _compare(margin, brute_margin, SAMPLED_TOL)
        gamma_ok = _compare(gamma, brute_gamma, SAMPLED_TOL)
        checks.append({
            "quantity": f"{label}_span_moduli",
            "margin_fast": margin,
            "margin_sampled": brute_margin,
            "gamma_fast": gamma,
            "gamma_sampled": brute_gamma,
            "margin_ok": margin_ok,
            "gamma_ok": gamma_ok,
        })
        if not (margin_ok and gamma_ok):
            failures.append(f"{label} span moduli: margin {margin!r} vs {brute_margin!r}, "
                            f"gamma {gamma!r} vs {brute_gamma!r}")
    return checks, failures


def _fusion_oracle_block(family: WeightedSubspaceFamily, report, params: Params) -> dict | None:
    if family.space.dim > ORACLE_DIM_LIMIT or not report.is_j_fusion_frame:
        return None
    pencils = part_pencils(family)
    checks, failures = _oracle_pencil_checks(pencils, report.bounds, params.seed)
    parts = {}
    for label, part in (("positive", report.positive), ("negative", report.negative)):
        if part is not None:
            span_obj = family.positive_span if label == "positive" else family.negative_span
            parts[label] = (span_obj.gram, part.classification.margin, part.classification.gamma)
    moduli, more_failures = _oracle_part_moduli(parts, params.seed)
    failures.extend(more_failures)
    if failures:
        raise InternalInconsistency(
            "fast path disagrees with oracle recomputation: " + "; ".join(failures)
        )
    return {"checks": checks + moduli, "agreement": True}


def _frame_oracle_block(frame: VectorFrame, report, params: Params) -> dict | None:
    if frame.space.dim > ORACLE_DIM_LIMIT or not report.is_j_frame:
        return None
    pencils = frame_part_pencils(frame)
    checks, failures = _oracle_pencil_checks(pencils, report.bounds, params.seed)
    parts = {}
    for label, part in (("positive", report.positive), ("negative", report.negative)):
        if part is not None:
            span_obj = frame.positive_span if label == "positive" else frame.negative_span
            parts[label] = (span_obj.gram, part.classification.margin, part.classification.gamma)
    moduli, more_failures = _oracle_part_moduli(parts, params.seed)
    failures.extend(more_failures)
    if failures:
        raise InternalInconsistency(
            "fast path disagrees with oracle recomputation: " + "; ".join(failures)
        )
    return {"checks": checks + moduli, "agreement": True}


# ---------------------------------------------------------------------------
# command cores (shared between the CLI handlers and the `oracle` re-runner)


def _need(parsed: ParsedProblem, what: str):
    if what == "family" and parsed.entries is None:
        raise InputError("problem has no 'family' section, required by this command")
    if what == "vectors" and parsed.vectors is None:
        raise InputError("problem has no 'vectors' section, required by this command")
    if what == "operator" and parsed.operator is None:
        raise InputError("problem has no 'operator' section, required by this command")


def _build_family(parsed: ParsedProblem, params: Params) -> WeightedSubspaceFamily:
    return family_from_spans(
        [rows for rows, _ in parsed.entries],
        [w for _, w in parsed.entries],
        parsed.space,
        tol_def=params.tol_def,
        tol_rank=params.tol_rank,
    )


def _rejection_result(exc: KreinFrameError) -> dict:
    info: dict = {"reason": str(exc)}
    index = getattr(exc, "index", None)
    if index is not None:
        info["index"] = index
    witness = getattr(exc, "witness", None)
    if witness is not None:
        info["witness"] = witness
    if hasattr(exc, "self_product"):
        info["self_product"] = exc.self_product
    return {"verdict": False, "rejected": info}


def run_classify(parsed: ParsedProblem, params: Params) -> tuple[dict, int, list[str]]:
    _need(parsed, "family")
    space = parsed.space
    entries = []
    positive_subs = []
    negative_subs = []
    all_subs = []
    for i, (rows, weight) in enumerate(parsed.entries):
        sub = span(rows, space, params.tol_rank)
        cls = classify(sub, params.tol_def, params.tol_rank)
        all_subs.append(sub)
        if cls.kind.value == "UniformlyPositive":
            positive_subs.append(sub)
        elif cls.kind.value == "UniformlyNegative":
            negative_subs.append(sub)
        entries.append({"index": i, "dim": sub.dim, "weight": weight, "classification": cls})

    def span_block(subs):
        if not subs:
            return None
        total = subspace_sum(subs, params.tol_rank)
        return {"dim": total.dim, "classification": classify(total, params.tol_def, params.tol_rank)}

    result = {
        "signature": [space.num_positive, space.num_negative],
        "entries": entries,
        "positive_span": span_block(positive_subs),
        "negative_span": span_block(negative_subs),
        "complete": oracles.completeness_check(all_subs, space, params.tol_rank),
    }
    if space.dim <= ORACLE_DIM_LIMIT:
        failures = []
        for i, sub in enumerate(all_subs):
            cls = entries[i]["classification"]
            brute_margin = oracles.min_singular_brute(sub.gram, seed=params.seed)
            if not _compare(cls.margin, brute_margin, SAMPLED_TOL):
                failures.append(f"entry {i} margin {cls.margin!r} vs sampled {brute_margin!r}")
        if failures:
            raise InternalInconsistency(
                "fast path disagrees with oracle recomputation: " + "; ".join(failures)
            )
        result["oracle"] = {"agreement": True}
    kinds = ",".join(e["classification"].kind.value for e in entries)
    return result, 0, [f"classified {len(entries)} entries: {kinds}",
                       f"complete={result['complete']}"]


def run_verify(parsed: ParsedProblem, params: Params) -> tuple[dict, int, list[str]]:
    _need(parsed, "family")
    try:
        family = _build_family(parsed, params)
    except (IndefiniteOrNeutralSubspace, NonPositiveWeight) as exc:
        result = _rejection_result(exc)
        return result, 1, [f"verdict=false (rejected: {exc})"]
    report = verify_j_fusion_frame(family, params.tol_def, params.tol_rank)
    rps = check_rps_corollary(family, params.tol_def) if report.is_j_fusion_frame else None
    result = {
        "verdict": report.is_j_fusion_frame,
        "bounds": list(report.bounds),
        "bound_estimates": list(report.bound_estimates),
        "bessel_bound": report.bessel_bound,
        "complete": report.complete,
        "positive": report.positive,
        "negative": report.negative,
        "reasons": list(report.reasons),
        "projection_alignment": rps,
        "oracle": _fusion_oracle_block(family, report, params),
    }
    code = 0 if report.is_j_fusion_frame else 1
    lines = [f"verdict={'true' if report.is_j_fusion_frame else 'false'}"]
    if report.is_j_fusion_frame:
        lines.append(f"bounds={report.bounds}")
    else:
        lines.extend(report.reasons)
    return result, code, lines


def run_verify_frame(parsed: ParsedProblem, params: Params) -> tuple[dict, int, list[str]]:
    _need(parsed, "vectors")
    try:
        frame = partition_by_sign(parsed.vectors, parsed.space, params.tol_def)
    except NeutralVector as exc:
        result = _rejection_result(exc)
        result["rejected"]["witness"] = parsed.vectors[exc.index]
        return result, 1, [f"verdict=false (rejected: {exc})"]
    report = verify_j_frame(frame, params.tol_def, params.tol_rank)
    result = {
        "verdict": report.is_j_frame,
        "signs": [int(s) for s in frame.signs],
        "bounds": list(report.bounds),
        "bound_estimates": list(report.bound_estimates),
        "bessel_bound": report.bessel_bound,
        "condition_number": report.condition_number,
        "positive": report.positive,
        "negative": report.negative,
        "reasons": list(report.reasons),
        "oracle": _frame_oracle_block(frame, report, params),
    }
    code = 0 if report.is_j_frame else 1
    lines = [f"verdict={'true' if report.is_j_frame else 'false'}"]
    if report.is_j_frame:
        lines.append(f"bounds={report.bounds}")
    else:
        lines.extend(report.reasons)
    return result, code, lines


def _sandwich_flags(bounds, estimates, slack: float = 1e-9) -> dict:
    ok = {}
    # estimate interval must contain the optimal interval per part
    pairs = (
        ("negative", bounds[0], bounds[1], estimates[0], estimates[1]),
        ("positive", bounds[2], bounds[3], estimates[2], estimates[3]),
    )
    for label, lo_opt, hi_opt, lo_est, hi_est in pairs:
        if lo_opt is None or lo_est is None:
            continue
        ok[label] = bool(lo_est <= lo_opt + slack and hi_opt <= hi_est + slack)
    return ok


def run_bounds(parsed: ParsedProblem, params: Params) -> tuple[dict, int, list[str]]:
    if parsed.entries is not None:
        try:
            family = _build_family(parsed, params)
        except (IndefiniteOrNeutralSubspace, NonPositiveWeight) as exc:
            return _rejection_result(exc), 1, [f"verdict=false (rejected: {exc})"]
        report = verify_j_fusion_frame(family, params.tol_def, params.tol_rank)
        oracle_block = _fusion_oracle_block(family, report, params)
        kind = "fusion"
        verdict = report.is_j_fusion_frame
    elif parsed.vectors is not None:
        try:
            frame = partition_by_sign(parsed.vectors, parsed.space, params.tol_def)
        except NeutralVector as exc:
            return _rejection_result(exc), 1, [f"verdict=false (rejected: {exc})"]
        report = verify_j_frame(frame, params.tol_def, params.tol_rank)
        oracle_block = _frame_oracle_block(frame, report, params)
        kind = "frame"
        verdict = report.is_j_frame
    else:
        raise InputError("problem has neither 'family' nor 'vectors'")
    result = {
        "kind": kind,
        "verdict": verdict,
        "bounds": list(report.bounds),
        "bound_estimates": list(report.bound_estimates),
        "estimates_contain_optimal": _sandwich_flags(report.bounds, report.bound_estimates),
        "reasons": list(report.reasons),
        "oracle": oracle_block,
    }
    code = 0 if verdict else 1
    return result, code, [f"{kind} bounds={report.bounds} estimates={report.bound_estimates}"]


def run_dual(parsed: ParsedProblem, params: Params) -> tuple[dict, int, list[str]]:
    if parsed.entries is not None:
        try:
            family = _build_family(parsed, params)
            diag = fusion_dual_diagnostics(family, params.tol_def)
        except (IndefiniteOrNeutralSubspace, NonPositiveWeight, NotAJFusionFrame) as exc:
            return _rejection_result(exc), 1, [f"verdict=false (rejected: {exc})"]
        dual_entries = [{
            "basis": sub.basis.T,
            "weight": float(w),
            "sign": int(s),
        } for sub, w, s in zip(diag.dual.subspaces, diag.dual.weights, diag.dual.signs)]
        result = {
            "kind": "fusion",
            "verdict": True,
            "dual_entries": dual_entries,
            "original_bounds": list(diag.original_bounds),
            "dual_bounds": list(diag.dual_bounds),
            "reciprocal_expected": list(diag.reciprocal_expected),
            "max_relative_deviation": diag.max_relative_deviation,
            "dual_operator_residual": diag.dual_operator_residual,
            "span_identity_residual": diag.span_identity_residual,
        }
        lines = [
            f"dual bounds={diag.dual_bounds}",
            f"reciprocal expectation={diag.reciprocal_expected}",
            f"max relative deviation={diag.max_relative_deviation:.3e}",
            f"dual operator residual={diag.dual_operator_residual:.3e}",
        ]
        return result, 0, lines
    if parsed.vectors is not None:
        try:
            frame = partition_by_sign(parsed.vectors, parsed.space, params.tol_def)
            rep = dual_reciprocity(frame, params.tol_def)
        except (NeutralVector, NotAJFrame) as exc:
            return _rejection_result(exc), 1, [f"verdict=false (rejected: {exc})"]
        result = {
            "kind": "frame",
            "verdict": True,
            "dual_vectors": rep.dual.vectors,
            "original_bounds": list(rep.original_bounds),
            "dual_bounds": list(rep.dual_bounds),
            "reciprocal_expected": list(rep.reciprocal_expected),
            "max_relative_deviation": rep.max_relative_deviation,
            "dual_operator_residual": rep.dual_operator_residual,
        }
        lines = [
            f"dual bounds={rep.dual_bounds}",
            f"reciprocal expectation={rep.reciprocal_expected}",
            f"max relative deviation={rep.max_relative_deviation:.3e}",
            f"dual operator residual={rep.dual_operator_residual:.3e}",
        ]
        return result, 0, lines
    raise InputError("problem has neither 'family' nor 'vectors'")


def run_transform(parsed: ParsedProblem, params: Params) -> tuple[dict, int, list[str]]:
    _need(parsed, "family")
    _need(parsed, "operator")
    try:
        family = _build_family(parsed, params)
    except (IndefiniteOrNeutralSubspace, NonPositiveWeight) as exc:
        return _rejection_result(exc), 1, [f"verdict=false (rejected: {exc})"]
    check = image_fusion_check(parsed.operator, family, params.tol_def, params.tol_rank)
    entries = [{
        "index": e.index,
        "input_kind": e.input_kind,
        "image_kind": e.image_kind,
        "input_dim": e.input_dim,
        "image_dim": e.image_dim,
        "sign_preserved": e.sign_preserved,
    } for e in check.preservation.entries]
    rejection = None
    if check.rejected_entry is not None:
        witness = check.rejection_witness
        j = parsed.space.symmetry
        rejection = {
            "index": check.rejected_entry,
            "witness": witness,
            "self_product": None if witness is None else float(witness @ j @ witness),
        }
    result = {
        "verdict": check.image_verdict,
        "sufficient_condition": check.sufficient,
        "decomposition_original_partition": check.decomposition_original,
        "decomposition_image_partition": check.decomposition_image,
        "rejected": rejection,
        "entries": entries,
        "image_bounds": list(check.image_report.bounds) if check.image_report else None,
    }
    code = 0 if check.image_verdict else 1
    lines = [
        f"image verdict={'true' if check.image_verdict else 'false'}",
        f"sufficient hypotheses={'true' if check.sufficient else 'false'}",
        f"decomposition original/image="
        f"{check.decomposition_original}/{check.decomposition_image}",
    ]
    if rejection is not None:
        lines.append(f"entry {rejection['index']} image is not uniformly definite")
    return result, code, lines


COMMAND_CORES = {
    "classify": run_classify,
    "verify": run_verify,
    "verify-frame": run_verify_frame,
    "bounds": run_bounds,
    "dual": run_dual,
    "transform": run_transform,
}


def run_oracle(report_doc: dict) -> tuple[dict, int, list[str]]:
    command = report_doc["command"]
    if command not in COMMAND_CORES:
        raise InputError(f"cannot re-derive reports for command {command!r}")
    stored_params = report_doc["parameters"]
    for key in ("tol_def", "tol_num", "tol_rank", "seed", "variant"):
        if key not in stored_params:
            raise SchemaError(f"missing parameter {key!r}", "$.parameters")
    for key in ("tol_def", "tol_num", "tol_rank"):
        if not (is_finite_number(stored_params[key]) and stored_params[key] > 0):
            raise SchemaError("expected a positive finite number", f"$.parameters.{key}")
    if not is_finite_number(stored_params["seed"]):
        raise SchemaError("expected a finite number", "$.parameters.seed")
    params = Params(
        tol_def=float(stored_params["tol_def"]),
        tol_num=float(stored_params["tol_num"]),
        tol_rank=float(stored_params["tol_rank"]),
        seed=int(stored_params["seed"]),
        variant=str(stored_params["variant"]),
    )
    parsed = parse_problem(report_doc["problem"], "$.problem")
    fresh_result, _, _ = COMMAND_CORES[command](parsed, params)
    diffs: list[str] = []
    _compare_trees(report_doc["result"], jsonify(fresh_result), "result", diffs)
    agreement = not diffs
    result = {
        "checked_command": command,
        "agreement": agreement,
        "differences": diffs,
    }
    if not agreement:
        raise InternalInconsistency(
            "stored report disagrees with recomputation: " + "; ".join(diffs[:10])
        )
    return result, 0, [f"recomputed {command}: agreement"]


def _compare_trees(stored, fresh, path: str, diffs: list[str]) -> None:
    if isinstance(stored, dict) and isinstance(fresh, dict):
        for key in sorted(set(stored) | set(fresh)):
            if key not in stored or key not in fresh:
                diffs.append(f"{path}.{key}: present on one side only")
                continue
            _compare_trees(stored[key], fresh[key], f"{path}.{key}", diffs)
        return
    if isinstance(stored, list) and isinstance(fresh, list):
        if len(stored) != len(fresh):
            diffs.append(f"{path}: length {len(stored)} vs {len(fresh)}")
            return
        for i, (a, b) in enumerate(zip(stored, fresh)):
            _compare_trees(a, b, f"{path}[{i}]", diffs)
        return
    if isinstance(stored, bool) or isinstance(fresh, bool):
        if stored is not fresh:
            diffs.append(f"{path}: {stored!r} vs {fresh!r}")
        return
    if isinstance(stored, (int, float)) and isinstance(fresh, (int, float)):
        if not (is_finite_number(stored) and _compare(float(stored), float(fresh), 1e-9)):
            diffs.append(f"{path}: {stored!r} vs {fresh!r}")
        return
    if stored != fresh:
        diffs.append(f"{path}: {stored!r} vs {fresh!r}")


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kreinframes",
        description="Verify, bound, and transform frames of subspaces in "
                    "indefinite inner product spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-def", type=float, default=None,
                        help="definiteness decision tolerance (default 1e-10)")
    common.add_argument("--tol-num", type=float, default=None,
                        help="numerical residual tolerance (default 1e-9)")
    common.add_argument("--tol-rank", type=float, default=None,
                        help="relative rank cutoff (default 1e-10)")
    common.add_argument("--seed", type=int, default=0, help="seed for sampled oracles")
    common.add_argument("--variant", choices=["qproj", "paper"], default="qproj",
                        help="analysis/operator variant (default qproj)")
    common.add_argument("-o", "--output", default=None, help="also write the report here")

    for name, help_text in (
        ("classify", "classify each family entry and the two sign spans"),
        ("verify", "verify a weighted family as a fusion frame"),
        ("verify-frame", "verify a vector sequence as a frame"),
        ("bounds", "optimal bounds and singular-value estimates"),
        ("dual", "canonical dual and reciprocity diagnostics"),
        ("transform", "push a family through an operator and check the image"),
    ):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("problem", help="problem JSON file")

    p = sub.add_parser("oracle", parents=[common],
                       help="re-derive a stored report and compare")
    p.add_argument("problem", help="report JSON file", metavar="report")

    g = sub.add_parser("gen", parents=[common], help="generate a seeded problem instance")
    g.add_argument("--kind", choices=["fusion", "frame"], default="fusion")
    g.add_argument("--n", type=int, default=4, help="ambient dimension")
    g.add_argument("--p", type=int, default=2, help="positive signature")
    g.add_argument("--dims-pos", default="", help="comma-separated positive entry dims")
    g.add_argument("--dims-neg", default="", help="comma-separated negative entry dims")
    g.add_argument("--num-pos", type=int, default=0, help="positive vector count (frame kind)")
    g.add_argument("--num-neg", type=int, default=0, help="negative vector count (frame kind)")
    g.add_argument("--tilt", type=float, default=0.5, help="graph contraction norm in [0,1)")
    g.add_argument("--weight-min", type=float, default=0.5)
    g.add_argument("--weight-max", type=float, default=2.0)
    g.add_argument("--plant", choices=["none", "neutral_entry", "deficient"], default="none")
    g.add_argument("--rotate", action="store_true", help="conjugate by a random rotation")
    return parser


def _parse_dims(raw: str) -> tuple[int, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    try:
        return tuple(int(x) for x in raw.split(","))
    except ValueError:
        raise InputError(f"expected comma-separated integers, got {raw!r}") from None


def _emit(doc: dict, output: str | None) -> None:
    text = dumps_canonical(doc)
    sys.stdout.write(text)
    if output:
        Path(output).write_text(text, encoding="utf-8")


def _summarize(lines: list[str]) -> None:
    for line in lines:
        print(line, file=sys.stderr)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process and reused by every call of :func:`main`."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (None, 0) else 2

    try:
        if args.command == "gen":
            params = _resolve_params(args)
            cfg = GeneratorConfig(
                kind=args.kind,
                seed=args.seed,
                dim=args.n,
                num_positive=args.p,
                entry_dims_positive=_parse_dims(args.dims_pos),
                entry_dims_negative=_parse_dims(args.dims_neg),
                num_vectors_positive=args.num_pos,
                num_vectors_negative=args.num_neg,
                tilt=args.tilt,
                weight_low=args.weight_min,
                weight_high=args.weight_max,
                plant=args.plant,
                rotate=args.rotate,
            )
            problem = gen_problem(cfg)
            _emit(problem, args.output)
            _summarize([f"generated {args.kind} problem (seed={args.seed}, dim={args.n}, "
                        f"plant={args.plant})"])
            return 0

        params = _resolve_params(args)
        if args.command == "oracle":
            report_doc = load_report(args.problem)
            result, code, lines = run_oracle(report_doc)
            out = make_report("oracle", report_doc["problem"], params.as_dict(), result)
            _emit(out, args.output)
            _summarize(lines)
            return code

        parsed = load_problem(args.problem)
        result, code, lines = COMMAND_CORES[args.command](parsed, params)
        report = make_report(args.command, parsed.document, params.as_dict(), result)
        _emit(report, args.output)
        _summarize(lines)
        return code

    except (ParseError, SchemaError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
