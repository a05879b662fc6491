"""Command-line interface.

Subcommands: classify, verify, verify-frame, bounds, dual, transform, gen,
oracle.  Every command writes a JSON report to stdout (and to ``-o PATH``
when given) and a short human summary to stderr.  The report echoes the
input file's own text as its problem; the rest of it is canonical.

Exit codes: 0 verdict true / success; 1 verdict false (a report is still
emitted); 2 input error (parse, schema, shapes, infeasible configs) or
output that cannot be written (closed stdout, broken pipe, ``-o`` path);
3 internal inconsistency (fast path and oracle recomputation disagree by more
than the rounding error of the quantity allows, or a stored report does not
match its own problem).  Valid input that is merely ill-conditioned does not
exit 3.

Every verifying command whose verdict is true checks each reported bound,
and the margin and reduced modulus of each part span, by an inertia bracket
(:func:`kreinframes.oracles.bracket_lowest`): two Cholesky factorizations
of the shifted pencil decide whether the number is within its rounding
width of the extreme eigenvalue it claims to be, at any dimension and
without randomness.  ``classify`` checks each entry's margin against the
singular values of its Gram.  A failed check exits 3.

The environment variable KREINFRAME_TOLERANCE, when set to a float, becomes
the default for both tolerance flags; ``gen`` takes neither.
"""

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import NamedTuple, NoReturn

import numpy as np

from . import oracles
from ._numeric import stacked
from .core import TOL_DEF, TOL_RANK
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
from .frames import dual_reciprocity, partition_by_sign, verify_j_frame
from .fusion import (
    WeightedSubspaceFamily,
    _rps_entries,
    family_from_spans,
    fusion_dual_diagnostics,
    verify_j_fusion_frame,
)
from .problem_io import (
    ParsedProblem,
    dumps_canonical,
    is_finite_number,
    jsonify,
    load_problem,
    load_report,
    make_report,
)
from .subspaces import (
    SubspaceKind,
    _classify_all,
    _spanning_columns,
    _spans,
    classify,
)
from .transforms import image_fusion_check

# Relative tolerance of an ``oracle`` re-run on every stored number whose
# rounding error has no larger bound (see :func:`run_oracle`), and the
# largest it allows any number.
ORACLE_TOL = 1e-9
ORACLE_TOL_CAP = 1e-6
# Multiple of eps (beta + |lam|) / margin within which ``oracle`` holds a
# stored bound (see :func:`_bound_tolerances`); over 1040 generated problems
# (n = 4..256, tilts up to 1 - 1e-7) an SVD and a pivoted-QR basis of each
# part span moved no bound by more than 17.4 times it.
BOUND_ROUNDING_FACTOR = 64.0
# The slots of the bound four-tuple (B-, A-, A+, B+) that each part fills.
BOUND_SLOTS = {"negative": (0, 1), "positive": (2, 3)}
EPS = float(np.finfo(float).eps)


class Params(NamedTuple):
    """The parameters of a command, written into its report in this order."""

    tol_def: float
    tol_rank: float


class Outcome(NamedTuple):
    """What a command core returns: the ``result`` of the report, the exit
    code and the summary lines, and the relative tolerance at which ``oracle``
    compares each stored number, by its path such as ``result.bounds[2]``,
    whose rounding error may exceed ``ORACLE_TOL``."""

    result: dict
    code: int
    lines: list[str]
    tolerances: dict[str, float] | None = None


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
    tol_rank = args.tol_rank if args.tol_rank is not None else (env if env is not None else TOL_RANK)
    for name, value in (("--tol-def", tol_def), ("--tol-rank", tol_rank)):
        if not np.isfinite(value) or value <= 0.0:
            raise InputError(f"{name} must be a positive float, got {value!r}")
    return Params(tol_def=tol_def, tol_rank=tol_rank)


# ---------------------------------------------------------------------------
# oracle cross-checking


def _compare(fast: float, slow: float, tol: float) -> bool:
    return abs(fast - slow) <= tol * (1.0 + abs(fast))


def _bound_width(lam: float, beta: float, margin: float) -> float:
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


def _modulus_width(value: float) -> float:
    """The rounding width of a margin or reduced modulus ``value`` of the Gram
    of an orthonormal basis, whose norm is at most 1: ``BOUND_ROUNDING_FACTOR
    eps (1 + value)``."""
    return BOUND_ROUNDING_FACTOR * EPS * (1.0 + value)


def _oracle_block(report, verdict: bool, tol_rank: float) -> dict | None:
    """Inertia brackets (:func:`oracles.bracket_lowest`) of what a verified
    frame or family reports about its parts: each bound, as the lower or
    upper extreme of its part pencil ``(A, G)`` within :func:`_bound_width`,
    and the margin and reduced modulus of each part span, as the lowest
    eigenvalue of ``(G, I)`` within :func:`_modulus_width` (``G`` is the
    signed Gram, so it is positive definite).  The reduced modulus skips
    eigenvalues up to ``tol_rank ||G||``, and ``||G|| <= 1``, so it is
    bracketed only where the margin exceeds ``tol_rank``.  Returns the
    half-width of each bracket by quantity; a bracket that fails raises
    :class:`InternalInconsistency`."""
    if not verdict:
        return None
    checks = {}
    for label, (numerator, denominator) in report.pencils.items():
        part = getattr(report, label)
        for which, sign, lam in (("lower", 1.0, part.ratio_range[0]),
                                 ("upper", -1.0, part.ratio_range[1])):
            quantity = f"{label}_{which}_bound"
            delta = _bound_width(lam, report.bessel_bound, part.classification.margin)
            oracles.bracket_lowest(sign * numerator, denominator, sign * lam, delta, quantity)
            checks[quantity] = delta
        identity = np.eye(denominator.shape[0])
        moduli = ("margin", "gamma") if part.classification.margin > tol_rank else ("margin",)
        for name in moduli:
            quantity = f"{label}_span_{name}"
            value = getattr(part.classification, name)
            delta = _modulus_width(value)
            oracles.bracket_lowest(denominator, identity, value, delta, quantity)
            checks[quantity] = delta
    return {"checks": checks, "agreement": True}


def _held(error: float) -> float:
    """The ``oracle`` tolerance of a number whose first-order rounding error,
    relative to ``1 + |x|``, is ``error``: never below ``ORACLE_TOL``, and
    never above ``ORACLE_TOL_CAP``, since past that ``oracle`` would rather
    refuse a number it cannot tell from noise than accept one far off."""
    return min(ORACLE_TOL_CAP, max(ORACLE_TOL, error))


def _bound_tolerances(key: str, report) -> dict[str, float]:
    """``oracle`` tolerances of the bounds that ``report`` computed, stored at
    ``result.<key>`` and, where a result repeats them per part, at
    ``result.<part>.ratio_range``.

    Each is held to its rounding width (:func:`_bound_width`) relative to
    ``1 + |lam|``.
    """
    tols = {}
    for label, part in (("negative", report.negative), ("positive", report.positive)):
        if part is None or part.ratio_range is None:
            continue
        margin = part.classification.margin
        for i, (slot, lam) in enumerate(zip(BOUND_SLOTS[label], part.ratio_range)):
            width = _bound_width(lam, report.bessel_bound, margin)
            tols[f"result.{label}.ratio_range[{i}]"] = tols[f"result.{key}[{slot}]"] = _held(
                width / (1.0 + abs(lam)))
    return tols


def _verify_tolerances(report, family: WeightedSubspaceFamily, rps) -> dict[str, float]:
    """``oracle`` tolerances of a ``verify`` result: the bounds, and each
    r' at its first-order rounding error n eps / margin, with margin the
    Gram margin of the entry (r' of an entry that fills a barely definite
    part span is rounding noise of that size)."""
    tols = _bound_tolerances("bounds", report)
    noise = family.space.dim * EPS
    for i, cls in enumerate(family.entry_classifications if rps else ()):
        tols[f"result.projection_alignment[{i}].r_prime"] = _held(noise / cls.margin)
    return tols


# ---------------------------------------------------------------------------
# command cores (shared between the CLI handlers and the `oracle` re-runner)


def _need(parsed: ParsedProblem, what: str):
    if getattr(parsed, "entries" if what == "family" else what) is None:
        raise InputError(f"problem has no '{what}' section, required by this command")


# Refusals of an input at construction, or of a system that must verify (``dual``)
REFUSALS = (IndefiniteOrNeutralSubspace, NonPositiveWeight, NeutralVector, NotAJFrame,
            NotAJFusionFrame)


def _system(parsed: ParsedProblem, params: Params, section: str | None = None):
    """The kind (``"fusion"`` or ``"frame"``) and the family or frame of a
    problem, as ``section`` (``"family"`` or ``"vectors"``) asks; without it,
    the family where the problem has one."""
    if section is None and parsed.entries is None and parsed.vectors is None:
        raise InputError("problem has neither 'family' nor 'vectors'")
    section = section or ("family" if parsed.entries is not None else "vectors")
    _need(parsed, section)
    if section == "vectors":
        return "frame", partition_by_sign(parsed.vectors, parsed.space, params.tol_def)
    return "fusion", family_from_spans(
        [rows for rows, _ in parsed.entries],
        [w for _, w in parsed.entries],
        parsed.space,
        tol_def=params.tol_def,
        tol_rank=params.tol_rank,
    )


def _rejection(exc: KreinFrameError) -> Outcome:
    """The output of a command whose input was refused: the reason, and the
    ``index``, ``witness`` and ``self_product`` that the refusal carries."""
    info: dict = {"reason": str(exc)}
    for key in ("index", "witness", "self_product"):
        if getattr(exc, key, None) is not None:
            info[key] = getattr(exc, key)
    return Outcome({"verdict": False, "rejected": info}, 1, [f"verdict=false (rejected: {exc})"])


def _refusing(core):
    """The command ``core``, with one of ``REFUSALS`` answered by :func:`_rejection`."""
    @functools.wraps(core)
    def run(parsed: ParsedProblem, params: Params) -> Outcome:
        try:
            return core(parsed, params)
        except REFUSALS as exc:
            return _rejection(exc)
    return run


def run_classify(parsed: ParsedProblem, params: Params) -> Outcome:
    _need(parsed, "family")
    space = parsed.space
    all_subs = _spans([_spanning_columns(rows, space) for rows, _ in parsed.entries],
                      space, params.tol_rank)
    classes = _classify_all(all_subs, params.tol_def, params.tol_rank)
    entries = [{"index": i, "dim": sub.dim, "weight": weight, "classification": cls}
               for i, (sub, cls, (_, weight)) in enumerate(zip(all_subs, classes, parsed.entries))]

    # the uniformly definite entries grouped by sign, at unit weight; the rest in neither class
    sign = {SubspaceKind.UNIFORMLY_POSITIVE: 1, SubspaceKind.UNIFORMLY_NEGATIVE: -1}
    spans = WeightedSubspaceFamily(space, tuple(all_subs), np.ones(len(all_subs)),
                                   np.array([sign.get(cls.kind, 0) for cls in classes]),
                                   tuple(classes))._class_spans(params.tol_rank)

    def span_block(label: str):
        if label not in spans:
            return None
        total = spans[label][1]
        return {"dim": total.dim, "classification": classify(total, params.tol_def, params.tol_rank)}

    result = {
        "signature": [space.num_positive, space.num_negative],
        "entries": entries,
        "positive_span": span_block("positive"),
        "negative_span": span_block("negative"),
        "complete": oracles.completeness_check(all_subs, space, params.tol_rank),
    }
    checks = {}
    smallest = stacked(lambda g: np.linalg.svd(g, compute_uv=False)[..., -1],
                       [sub.gram for sub in all_subs])
    for i, (cls, sigma) in enumerate(zip(classes, smallest)):
        delta = _modulus_width(cls.margin)
        if abs(float(sigma) - cls.margin) > delta:
            raise InternalInconsistency(
                f"entry_{i}_margin {cls.margin!r}: the smallest singular value of the "
                f"entry's Gram is {float(sigma)!r}, more than {delta!r} away")
        checks[f"entry_{i}_margin"] = delta
    result["oracle"] = {"checks": checks, "agreement": True}
    kinds = ",".join(e["classification"].kind.value for e in entries)
    return Outcome(result, 0, [f"classified {len(entries)} entries: {kinds}",
                               f"complete={result['complete']}"])


@_refusing
def run_verify(parsed: ParsedProblem, params: Params) -> Outcome:
    _, family = _system(parsed, params, "family")
    report = verify_j_fusion_frame(family, params.tol_def, params.tol_rank)
    rps = (_rps_entries(family, params.tol_def, params.tol_rank) if report.is_j_fusion_frame
           else None)
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
        "oracle": _oracle_block(report, report.is_j_fusion_frame, params.tol_rank),
    }
    return Outcome(result, 0 if report.is_j_fusion_frame else 1,
                   _verdict_lines(report.is_j_fusion_frame, report),
                   _verify_tolerances(report, family, rps))


@_refusing
def run_verify_frame(parsed: ParsedProblem, params: Params) -> Outcome:
    _, frame = _system(parsed, params, "vectors")
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
        "oracle": _oracle_block(report, report.is_j_frame, params.tol_rank),
    }
    return Outcome(result, 0 if report.is_j_frame else 1,
                   _verdict_lines(report.is_j_frame, report),
                   _bound_tolerances("bounds", report))


def _verdict_lines(verdict: bool, report) -> list[str]:
    """The summary of a verification: the bounds, or the reasons it failed."""
    lines = [f"verdict={'true' if verdict else 'false'}"]
    if verdict:
        lines.append(f"bounds={report.bounds}")
    else:
        lines.extend(report.reasons)
    return lines


def _sandwich_flags(report) -> dict:
    """Whether the estimate interval of each part with bounds contains its
    optimal interval, each bound taken within its own rounding width
    (:func:`_bound_width`): on an untilted part the two intervals are equal
    in exact arithmetic, so a fixed slack would decide by the scale alone."""
    ok = {}
    for label, (lo_slot, hi_slot) in BOUND_SLOTS.items():
        lo, hi = report.bounds[lo_slot], report.bounds[hi_slot]
        lo_est, hi_est = report.bound_estimates[lo_slot], report.bound_estimates[hi_slot]
        if lo is None or lo_est is None:
            continue
        margin = getattr(report, label).classification.margin
        ok[label] = bool(lo_est <= lo + _bound_width(lo, report.bessel_bound, margin)
                         and hi <= hi_est + _bound_width(hi, report.bessel_bound, margin))
    return ok


@_refusing
def run_bounds(parsed: ParsedProblem, params: Params) -> Outcome:
    kind, system = _system(parsed, params)
    verify = verify_j_fusion_frame if kind == "fusion" else verify_j_frame
    report = verify(system, params.tol_def, params.tol_rank)
    verdict = report.is_j_fusion_frame if kind == "fusion" else report.is_j_frame
    result = {
        "kind": kind,
        "verdict": verdict,
        "bounds": list(report.bounds),
        "bound_estimates": list(report.bound_estimates),
        "estimates_contain_optimal": _sandwich_flags(report),
        "reasons": list(report.reasons),
        "oracle": _oracle_block(report, verdict, params.tol_rank),
    }
    return Outcome(result, 0 if verdict else 1,
                   [f"{kind} bounds={report.bounds} estimates={report.bound_estimates}"],
                   _bound_tolerances("bounds", report))


def _dual_output(head: dict, rep, tail: dict) -> Outcome:
    """The ``dual`` output: ``head``, the bound comparison that frame and fusion
    duals share (``rep`` is their diagnostics report), then ``tail``."""
    result = {
        **head,
        "original_bounds": list(rep.original_bounds),
        "dual_bounds": list(rep.dual_bounds),
        "reciprocal_expected": list(rep.reciprocal_expected),
        "max_relative_deviation": rep.max_relative_deviation,
        "dual_operator_residual": rep.dual_operator_residual,
        **tail,
    }
    lines = [
        f"dual bounds={rep.dual_bounds}",
        f"reciprocal expectation={rep.reciprocal_expected}",
        f"max relative deviation={rep.max_relative_deviation:.3e}",
        f"dual operator residual={rep.dual_operator_residual:.3e}",
    ]
    return Outcome(result, 0, lines)


@_refusing
def run_dual(parsed: ParsedProblem, params: Params) -> Outcome:
    kind, system = _system(parsed, params)
    if kind == "fusion":
        diag = fusion_dual_diagnostics(system, params.tol_def, params.tol_rank)
        dual_entries = [{
            "basis": sub.basis.T,
            "weight": float(w),
            "sign": int(s),
        } for sub, w, s in zip(diag.dual.subspaces, diag.dual.weights, diag.dual.signs)]
        return _dual_output({"kind": "fusion", "verdict": True, "dual_entries": dual_entries},
                            diag, {"span_identity_residual": diag.span_identity_residual})
    rep = dual_reciprocity(system, params.tol_def, params.tol_rank)
    return _dual_output({"kind": "frame", "verdict": True, "dual_vectors": rep.dual.vectors},
                        rep, {})


@_refusing
def run_transform(parsed: ParsedProblem, params: Params) -> Outcome:
    _need(parsed, "family")
    _need(parsed, "operator")
    _, family = _system(parsed, params, "family")
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
    lines = [
        f"image verdict={'true' if check.image_verdict else 'false'}",
        f"sufficient hypotheses={'true' if check.sufficient else 'false'}",
        f"decomposition original/image="
        f"{check.decomposition_original}/{check.decomposition_image}",
    ]
    if rejection is not None:
        lines.append(f"entry {rejection['index']} image is not uniformly definite")
    tolerances = (_bound_tolerances("image_bounds", check.image_report)
                  if check.image_report else None)
    return Outcome(result, 0 if check.image_verdict else 1, lines, tolerances)


COMMAND_CORES = {
    "classify": run_classify,
    "verify": run_verify,
    "verify-frame": run_verify_frame,
    "bounds": run_bounds,
    "dual": run_dual,
    "transform": run_transform,
}


def run_oracle(report_doc: dict, parsed: ParsedProblem) -> Outcome:
    """Re-derive the result of a validated report; ``parsed`` is its embedded problem.

    Every stored number must agree with its recomputation within
    ``ORACLE_TOL`` relative, or within the tolerance its rounding error
    needs where that is larger, up to ``ORACLE_TOL_CAP``: a bound within
    the rounding of its part-span basis and pencil
    (:func:`_bound_tolerances`), an r' within n eps / margin
    (:func:`_verify_tolerances`).  Every other number, ``dual`` results
    included, is held to ``ORACLE_TOL``.
    """
    command = report_doc["command"]
    if command not in COMMAND_CORES:
        raise InputError(f"cannot re-derive reports for command {command!r}")
    stored_params = report_doc["parameters"]
    for key in ("tol_def", "tol_rank"):
        if key not in stored_params:
            raise SchemaError(f"missing parameter {key!r}", "$.parameters")
        if not (is_finite_number(stored_params[key]) and stored_params[key] > 0):
            raise SchemaError("expected a positive finite number", f"$.parameters.{key}")
    params = Params(tol_def=float(stored_params["tol_def"]),
                    tol_rank=float(stored_params["tol_rank"]))
    fresh = COMMAND_CORES[command](parsed, params)
    diffs: list[str] = []
    _compare_trees(report_doc["result"], jsonify(fresh.result), "result", diffs, fresh.tolerances)
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
    return Outcome(result, 0, [f"recomputed {command}: agreement"])


def _compare_trees(stored, fresh, path: str, diffs: list[str],
                   tolerances: dict[str, float] | None = None) -> None:
    """Append to ``diffs`` every difference between two result trees; numbers
    are compared at ``tolerances[path]``, or ``ORACLE_TOL`` where it has none,
    relative to the recomputed value, so that no stored value is judged on
    its own scale."""
    if isinstance(stored, dict) and isinstance(fresh, dict):
        for key in sorted(set(stored) | set(fresh)):
            if key not in stored or key not in fresh:
                diffs.append(f"{path}.{key}: present on one side only")
                continue
            _compare_trees(stored[key], fresh[key], f"{path}.{key}", diffs, tolerances)
        return
    if isinstance(stored, list) and isinstance(fresh, list):
        if len(stored) != len(fresh):
            diffs.append(f"{path}: length {len(stored)} vs {len(fresh)}")
            return
        for i, (a, b) in enumerate(zip(stored, fresh)):
            _compare_trees(a, b, f"{path}[{i}]", diffs, tolerances)
        return
    if isinstance(stored, bool) or isinstance(fresh, bool):
        if stored is not fresh:
            diffs.append(f"{path}: {stored!r} vs {fresh!r}")
        return
    if isinstance(stored, (int, float)) and isinstance(fresh, (int, float)):
        tol = (tolerances or {}).get(path, ORACLE_TOL)
        if not (is_finite_number(stored) and _compare(float(fresh), float(stored), tol)):
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

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("-o", "--output", default=None, help="also write the report here")
    common = argparse.ArgumentParser(add_help=False, parents=[output])
    common.add_argument("--tol-def", type=float, default=None,
                        help="definiteness decision tolerance (default 1e-10)")
    common.add_argument("--tol-rank", type=float, default=None,
                        help="relative rank cutoff (default 1e-10)")

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

    g = sub.add_parser("gen", parents=[output], help="generate a seeded problem instance")
    g.add_argument("--seed", type=int, default=0, help="generator seed")
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
    if sys.stdout is None:  # started with file descriptor 1 closed
        raise OSError("standard output is closed")
    sys.stdout.write(text)
    sys.stdout.flush()  # a closed pipe raises here, as an i/o error, not at exit
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
            from .generator import GeneratorConfig, gen_problem  # only gen pays its import

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
            report_doc, parsed = load_report(args.problem)
            result, code, lines, _ = run_oracle(report_doc, parsed)
            out = make_report("oracle", parsed, params._asdict(), result)
            _emit(out, args.output)
            _summarize(lines)
            return code

        parsed = load_problem(args.problem)
        result, code, lines, _ = COMMAND_CORES[args.command](parsed, params)
        report = make_report(args.command, parsed, params._asdict(), result)
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


def run() -> NoReturn:
    """Process entry of the ``kreinframes`` script and ``python -m kreinframes``.

    Runs :func:`main` on the command line, flushes stdout and stderr, and
    ends the process with ``os._exit``, without the interpreter's teardown
    of numpy and every other loaded module; ``atexit`` handlers do not run.
    An exception that escapes ``main`` still prints its traceback and exits
    1.  Programs that embed the CLI call ``main``, which returns the code.
    """
    code = main(sys.argv[1:])
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            try:
                stream.flush()
            except (OSError, ValueError):
                pass  # an unwritable stdout has already made main return 2
    os._exit(code)


if __name__ == "__main__":
    run()
