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
exit 3.  4 numerical failure: a LAPACK kernel failed on the input (an SVD
that did not converge), so there is no answer to report; the message names
the kernel.

Every verifying command whose verdict is true brackets each bound, margin
and reduced modulus it reports (:func:`kreinframes.oracles.certify`), and
``classify`` each entry's margin; ``oracle`` compares a stored result with
its recomputation.  A failed check exits 3.  :mod:`kreinframes.oracles`
decides how close each number must be; this module only says where each
number, and its tolerance, sits in the report.

Every command but ``gen`` and ``oracle`` takes the two tolerance flags,
which default to ``TOL_DEF`` and ``TOL_RANK``; ``oracle`` re-runs at, and
records, the parameters stored in its report, and ``gen`` takes its
defaults from ``GeneratorConfig``.  No tolerance is read from the
environment.
"""

import argparse
import functools
import os
import sys
from typing import NamedTuple, NoReturn

import numpy as np

from . import oracles
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
    NumericalFailure,
    SchemaError,
)
from .frames import dual_reciprocity, partition_by_sign, verify_j_frame
from .fusion import (
    check_rps_corollary,
    family_from_spans,
    fusion_dual_diagnostics,
    verify_j_fusion_frame,
)
from .problem_io import (
    ParsedProblem,
    canonical_parts,
    is_finite_number,
    jsonify,
    load_problem,
    load_report,
    make_report,
)
from .subspaces import (
    SubspaceKind,
    _classify_all,
    _entry_spans,
    classify,
    subspace_sum,
)
from .transforms import image_fusion_check

# The slots of the bound four-tuple (B-, A-, A+, B+) that each part fills.
BOUND_SLOTS = {"negative": (0, 1), "positive": (2, 3)}


class Params(NamedTuple):
    """The parameters of a command, written into its report in this order."""

    tol_def: float
    tol_rank: float


class Outcome(NamedTuple):
    """What a command core returns: the ``result`` of the report, the exit
    code and the summary lines, and the relative tolerance at which ``oracle``
    compares each stored number, by its path such as ``result.bounds[2]``,
    whose rounding error may exceed ``oracles.ORACLE_TOL``."""

    result: dict
    code: int
    lines: list[str]
    tolerances: dict[str, float] | None = None


def _resolve_params(args: argparse.Namespace) -> Params:
    tol_def = args.tol_def if args.tol_def is not None else TOL_DEF
    tol_rank = args.tol_rank if args.tol_rank is not None else TOL_RANK
    for name, value in (("--tol-def", tol_def), ("--tol-rank", tol_rank)):
        if not np.isfinite(value) or value <= 0.0:
            raise InputError(f"{name} must be a positive float, got {value!r}")
    return Params(tol_def=tol_def, tol_rank=tol_rank)


def _bound_tolerances(key: str, report) -> dict[str, float]:
    """The :func:`oracles.bound_tolerance` of each bound that ``report``
    computed, at its path ``result.<key>[slot]`` and, where a result repeats
    it per part, ``result.<part>.ratio_range[i]``."""
    tols = {}
    for label, slots in BOUND_SLOTS.items():
        for i, slot in enumerate(slots):
            width = report.bound_widths[slot]
            if width is not None:
                lam = getattr(report, label).ratio_range[i]
                tols[f"result.{label}.ratio_range[{i}]"] = tols[f"result.{key}[{slot}]"] = (
                    oracles.bound_tolerance(lam, width))
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
        return "frame", partition_by_sign(parsed.vectors, parsed.space, params.tol_def,
                                          params.tol_rank)
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
    all_subs = _entry_spans([rows for rows, _ in parsed.entries], space, params.tol_rank)
    classes = _classify_all(all_subs, params.tol_def, params.tol_rank)
    entries = [{"index": i, "dim": sub.dim, "weight": weight, "classification": cls}
               for i, (sub, cls, (_, weight)) in enumerate(zip(all_subs, classes, parsed.entries))]

    def span_block(kind: SubspaceKind):
        """The span of the entries of ``kind``, classified; None when there are none."""
        parts = [sub for sub, cls in zip(all_subs, classes) if cls.kind is kind]
        if not parts:
            return None
        total = subspace_sum(parts, params.tol_rank)
        return {"dim": total.dim, "classification": classify(total, params.tol_def, params.tol_rank)}

    result = {
        "signature": [space.num_positive, space.num_negative],
        "entries": entries,
        "positive_span": span_block(SubspaceKind.UNIFORMLY_POSITIVE),
        "negative_span": span_block(SubspaceKind.UNIFORMLY_NEGATIVE),
        "complete": oracles.completeness_check(all_subs, space, params.tol_rank),
        "oracle": oracles.certify_entries(all_subs, classes),
    }
    kinds = ",".join(e["classification"].kind.value for e in entries)
    return Outcome(result, 0, [f"classified {len(entries)} entries: {kinds}",
                               f"complete={result['complete']}"])


@_refusing
def run_verify(parsed: ParsedProblem, params: Params) -> Outcome:
    _, family = _system(parsed, params, "family")
    report = verify_j_fusion_frame(family)
    rps = check_rps_corollary(family) if report.is_j_fusion_frame else None
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
        "oracle": oracles.certify(report, params.tol_rank) if report.is_j_fusion_frame else None,
    }
    tolerances = _bound_tolerances("bounds", report)
    for i, cls in enumerate(family.entry_classifications if rps else ()):
        tolerances[f"result.projection_alignment[{i}].r_prime"] = oracles.alignment_tolerance(
            family.space.dim, cls.margin)
    return Outcome(result, 0 if report.is_j_fusion_frame else 1,
                   _verdict_lines(report.is_j_fusion_frame, report), tolerances)


@_refusing
def run_verify_frame(parsed: ParsedProblem, params: Params) -> Outcome:
    _, frame = _system(parsed, params, "vectors")
    report = verify_j_frame(frame)
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
        "oracle": oracles.certify(report, params.tol_rank) if report.is_j_frame else None,
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
    (``report.bound_widths``): on an untilted part the two intervals are
    equal in exact arithmetic, so a fixed slack would decide by the scale
    alone."""
    bound, estimate, width = report.bounds, report.bound_estimates, report.bound_widths
    return {label: bool(estimate[lo] <= bound[lo] + width[lo]
                        and bound[hi] <= estimate[hi] + width[hi])
            for label, (lo, hi) in BOUND_SLOTS.items()
            if bound[lo] is not None and estimate[lo] is not None}


@_refusing
def run_bounds(parsed: ParsedProblem, params: Params) -> Outcome:
    kind, system = _system(parsed, params)
    verify = verify_j_fusion_frame if kind == "fusion" else verify_j_frame
    report = verify(system)
    verdict = report.is_j_fusion_frame if kind == "fusion" else report.is_j_frame
    result = {
        "kind": kind,
        "verdict": verdict,
        "bounds": list(report.bounds),
        "bound_estimates": list(report.bound_estimates),
        "estimates_contain_optimal": _sandwich_flags(report),
        "reasons": list(report.reasons),
        "oracle": oracles.certify(report, params.tol_rank) if verdict else None,
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
        diag = fusion_dual_diagnostics(system)
        dual_entries = [{
            "basis": sub.basis.T,
            "weight": float(w),
            "sign": int(s),
        } for sub, w, s in zip(diag.dual.subspaces, diag.dual.weights, diag.dual.signs)]
        return _dual_output({"kind": "fusion", "verdict": True, "dual_entries": dual_entries},
                            diag, {"span_identity_residual": diag.span_identity_residual})
    rep = dual_reciprocity(system)
    return _dual_output({"kind": "frame", "verdict": True, "dual_vectors": rep.dual.vectors},
                        rep, {})


@_refusing
def run_transform(parsed: ParsedProblem, params: Params) -> Outcome:
    _need(parsed, "family")
    _need(parsed, "operator")
    _, family = _system(parsed, params, "family")
    check = image_fusion_check(parsed.operator, family)
    rejection = None if check.rejected_entry is None else {
        "index": check.rejected_entry,
        "witness": check.rejection_witness,
        "self_product": check.rejection_self_product,
    }
    result = {
        "verdict": check.image_verdict,
        "sufficient_condition": check.sufficient,
        "decomposition_original_partition": check.decomposition_original,
        "decomposition_image_partition": check.decomposition_image,
        "rejected": rejection,
        "entries": [e._asdict() for e in check.preservation.entries],
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


def run_oracle(report_doc: dict, parsed: ParsedProblem) -> tuple[Params, Outcome]:
    """Re-derive the result of a validated report; ``parsed`` is its embedded
    problem.  Returns the stored parameters, which it re-ran at, and the outcome.

    Every stored number must agree with its recomputation as
    :func:`oracles.compare_trees` decides: a bound within its
    :func:`oracles.bound_tolerance`, an r' within its
    :func:`oracles.alignment_tolerance`, every other number, ``dual``
    results included, within ``oracles.ORACLE_TOL``.  A stored result whose
    objects do not have the keys of the recomputed ones is refused as a
    layout mismatch (:class:`SchemaError`, exit 2), whatever its numbers.
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
    oracles.compare_trees(report_doc["result"], jsonify(fresh.result), "result", diffs,
                          fresh.tolerances)
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
    return params, Outcome(result, 0, [f"recomputed {command}: agreement"])


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

    p = sub.add_parser("oracle", parents=[output],
                       help="re-derive a stored report and compare")
    p.add_argument("problem", help="report JSON file", metavar="report")

    # each option stores into its GeneratorConfig field, and only when given
    g = sub.add_parser("gen", parents=[output], argument_default=argparse.SUPPRESS,
                       help="generate a seeded problem instance")
    g.add_argument("--seed", type=int, help="generator seed")
    g.add_argument("--kind", choices=["fusion", "frame"])
    g.add_argument("--n", type=int, dest="dim", metavar="N", help="ambient dimension")
    g.add_argument("--p", type=int, dest="num_positive", metavar="P", help="positive signature")
    g.add_argument("--dims-pos", dest="entry_dims_positive", metavar="DIMS_POS",
                   help="comma-separated positive entry dims")
    g.add_argument("--dims-neg", dest="entry_dims_negative", metavar="DIMS_NEG",
                   help="comma-separated negative entry dims")
    g.add_argument("--num-pos", type=int, dest="num_vectors_positive", metavar="NUM_POS",
                   help="positive vector count (frame kind)")
    g.add_argument("--num-neg", type=int, dest="num_vectors_negative", metavar="NUM_NEG",
                   help="negative vector count (frame kind)")
    g.add_argument("--tilt", type=float, help="graph contraction norm in [0,1)")
    g.add_argument("--weight-min", type=float, dest="weight_low", metavar="WEIGHT_MIN")
    g.add_argument("--weight-max", type=float, dest="weight_high", metavar="WEIGHT_MAX")
    g.add_argument("--plant", choices=["none", "neutral_entry", "deficient"])
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
    """Write the canonical parts of ``doc`` to stdout and to ``output``, once
    all of them are built: a report that cannot be serialized writes nothing."""
    parts = canonical_parts(doc)
    if sys.stdout is None:  # started with file descriptor 1 closed
        raise OSError("standard output is closed")
    sys.stdout.writelines(parts)
    sys.stdout.flush()  # a closed pipe raises here, as an i/o error, not at exit
    if output:
        with open(output, "w", encoding="utf-8") as file:
            file.writelines(parts)


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

            options = {k: v for k, v in vars(args).items() if k not in ("command", "output")}
            for name in ("entry_dims_positive", "entry_dims_negative"):
                if name in options:
                    options[name] = _parse_dims(options[name])
            cfg = GeneratorConfig(**options)
            _emit(gen_problem(cfg), args.output)
            _summarize([f"generated {cfg.kind} problem (seed={cfg.seed}, dim={cfg.dim}, "
                        f"plant={cfg.plant})"])
            return 0

        if args.command == "oracle":
            report_doc, parsed = load_report(args.problem)
            params, (result, code, lines, _) = run_oracle(report_doc, parsed)
        else:
            params = _resolve_params(args)
            parsed = load_problem(args.problem)
            result, code, lines, _ = COMMAND_CORES[args.command](parsed, params)
        report = make_report(args.command, parsed, params._asdict(), result)
        _emit(report, args.output)
        _summarize(lines)
        return code

    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
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
