"""Part bounds from the factors of the class SVD, held to a 60-digit
reference, and the near-neutral inputs whose inner bounds the pencil route
got wrong."""

import json

import numpy as np
import pytest

import kreinframes as kf
from kreinframes import cli
from kreinframes.oracles import bound_width
from oracle_references import definite_pair_extrema, part_bounds_mp

TILTS = (1.0 - 1e-7, 1.0 - 1e-8, 1.0 - 1e-9, 1.0 - 1e-10)
# (n, rotate): n = 16 rotated only, to keep the reference within its budget
SHAPES = ((6, False), (6, True), (16, True))


def _generated(kind: str, n: int, tilt: float, rotate: bool, seed: int = 6):
    cfg = kf.GeneratorConfig(kind=kind, seed=seed, dim=n, num_positive=n // 2, tilt=tilt,
                             rotate=rotate, num_vectors_positive=n, num_vectors_negative=n)
    return kf.gen_frame(cfg) if kind == "frame" else kf.gen_family(cfg)


def _assert_near_reference(bounds, widths, reference) -> None:
    """Each bound within its width of the reference, each inner bound of its sign."""
    for label, slots in cli.BOUND_SLOTS.items():
        for slot, exact in zip(slots, reference[label][:2]):
            assert abs(bounds[slot] - exact) <= widths[slot], (label, bounds[slot], exact)
        inner = 1 if label == "negative" else 0  # A- is the upper, A+ the lower bound
        assert np.sign(bounds[slots[inner]]) == np.sign(reference[label][inner]) != 0.0


@pytest.mark.parametrize("kind", ["frame", "fusion"])
def test_bounds_of_systems_and_duals_are_those_of_the_60_digit_reference(kind):
    """Over a seeded near-neutral corpus (n <= 16, tilts 1 - 1e-7 to
    1 - 1e-10, rotated or not), every bound of a verified system, and every
    bound of its canonical dual, is within its rounding width of the
    mpmath reference (``bound_width`` at the dual's own Bessel bound and
    reference margin, for the dual), and every inner bound has the
    reference's sign."""
    verified = 0
    for tilt in TILTS:
        for n, rotate in SHAPES:
            system = _generated(kind, n, tilt, rotate)
            report = (kf.verify_j_frame(system) if kind == "frame"
                      else kf.verify_j_fusion_frame(system))
            if report.bounds[0] is None:
                continue  # not verified at the default cutoffs
            verified += 1
            dims = {label: span.dim for label, (_, span) in system._class_spans.items()}
            _assert_near_reference(report.bounds, report.bound_widths,
                                   part_bounds_mp(system, dims))
            diag = (kf.dual_reciprocity(system) if kind == "frame"
                    else kf.fusion_dual_diagnostics(system))
            reference = part_bounds_mp(diag.dual, dims)
            beta = kf.frames._bessel_bound(diag.dual.synthesis)
            widths = [None] * 4
            for label, slots in cli.BOUND_SLOTS.items():
                for slot, exact in zip(slots, reference[label][:2]):
                    widths[slot] = bound_width(exact, beta, reference[label][2])
            _assert_near_reference(diag.dual_bounds, widths, reference)
    assert verified >= 10


@pytest.mark.parametrize("kind", ["frame", "fusion"])
def test_duals_of_duals_take_their_bounds_from_the_composed_factors(kind):
    """A dual of a dual composes the QR factors of both steps (a family's
    entry R factors too): on an entry mix of dimensions 1 and 2, its
    bounds, and those of the first dual, are the extrema of the pencils of
    their own data to 1e-12."""
    cfg = kf.GeneratorConfig(kind=kind, seed=3, dim=8, num_positive=4, tilt=0.5, rotate=True,
                             entry_dims_positive=(2, 1, 1), entry_dims_negative=(1, 2, 1))
    system = kf.gen_frame(cfg) if kind == "frame" else kf.gen_family(cfg)
    dual_of = kf.canonical_dual if kind == "frame" else lambda s: kf.canonical_dual_fusion(s)[0]
    dual = dual_of(system)
    for derived in (dual, dual_of(dual)):
        pencils = kf.part_pencils(derived)
        for label, pencil in pencils.items():
            assert kf.frames._part_bounds(derived, label) == pytest.approx(
                definite_pair_extrema(*pencil), rel=1e-12)


# The near-neutral inputs of ``gen`` whose inner bounds, or whose dual, the
# pencil route got wrong: its inner bounds had the wrong sign, and ``dual``
# refused the last two (exit 1), classifying the dual's spans again.
NEAR_NEUTRAL = {
    "frame-seed-2": ["--kind", "frame", "--n", "6", "--p", "3", "--num-pos", "6", "--num-neg", "6",
                     "--tilt", "0.999999999", "--seed", "2"],
    "frame-n16-seed-1": ["--kind", "frame", "--n", "16", "--p", "8", "--num-pos", "16",
                         "--num-neg", "16", "--tilt", "0.999999999", "--seed", "1", "--rotate"],
    "frame-seed-3": ["--kind", "frame", "--n", "6", "--p", "3", "--num-pos", "6", "--num-neg", "6",
                     "--tilt", "0.9999999999", "--seed", "3"],
    "fusion-seed-0": ["--kind", "fusion", "--n", "6", "--p", "3", "--tilt", "0.9999999999",
                      "--seed", "0"],
}


def _ascending_with_signs(bounds) -> bool:
    bm, am, ap, bp = bounds
    return bm <= am < 0.0 < ap <= bp


@pytest.mark.parametrize("name", sorted(NEAR_NEUTRAL))
def test_near_neutral_inner_bounds_keep_their_signs_and_dual_answers(capsys, tmp_path, name):
    """On each input, the verifying command and ``bounds`` report
    ``B- <= A- < 0 < A+ <= B+``, ``dual`` exits 0 with dual bounds of the
    same pattern, and ``oracle`` exits 0 on every saved report."""
    problem = tmp_path / "problem.json"
    assert cli.main(["gen", *NEAR_NEUTRAL[name], "-o", str(problem)]) == 0
    command = "verify-frame" if name.startswith("frame") else "verify"
    reports = []
    for cmd, key in ((command, "bounds"), ("bounds", "bounds"), ("dual", "dual_bounds")):
        report = tmp_path / f"{cmd}.json"
        assert cli.main([cmd, str(problem), "-o", str(report)]) == 0, capsys.readouterr().err
        assert _ascending_with_signs(json.loads(report.read_text())["result"][key])
        reports.append(report)
    for report in reports:
        assert cli.main(["oracle", str(report)]) == 0, capsys.readouterr().err
    capsys.readouterr()
