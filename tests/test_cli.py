"""Command-line interface: exit codes, report envelopes, oracle re-runs."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

import kreinframes as kf
from kreinframes import cli, oracles
from kreinframes.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = Path(cli.__file__).resolve().parents[1]


def run_cli(capsys, *args):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def child_env(**extra):
    """Environment of a ``python -m kreinframes`` child that imports this
    checkout's package, with stdout buffered unless ``extra`` says otherwise."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(extra)
    return env


def run_process(*args, stdout=subprocess.PIPE, env=None, **kwargs):
    """One ``python -m kreinframes ARGS`` process, run to its exit."""
    return subprocess.run([sys.executable, "-m", "kreinframes", *map(str, args)],
                          stdout=stdout, stderr=subprocess.PIPE, env=env or child_env(),
                          timeout=300, **kwargs)


# ---------------------------------------------------------------------------
# verify


def test_verify_valid_fusion_family(capsys):
    code, report, err = run_cli(capsys, "verify", FIXTURES / "fusion_dim6.json")
    assert code == 0
    assert report["report_version"] == 9
    assert report["command"] == "verify"
    assert report["result"]["verdict"] is True
    assert report["result"]["oracle"]["agreement"] is True
    assert "verdict=true" in err
    bounds = report["result"]["bounds"]
    assert bounds[0] <= bounds[1] < 0 < bounds[2] <= bounds[3]


def test_verify_counterexample_returns_one_with_report(capsys):
    code, report, err = run_cli(capsys, "verify", FIXTURES / "r3_family.json")
    assert code == 1
    assert report["result"]["verdict"] is False
    assert "verdict=false" in err


def test_verify_neutral_entry_rejection(capsys):
    code, report, _ = run_cli(capsys, "verify", FIXTURES / "neutral_entry_family.json")
    assert code == 1
    rejected = report["result"]["rejected"]
    assert rejected["index"] == 0
    assert abs(rejected["self_product"]) <= 1e-10


REFUSED_ENTRY_FAMILY = {
    "dimension": 3, "J": {"type": "diagonal", "signs": [1, -1, -1]},
    "family": {"entries": [{"basis": [[1, 0, 0], [0, 0.5, 0]], "weight": 1},
                           {"basis": [[0, 0, 1]], "weight": 1}]},
}


@pytest.mark.parametrize("command", ["verify", "bounds", "dual"])
@pytest.mark.parametrize("problem", ["indefinite_entry", "neutral_entry_family.json"])
def test_refused_entry_self_product_is_that_of_its_witness(capsys, tmp_path, command, problem):
    """``rejected.self_product`` of a refused family entry is ``[w, w]`` of
    the witness it writes, not the entry's Gram margin (1.0 for the
    indefinite plane, and of the other sign on the neutral fixture)."""
    path = FIXTURES / problem
    if not problem.endswith(".json"):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(REFUSED_ENTRY_FAMILY))
    code, report, _ = run_cli(capsys, command, path)
    assert code == 1
    rejected = report["result"]["rejected"]
    w = np.array(rejected["witness"])
    j = kf.load_problem(path).space.symmetry
    assert rejected["self_product"] == pytest.approx(float(w @ j @ w), rel=1e-12, abs=1e-30)


def test_verify_embeds_problem_verbatim(capsys):
    original = json.loads((FIXTURES / "fusion_dim6.json").read_text())
    _, report, _ = run_cli(capsys, "verify", FIXTURES / "fusion_dim6.json")
    assert report["problem"] == original


def test_verify_frame(capsys):
    code, report, _ = run_cli(capsys, "verify-frame", FIXTURES / "eigen_frame.json")
    assert code == 0
    assert report["result"]["verdict"] is True
    assert np.allclose(report["result"]["bounds"], [-2.0, -2.0, 2.0, 2.0])
    assert report["result"]["condition_number"] == pytest.approx(1.0)


@pytest.mark.parametrize("command", ["verify-frame", "bounds", "dual"])
def test_neutral_vector_rejection(capsys, tmp_path, command):
    """Every command that builds a frame refuses a neutral vector with one
    ``rejected`` layout: reason, index, the vector as witness, self-product."""
    doc = {"dimension": 2, "J": DIAG_J, "vectors": [[1, 0], [1, 1], [0, 1]]}
    problem = tmp_path / "neutral_vector.json"
    problem.write_text(json.dumps(doc))
    code, report, err = run_cli(capsys, command, problem)
    assert code == 1
    reason = "vector 1 is neutral within tolerance: [f, f] = 0.000e+00"
    assert list(report["result"]["rejected"].items()) == [
        ("reason", reason), ("index", 1), ("witness", [1.0, 1.0]), ("self_product", 0.0)]
    assert err == f"verdict=false (rejected: {reason})\n"


def test_verify_frame_on_tilted_fixture(capsys):
    code, report, _ = run_cli(capsys, "verify-frame", FIXTURES / "tilted_frame.json")
    assert code == 0
    assert report["result"]["verdict"] is True


# ---------------------------------------------------------------------------
# classify / bounds / dual / transform


def test_classify_fixture(capsys):
    code, report, _ = run_cli(capsys, "classify", FIXTURES / "r3_family.json")
    assert code == 0
    kinds = [e["classification"]["kind"] for e in report["result"]["entries"]]
    assert kinds == ["UniformlyPositive", "UniformlyPositive", "UniformlyNegative"]
    assert report["result"]["complete"] is True
    # the two positive lines span a degenerate plane
    assert report["result"]["positive_span"]["classification"]["kind"] == "PositiveNonUniform"


def test_bounds_skewed_pair(capsys, tmp_path):
    code, report, _ = run_cli(capsys, "bounds", FIXTURES / "skewed_pair.json")
    assert code == 0
    res = report["result"]
    assert np.allclose(res["bounds"], [-1.0, -1.0, 1.0, 1.0], atol=1e-9)
    assert np.allclose(res["bound_estimates"],
                       [-5.0 / 3.0, -0.36, 0.36, 5.0 / 3.0], atol=1e-9)
    assert res["estimates_contain_optimal"]["positive"] is True
    assert res["estimates_contain_optimal"]["negative"] is True

    # Untilted, the estimates equal the bounds in exact arithmetic, so they
    # contain them at every scale; a fixed slack of 1e-9 denied it from 1e4 on.
    for kind in ("fusion", "frame"):
        cfg = kf.GeneratorConfig(kind=kind, seed=11, dim=4, tilt=0.0, rotate=True)
        for scale in (1.0, 1e4, 1e6):
            doc = kf.gen_problem(cfg)
            if kind == "frame":
                doc["vectors"] = (scale * np.asarray(doc["vectors"])).tolist()
            else:
                for entry in doc["family"]["entries"]:
                    entry["weight"] *= scale
            problem, report_file = tmp_path / "scaled.json", tmp_path / "report.json"
            problem.write_text(json.dumps(doc))
            code, report, _ = run_cli(capsys, "bounds", problem, "-o", report_file)
            assert code == 0
            assert report["result"]["estimates_contain_optimal"] == {"negative": True,
                                                                     "positive": True}
            assert run_cli(capsys, "oracle", report_file)[0] == 0


def test_sandwich_flag_is_false_past_the_rounding_width():
    """An estimate inside its optimal interval by more than the bound's
    rounding width is reported as not containing it."""
    report = SimpleNamespace(bounds=(-2.0, -1.0, 1.0, 2.0),
                             bound_estimates=(-2.0, -1.0, 1.0 + 1e-6, 2.0),
                             bound_widths=tuple(oracles.bound_width(lam, 2.0, 1.0)
                                                for lam in (-2.0, -1.0, 1.0, 2.0)))
    assert cli._sandwich_flags(report) == {"negative": True, "positive": False}


def test_dual_frame_reports_reciprocity(capsys):
    code, report, _ = run_cli(capsys, "dual", FIXTURES / "eigen_frame.json")
    assert code == 0
    res = report["result"]
    assert np.allclose(res["dual_bounds"], [-0.5, -0.5, 0.5, 0.5], atol=1e-9)
    assert res["max_relative_deviation"] <= 1e-9
    assert res["dual_operator_residual"] <= 1e-9


def test_dual_fusion_reports_residuals(capsys):
    code, report, _ = run_cli(capsys, "dual", FIXTURES / "fusion_dim6.json")
    assert code == 0
    res = report["result"]
    assert res["span_identity_residual"] <= 1e-9
    # measured: the transported family's own operator is far from S^{-1}
    assert res["dual_operator_residual"] > 1e-2
    assert len(res["dual_entries"]) == 4


def test_transform_neutral_image(capsys):
    code, report, _ = run_cli(capsys, "transform", FIXTURES / "neutral_image.json")
    assert code == 1
    res = report["result"]
    assert res["verdict"] is False
    w = np.asarray(res["rejected"]["witness"], dtype=float)
    w = w / np.linalg.norm(w)
    target = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
    assert min(np.linalg.norm(w - target), np.linalg.norm(w + target)) <= 1e-8


def test_transform_requires_operator(capsys):
    code, report, err = run_cli(capsys, "transform", FIXTURES / "fusion_dim6.json")
    assert code == 2
    assert report is None
    assert "operator" in err


# ---------------------------------------------------------------------------
# gen and oracle


def test_gen_then_verify_round_trip(capsys, tmp_path):
    problem_file = tmp_path / "problem.json"
    code, report, _ = run_cli(capsys, "gen", "--kind", "fusion", "--seed", "3",
                              "--n", "4", "--p", "2", "--dims-pos", "1,2",
                              "--dims-neg", "1,1", "-o", problem_file)
    assert code == 0
    assert problem_file.exists()
    code, report, _ = run_cli(capsys, "verify", problem_file)
    assert code == 0
    assert report["result"]["verdict"] is True


def test_gen_plant_neutral_fails_verification(capsys, tmp_path):
    problem_file = tmp_path / "planted.json"
    code, _, _ = run_cli(capsys, "gen", "--kind", "fusion", "--seed", "9",
                         "--n", "4", "--p", "2", "--plant", "neutral_entry",
                         "--rotate", "-o", problem_file)
    assert code == 0
    code, report, _ = run_cli(capsys, "verify", problem_file)
    assert code == 1
    assert report["result"]["rejected"]["index"] == 0


def test_gen_rejects_infeasible_config(capsys):
    code, report, err = run_cli(capsys, "gen", "--kind", "fusion", "--n", "4",
                                "--p", "2", "--dims-pos", "1", "--dims-neg", "1,1")
    assert code == 2
    assert report is None


@pytest.mark.parametrize("kind", ["fusion", "frame"])
def test_gen_defaults_are_those_of_generator_config(capsys, kind):
    """``gen`` with no options writes the problem of ``GeneratorConfig()``, and
    with every option set that of the matching explicit config."""
    assert main(["gen"]) == 0
    assert capsys.readouterr().out == kf.dumps_canonical(kf.gen_problem(kf.GeneratorConfig()))
    args = ["gen", "--kind", kind, "--seed", "5", "--n", "6", "--p", "3", "--dims-pos", "2,1",
            "--dims-neg", "1,2", "--num-pos", "4", "--num-neg", "5", "--tilt", "0.25",
            "--weight-min", "0.75", "--weight-max", "1.5", "--plant", "deficient", "--rotate"]
    cfg = kf.GeneratorConfig(kind=kind, seed=5, dim=6, num_positive=3,
                             entry_dims_positive=(2, 1), entry_dims_negative=(1, 2),
                             num_vectors_positive=4, num_vectors_negative=5, tilt=0.25,
                             weight_low=0.75, weight_high=1.5, plant="deficient", rotate=True)
    assert main(args) == 0
    assert capsys.readouterr().out == kf.dumps_canonical(kf.gen_problem(cfg))


def test_oracle_accepts_untampered_report(capsys, tmp_path):
    report_file = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "verify", FIXTURES / "fusion_dim6.json",
                         "-o", report_file)
    assert code == 0
    code, audit, err = run_cli(capsys, "oracle", report_file)
    assert code == 0
    assert audit["result"]["agreement"] is True


def test_oracle_detects_tampered_bounds(capsys, tmp_path):
    report_file = tmp_path / "report.json"
    run_cli(capsys, "verify", FIXTURES / "fusion_dim6.json", "-o", report_file)
    doc = json.loads(report_file.read_text())
    doc["result"]["bounds"][3] *= 1.05
    report_file.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "oracle", report_file)
    assert code == 3
    assert "bounds" in err


def test_oracle_detects_tampered_verdict(capsys, tmp_path):
    report_file = tmp_path / "report.json"
    run_cli(capsys, "verify", FIXTURES / "r3_family.json", "-o", report_file)
    doc = json.loads(report_file.read_text())
    doc["result"]["verdict"] = True
    report_file.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "oracle", report_file)
    assert code == 3


def _without_witness(doc: dict) -> str:
    del doc["result"]["rejected"]["witness"]
    return "$.result.rejected.witness: field absent from the stored result"


def _with_added_key(doc: dict) -> str:
    doc["result"]["rejected"]["note"] = 1.0
    return "$.result.rejected.note: field absent from the recomputed result"


@pytest.mark.parametrize("edit", [_without_witness, _with_added_key], ids=["deleted", "added"])
def test_oracle_refuses_a_layout_mismatch(capsys, tmp_path, edit):
    """A stored result whose keys are not those of the recomputed one is a
    layout mismatch, refused with exit 2 and the path of the key, even where
    a number disagrees too; such as a ``bounds`` rejection of a neutral
    vector written before rejections carried their ``witness``."""
    problem, report_file = tmp_path / "problem.json", tmp_path / "report.json"
    assert run_cli(capsys, "gen", "--kind", "frame", "--n", "4", "--p", "2",
                   "--plant", "neutral_entry", "-o", problem)[0] == 0
    assert run_cli(capsys, "bounds", problem, "-o", report_file)[0] == 1
    doc = json.loads(report_file.read_text())
    message = edit(doc)
    report_file.write_text(json.dumps(doc))
    assert run_cli(capsys, "oracle", report_file) == (2, None, f"input error: {message}\n")
    doc["result"]["rejected"]["self_product"] += 1.0
    report_file.write_text(json.dumps(doc))
    assert run_cli(capsys, "oracle", report_file) == (2, None, f"input error: {message}\n")


def _near_neutral_problem(tmp_path, kind: str) -> Path:
    """A generated problem at n = 16 whose parts are barely definite (tilt
    0.9999999); a family has one entry that fills each part span and one
    that does not."""
    dims = {"entry_dims_positive": (8, 4), "entry_dims_negative": (8, 4)} if kind == "fusion" else {}
    cfg = kf.GeneratorConfig(kind=kind, seed=1, dim=16, num_positive=8, tilt=0.9999999,
                             rotate=True, **dims)
    problem = tmp_path / f"{kind}.json"
    problem.write_text(json.dumps(kf.gen_problem(cfg)))
    return problem


def _leaf(doc: dict, path: str):
    """The container and key of the number at ``path``, such as ``result.bounds[2]``."""
    keys = [int(k) if k.isdigit() else k for k in re.split(r"[.\[\]]+", path) if k]
    for key in keys[:-1]:
        doc = doc[key]
    return doc, keys[-1]


def _deficient_problem(tmp_path) -> Path:
    """A generated family at n = 8 that fails (verdict false: its positive
    span lacks a direction) and whose parts are barely definite (tilt
    0.9999999), so that its report holds each part's ``ratio_range``."""
    cfg = kf.GeneratorConfig(kind="fusion", seed=0, dim=8, num_positive=4, tilt=0.9999999,
                             plant="deficient", rotate=True)
    problem = tmp_path / "deficient.json"
    problem.write_text(json.dumps(kf.gen_problem(cfg)))
    return problem


@pytest.mark.parametrize("kind, command, key", [
    ("frame", "verify-frame", "bounds"),
    ("frame", "verify-frame", "ratio_range"),
    ("frame", "bounds", "bounds"),
    ("fusion", "verify", "bounds"),
    ("fusion", "verify", "r_prime"),
    ("fusion", "bounds", "bounds"),
    ("deficient", "verify", "ratio_range"),
])
def test_oracle_allows_each_number_its_rounding_error(capsys, tmp_path, kind, command, key):
    """On barely definite parts ``oracle`` judges a bound at the rounding of
    its part-span basis and pencil, and r' at n eps / margin, in a report
    whose verdict is false too: a stored value moved by half its tolerance,
    which is more than ``ORACLE_TOL`` allows, still agrees; one moved by
    twice its tolerance does not."""
    problem = (_deficient_problem(tmp_path) if kind == "deficient"
               else _near_neutral_problem(tmp_path, kind))
    report_file = tmp_path / "report.json"
    code, _, err = run_cli(capsys, command, problem, "-o", report_file)
    assert code == (1 if kind == "deficient" else 0), err
    outcome = cli.COMMAND_CORES[command](kf.load_problem(problem), cli.Params(1e-10, 1e-10))
    path, tol = max(((p, t) for p, t in outcome.tolerances.items() if key in p),
                    key=lambda item: item[1])
    assert 2 * oracles.ORACLE_TOL < tol <= oracles.ORACLE_TOL_CAP
    doc = json.loads(report_file.read_text())
    container, leaf = _leaf(doc, path)
    stored = container[leaf]
    for factor, expected in ((0.5, 0), (2.0, 3)):
        container[leaf] = stored + factor * tol * (1.0 + abs(stored))
        report_file.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "oracle", report_file)
        assert code == expected, err


@pytest.mark.parametrize("kind", ["frame", "fusion"])
def test_oracle_tolerances_on_near_neutral_parts_stay_small(tmp_path, kind):
    """The tolerances of a near-neutral problem (Gram margins 1e-7, n = 16):
    a bound is held to at most 1e-6 relative, r' to at most 1e-7, and a
    ``dual`` result to ``ORACLE_TOL`` throughout."""
    parsed = kf.load_problem(_near_neutral_problem(tmp_path, kind))
    params = cli.Params(1e-10, 1e-10)
    tolerances = cli.COMMAND_CORES["bounds"](parsed, params).tolerances
    assert len(tolerances) == 8 and max(tolerances.values()) <= 1e-6
    if kind == "fusion":
        r_prime = {p: t for p, t in cli.COMMAND_CORES["verify"](parsed, params).tolerances.items()
                   if p.endswith("r_prime")}
        assert len(r_prime) == 4 and max(r_prime.values()) <= 1e-7
    assert not cli.COMMAND_CORES["dual"](parsed, params).tolerances


@pytest.mark.parametrize("kind, command, key", [
    ("frame", "verify-frame", "result.bounds[0]"),
    ("frame", "dual", "result.dual_bounds[1]"),
    ("frame", "dual", "result.reciprocal_expected[0]"),
    ("fusion", "verify", "result.bounds[2]"),
    ("fusion", "verify", "result.bound_estimates[3]"),
    ("fusion", "dual", "result.dual_bounds[2]"),
    ("fusion", "dual", "result.max_relative_deviation"),
])
def test_oracle_refuses_near_neutral_number_moved_twofold(capsys, tmp_path, kind, command, key):
    """However barely definite the parts, a stored bound, estimate or dual
    number off by a factor of two exits 3."""
    problem = _near_neutral_problem(tmp_path, kind)
    report_file = tmp_path / "report.json"
    code, _, err = run_cli(capsys, command, problem, "-o", report_file)
    assert code == 0, err
    doc = json.loads(report_file.read_text())
    container, leaf = _leaf(doc, key)
    container[leaf] = 2.0 * container[leaf]
    report_file.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "oracle", report_file)
    assert code == 3, err
    assert key in err


QUANTITIES = ("negative_lower_bound", "negative_upper_bound",
              "positive_lower_bound", "positive_upper_bound")


@pytest.mark.parametrize("command", ["verify", "verify-frame", "bounds"])
def test_each_bound_is_certified_and_held_at_its_library_width(tmp_path, command):
    """On the fixtures and on near-neutral problems, one of them failing,
    the bracket of each bound has the half-width ``bound_widths`` of the
    library's report, and ``oracle`` holds the bound, and its part's
    ``ratio_range``, at that width relative to ``1 + |lam|``, capped; a
    report has a width exactly where it has an estimate."""
    params = cli.Params(1e-10, 1e-10)
    problems = [*sorted(FIXTURES.glob("*.json")), _near_neutral_problem(tmp_path, "frame"),
                _near_neutral_problem(tmp_path, "fusion"), _deficient_problem(tmp_path)]
    section = {"verify": "family", "verify-frame": "vectors", "bounds": None}[command]
    checked = 0
    for problem in problems:
        parsed = kf.load_problem(problem)
        try:
            kind, system = cli._system(parsed, params, section)
        except (kf.InputError, *cli.REFUSALS):
            continue
        verify = kf.verify_j_fusion_frame if kind == "fusion" else kf.verify_j_frame
        report = verify(system)
        widths = report.bound_widths
        assert [w is None for w in widths] == [e is None for e in report.bound_estimates]
        outcome = cli.COMMAND_CORES[command](parsed, params)
        checks = (outcome.result["oracle"] or {"checks": {}})["checks"]
        for label, slots in cli.BOUND_SLOTS.items():
            for i, slot in enumerate(slots):
                tolerances = {path: outcome.tolerances.get(path) for path in (
                    f"result.bounds[{slot}]", f"result.{label}.ratio_range[{i}]")}
                if widths[slot] is None:
                    assert QUANTITIES[slot] not in checks
                    assert set(tolerances.values()) == {None}
                    continue
                lam = getattr(report, label).ratio_range[i]
                if outcome.result["oracle"] is not None:
                    assert checks[QUANTITIES[slot]] == widths[slot]
                    checked += 1
                held = min(oracles.ORACLE_TOL_CAP, widths[slot] / (1.0 + abs(lam)))
                assert tolerances[f"result.bounds[{slot}]"] == held
                if command != "bounds":
                    assert tolerances[f"result.{label}.ratio_range[{i}]"] == held
    assert checked >= 8


@pytest.mark.parametrize("slot", range(4))
@pytest.mark.parametrize("kind", ["fusion", "frame"])
@pytest.mark.parametrize("n", [6, 16])
def test_oracle_block_refuses_a_moved_bound(capsys, tmp_path, monkeypatch, n, kind, slot):
    """A pencil route that moves one bound by four times the half-width of its
    bracket makes the verifying command exit 3, at every dimension."""
    problem = tmp_path / "problem.json"
    cfg = kf.GeneratorConfig(kind=kind, seed=n, dim=n, num_positive=n // 2, rotate=True)
    problem.write_text(json.dumps(kf.gen_problem(cfg)))
    command = "verify" if kind == "fusion" else "verify-frame"
    code, report, err = run_cli(capsys, command, problem)
    assert code == 0, err
    delta = report["result"]["oracle"]["checks"][QUANTITIES[slot]]
    exact = kf.frames.definite_pair_extrema

    def moved(a, g):
        extrema = list(exact(a, g))
        if (extrema[1] > 0) == (slot >= 2):  # the pencil of the part that holds the slot
            extrema[slot % 2] += 4.0 * delta
        return tuple(extrema)

    monkeypatch.setattr(kf.frames, "definite_pair_extrema", moved)
    code, _, err = run_cli(capsys, command, problem)
    assert code == 3
    assert QUANTITIES[slot] in err


@pytest.mark.parametrize("kind", ["fusion", "frame"])
def test_oracle_block_brackets_gamma_only_above_the_rank_cutoff(capsys, tmp_path, kind):
    """With ``--tol-def`` below ``--tol-rank``, a part whose Gram margin is
    under the rank cutoff verifies, and its reduced modulus is the next
    eigenvalue rather than the lowest: the block brackets the margin alone
    and does not exit 3."""
    problem = tmp_path / "problem.json"
    cfg = kf.GeneratorConfig(kind=kind, seed=0, dim=6, num_positive=3, tilt=1.0 - 1e-11,
                             rotate=True)
    problem.write_text(json.dumps(kf.gen_problem(cfg)))
    report_file = tmp_path / "report.json"
    command = "verify" if kind == "fusion" else "verify-frame"
    code, report, err = run_cli(capsys, command, problem, "--tol-def", "1e-14", "-o", report_file)
    assert code == 0, err
    classification = report["result"]["positive"]["classification"]
    assert classification["margin"] < 1e-10 < classification["gamma"]
    assert "positive_span_margin" in report["result"]["oracle"]["checks"]
    assert "positive_span_gamma" not in report["result"]["oracle"]["checks"]
    assert run_cli(capsys, "oracle", report_file)[0] == 0


# ---------------------------------------------------------------------------
# parameters, output, and failure modes


def _moved_bound_report(tmp_path):
    report_file = tmp_path / "moved_bound.json"
    main(["verify", str(FIXTURES / "fusion_dim6.json"), "-o", str(report_file)])
    doc = json.loads(report_file.read_text())
    doc["result"]["bounds"][3] *= 1.05
    report_file.write_text(json.dumps(doc))
    return report_file


def _invalid_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    return bad


@pytest.mark.parametrize("expected, command, make_input", [
    (0, "verify", lambda tmp_path: FIXTURES / "fusion_dim6.json"),
    (1, "verify", lambda tmp_path: FIXTURES / "r3_family.json"),
    (2, "verify", _invalid_json),
    (3, "oracle", _moved_bound_report),
], ids=["exit0", "exit1", "exit2", "exit3"])
def test_output_file_matches_stdout(capsysbinary, tmp_path, expected, command, make_input):
    """The ``-o`` file holds what stdout got, and ``python -m kreinframes``
    gives the exit code, stdout, stderr and ``-o`` bytes of ``main`` in
    process."""
    problem = make_input(tmp_path)
    capsysbinary.readouterr()
    out = tmp_path / "in_process.json"
    code = main([command, str(problem), "-o", str(out)])
    captured = capsysbinary.readouterr()
    assert code == expected
    if expected < 2:  # a verdict: the report goes to stdout and to -o
        assert out.read_bytes() == captured.out
    else:  # refused: no report anywhere
        assert captured.out == b"" and not out.exists()

    child_out = tmp_path / "process.json"
    child = run_process(command, problem, "-o", child_out)
    assert child.returncode == code
    assert (child.stdout, child.stderr) == (captured.out, captured.err)
    assert child_out.exists() == out.exists()
    if out.exists():
        assert child_out.read_bytes() == out.read_bytes()


def test_tolerance_flags_recorded_in_report(capsys):
    code, report, _ = run_cli(capsys, "verify", FIXTURES / "fusion_dim6.json",
                              "--tol-def", "1e-8")
    assert code == 0
    params = report["parameters"]
    assert params["tol_def"] == 1e-8


def test_tolerance_environment_is_not_read(capsys, monkeypatch):
    """The flags are the only settable source of a tolerance: a variable
    that once set both defaults leaves them as they are, whatever it holds."""
    monkeypatch.setenv("KREINFRAME_TOLERANCE", "banana")
    code, report, _ = run_cli(capsys, "verify", FIXTURES / "fusion_dim6.json")
    assert code == 0
    assert report["parameters"] == {"tol_def": kf.TOL_DEF, "tol_rank": kf.TOL_RANK}


def test_malformed_json_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    code, report, err = run_cli(capsys, "verify", bad)
    assert code == 2


OVERFLOW_CASES = (
    ("verify", "fusion_dim6.json", ("family", "entries", 0, "weight"), "$.family.entries[0].weight"),
    ("bounds", "fusion_dim6.json", ("family", "entries", 1, "basis", 0, 2),
     "$.family.entries[1].basis[0][2]"),
    ("classify", "fusion_dim6.json", ("J", "rows", 3, 4), "$.J.rows[3][4]"),
    ("verify-frame", "eigen_frame.json", ("vectors", 1, 0), "$.vectors[1][0]"),
    ("transform", "neutral_image.json", ("operator", 2, 1), "$.operator[2][1]"),
)
MARKER = 1234567.0


def _with_literal(doc: dict, where: tuple, literal: str) -> str:
    """The JSON text of ``doc`` with the number at ``where`` spelled ``literal``."""
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = MARKER
    text = json.dumps(doc)
    assert text.count(repr(MARKER)) == 1
    return text.replace(repr(MARKER), literal)


@pytest.mark.parametrize("literal", ["1e400", "-1e400", "1" + "0" * 400])
@pytest.mark.parametrize("command, fixture, where, path", OVERFLOW_CASES)
def test_overflowing_number_is_input_error_with_path(capsys, tmp_path, literal,
                                                     command, fixture, where, path):
    doc = json.loads((FIXTURES / fixture).read_text())
    bad = tmp_path / "overflow.json"
    bad.write_text(_with_literal(doc, where, literal))
    code, report, err = run_cli(capsys, command, bad)
    assert code == 2
    assert report is None
    assert f"{path}: " in err and "finite number" in err


def _saved_report(capsys, tmp_path) -> tuple[Path, dict]:
    report_file = tmp_path / "report.json"
    run_cli(capsys, "verify", FIXTURES / "fusion_dim6.json", "-o", report_file)
    return report_file, json.loads(report_file.read_text())


def test_oracle_rejects_overflowing_number_in_embedded_problem(capsys, tmp_path):
    report_file, doc = _saved_report(capsys, tmp_path)
    report_file.write_text(_with_literal(doc, ("problem", "family", "entries", 0, "basis", 0, 0),
                                         "1e400"))
    code, _, err = run_cli(capsys, "oracle", report_file)
    assert code == 2
    assert "$.problem.family.entries[0].basis[0][0]: expected a finite number" in err


@pytest.mark.parametrize("key, literal, message", [
    ("tol_def", "1e400", "expected a positive finite number"),
    ("tol_rank", "1" + "0" * 400, "expected a positive finite number"),
    ("tol_rank", "0", "expected a positive finite number"),
    ("tol_def", "-1.0", "expected a positive finite number"),
])
def test_oracle_rejects_bad_stored_parameter(capsys, tmp_path, key, literal, message):
    report_file, doc = _saved_report(capsys, tmp_path)
    report_file.write_text(_with_literal(doc, ("parameters", key), literal))
    code, _, err = run_cli(capsys, "oracle", report_file)
    assert code == 2
    assert f"$.parameters.{key}: {message}" in err


def test_oracle_detects_overflowing_stored_result(capsys, tmp_path):
    report_file, doc = _saved_report(capsys, tmp_path)
    for literal in ("1e400", "1" + "0" * 400):
        report_file.write_text(_with_literal(doc, ("result", "bounds", 3), literal))
        code, _, err = run_cli(capsys, "oracle", report_file)
        assert code == 3
        assert "result.bounds[3]" in err


@pytest.mark.parametrize("content", [b"\xff\xfe not utf-8", b"[" * 100_000,
                                     b'{"dimension": ' + b"1" * 5000 + b"}"])
def test_unreadable_input_is_input_error(capsys, tmp_path, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    for command in ("verify", "oracle"):
        code, report, err = run_cli(capsys, command, bad)
        assert code == 2
        assert report is None


def _assert_io_error(child):
    err = child.stderr.decode()
    assert child.returncode == 2, err
    assert "i/o error:" in err
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args", [("gen", "--n", "2", "--p", "1"),
                                  ("gen", "--n", "24", "--p", "12")],
                         ids=["small", "large"])
def test_closed_pipe_on_stdout_is_an_io_error(args, unbuffered):
    """A reader that is gone before the report is written: the small report
    fits the stdout buffer, the large one (22 kB) does not."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = child_env(PYTHONUNBUFFERED="1") if unbuffered else child_env()
    try:
        child = run_process(*args, stdout=write_end, env=env)
    finally:
        os.close(write_end)
    _assert_io_error(child)


def test_closed_stdout_is_an_io_error():
    child = run_process("verify", FIXTURES / "fusion_dim6.json", stdout=None,
                        preexec_fn=lambda: os.close(1))
    _assert_io_error(child)
    assert "standard output is closed" in child.stderr.decode()


def test_help_reaches_a_pipe():
    """``run`` flushes stdout before ``os._exit``, so text that argparse
    writes outside ``_emit`` still arrives."""
    child = run_process("--help")
    assert child.returncode == 0
    assert child.stdout.startswith(b"usage: kreinframes")


def test_process_entry_lets_an_exception_through(monkeypatch):
    """``run`` ends the process only after ``main`` returns: an exception
    that escapes ``main`` reaches the interpreter (traceback, exit 1)."""
    def broken(argv):
        raise RuntimeError("escaped main")

    def exit_now(code):
        raise AssertionError(f"os._exit({code}) called")

    monkeypatch.setattr(cli, "main", broken)
    monkeypatch.setattr(cli.os, "_exit", exit_now)
    with pytest.raises(RuntimeError, match="escaped main"):
        cli.run()


def test_missing_file_is_input_error(capsys, tmp_path):
    code, report, err = run_cli(capsys, "verify", tmp_path / "nope.json")
    assert code == 2


def test_unknown_subcommand_exits_two(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("flag, value", [("--variant", "paper"), ("--variant", "qproj"),
                                         ("--tol-num", "1e-9")])
def test_removed_flags_exit_two(capsys, flag, value):
    """``--variant`` and ``--tol-num`` were read by no command and are gone."""
    code, report, err = run_cli(capsys, "verify", FIXTURES / "fusion_dim6.json", flag, value)
    assert code == 2
    assert report is None
    assert flag in err


def test_part_spans_take_the_callers_tol_rank(capsys, tmp_path):
    """Two positive lines 1e-3 apart span one dimension at --tol-rank 0.01:
    ``classify`` says so, and every verifying command decides its part spans
    at the same cutoff; at the default cutoff they span two."""
    doc = {"dimension": 3, "J": {"type": "diagonal", "signs": [1, 1, -1]},
           "family": {"entries": [{"basis": [[1, 0, 0]], "weight": 1},
                                  {"basis": [[1, 0.001, 0]], "weight": 1},
                                  {"basis": [[0, 0, 1]], "weight": 1}]},
           "vectors": [[1, 0, 0], [1, 0.001, 0], [0, 0, 1]]}
    path = tmp_path / "near_parallel.json"
    path.write_text(json.dumps(doc))
    code, report, _ = run_cli(capsys, "classify", path, "--tol-rank", "0.01")
    assert code == 0
    assert report["result"]["positive_span"]["dim"] == 1
    assert report["result"]["complete"] is False
    vectors_only = tmp_path / "near_parallel_vectors.json"
    vectors_only.write_text(json.dumps({k: v for k, v in doc.items() if k != "family"}))
    reason = "positive span has dimension 1, signature requires 2"
    for command, problem in (("verify", path), ("verify-frame", path), ("bounds", path),
                             ("dual", path), ("dual", vectors_only)):
        code, report, _ = run_cli(capsys, command, problem, "--tol-rank", "0.01")
        assert code == 1
        if command == "dual":
            assert report["result"]["rejected"] == {"reason": reason}
        else:
            assert reason in report["result"]["reasons"]
        if command in ("verify", "verify-frame"):
            assert report["result"]["positive"]["dim_ok"] is False
        code, report, _ = run_cli(capsys, command, problem)
        assert code == 0


def test_gen_takes_no_tolerance(capsys, monkeypatch):
    """``gen`` reads no tolerance: it refuses the flags, and ignores the
    environment variable."""
    code, report, err = run_cli(capsys, "gen", "--tol-def", "0.5")
    assert code == 2 and report is None
    assert "--tol-def" in err
    args = ["gen", "--n", "6", "--p", "3", "--seed", "2"]
    assert main(args) == 0
    plain = capsys.readouterr().out
    monkeypatch.setenv("KREINFRAME_TOLERANCE", "abc")
    assert main(args) == 0
    assert capsys.readouterr().out == plain


def test_oracle_takes_the_stored_parameters_only(capsys, tmp_path, monkeypatch):
    """``oracle`` refuses the tolerance flags, ignores the environment
    variable, and records the parameters of the stored report it re-ran at."""
    report_file = tmp_path / "report.json"
    assert run_cli(capsys, "verify", FIXTURES / "fusion_dim6.json", "--tol-rank", "1e-8",
                   "-o", report_file)[0] == 0
    code, report, err = run_cli(capsys, "oracle", "--tol-rank", "1e-3", report_file)
    assert code == 2 and report is None
    assert "--tol-rank" in err
    assert main(["oracle", str(report_file)]) == 0
    plain = capsys.readouterr().out
    assert json.loads(plain)["parameters"] == {"tol_def": 1e-10, "tol_rank": 1e-8}
    monkeypatch.setenv("KREINFRAME_TOLERANCE", "abc")
    assert main(["oracle", str(report_file)]) == 0
    assert capsys.readouterr().out == plain


def test_oracle_rejects_version_one_report(capsys, tmp_path):
    report_file, doc = _saved_report(capsys, tmp_path)
    doc["report_version"] = 1
    doc["parameters"].update(tol_num=1e-9, variant="qproj")
    report_file.write_text(json.dumps(doc))
    code, report, err = run_cli(capsys, "oracle", report_file)
    assert code == 2
    assert report is None
    assert "$.report_version: unsupported report_version 1" in err


@pytest.mark.parametrize("version", [2, 3, 4, 5, 6, 7, 8])
def test_oracle_rejects_superseded_report_version(capsys, tmp_path, version):
    """Version 2 re-encoded the problem; version 3 took near-neutral bounds
    through a QZ route, so they move on recomputation; version 4 took bases
    from a pivoted QR and version 5 dual-entry bases from an SVD, so
    dual-entry bases move by a rotation; version 6 took the dual operator
    residual through ||S^-1|| and entry Grams from strided bases, so
    near-neutral dual results move; version 7 stored the sampled oracle's
    values and a ``seed`` parameter, which no command reads any more;
    version 8 took family part spans from the unweighted entry bases, so
    near-neutral fusion estimates move."""
    report_file, doc = _saved_report(capsys, tmp_path)
    doc["report_version"] = version
    report_file.write_text(json.dumps(doc, indent=2))
    code, report, err = run_cli(capsys, "oracle", report_file)
    assert code == 2
    assert report is None
    assert err == f"input error: $.report_version: unsupported report_version {version}\n"


def test_oracle_validates_the_embedded_problem_once(capsys, tmp_path, monkeypatch):
    report_file, _ = _saved_report(capsys, tmp_path)
    calls = []
    parse = kf.problem_io._parse_problem

    def counting(doc, path, from_text):
        calls.append(path)
        return parse(doc, path, from_text)

    monkeypatch.setattr(kf.problem_io, "_parse_problem", counting)
    code, _, _ = run_cli(capsys, "oracle", report_file)
    assert code == 0
    assert calls == ["$.problem"]


def test_report_parameters_are_the_live_ones(capsys):
    _, report, _ = run_cli(capsys, "verify", FIXTURES / "fusion_dim6.json")
    assert report["parameters"] == {"tol_def": 1e-10, "tol_rank": 1e-10}


# ---------------------------------------------------------------------------
# finite input near the double limit

DIAG_J = {"type": "diagonal", "signs": [1, -1]}
DOUBLE_MAX = float(np.finfo(float).max)


def _near_limit_problem(scale: float) -> dict:
    """A valid two-entry family and an operator, with entries of size ``scale``."""
    return {
        "dimension": 2,
        "J": DIAG_J,
        "family": {"entries": [{"basis": [[scale, 0.1 * scale]], "weight": 1.0},
                               {"basis": [[0.0, 1.0]], "weight": 1.0}]},
        "operator": [[scale, scale], [scale, -scale]],
    }


@pytest.mark.parametrize("command, expected", [
    ("classify", 0), ("verify", 0), ("bounds", 0), ("dual", 0), ("transform", 1),
])
def test_near_limit_input_matches_unit_scale(capsys, tmp_path, command, expected):
    """Bases and operators near the double limit give the report of the same problem at scale 1."""
    results = []
    for scale in (1e308, DOUBLE_MAX, 1.0):
        problem = tmp_path / f"problem_{scale:g}.json"
        problem.write_text(json.dumps(_near_limit_problem(scale)))
        report_file = tmp_path / f"report_{scale:g}.json"
        code, report, err = run_cli(capsys, command, problem, "-o", report_file)
        assert code == expected, err
        results.append(report["result"])
        code, _, err = run_cli(capsys, "oracle", report_file)
        assert code == 0, err
    for result in results[:-1]:
        diffs: list[str] = []
        oracles.compare_trees(results[-1], result, "result", diffs)
        assert not diffs


OVERFLOWING_BOUNDS = {
    "bessel": ("vectors", [[1.2e154, 0.0], [1.2e154, 0.0], [0.0, 1.0]],
               "input error: the Bessel bound overflows a double"),
    "self_product": ("vectors", [[1e308, 1e307], [0.0, 1.0], [1.0, 0.0]],
                     "input error: the self-product of vector 0 overflows a double"),
    "weight": ("family", {"entries": [{"basis": [[1.0, 0.0]], "weight": 1.2e154},
                                      {"basis": [[0.0, 1.0]], "weight": 1.0}]},
               "input error: the positive frame bound overflows a double"),
    "condition_number": ("vectors", [[1.0, 0.0], [0.0, 1e-200]],
                         "input error: the condition number of the frame operator "
                         "overflows a double"),
    # B+ = 1.0000002e300 and the Bessel bound 1e300 are finite; the estimate
    # sigma^2 / gamma, about 5e308, is not, and neither is S
    "estimate": ("family", {"entries": [{"basis": [[1.0, 1.0 - 2e-9]], "weight": 1e150},
                                        {"basis": [[0.0, 1.0]], "weight": 1.0}]},
                 "input error: the positive bound estimate overflows a double"),
    # the bounds are finite; S and the Bessel bound are not
    "operator": ("vectors", [[7e153, 7e153 * (1.0 - 2e-9)]] * 4 + [[0.0, 1.0]],
                 "input error: the Bessel bound overflows a double"),
    # S is finite, its largest singular value (about 1.96e308) is not
    "operator_norm": ("vectors", [[7e153, 7e153 * (1.0 - 2e-9)]] * 2 + [[0.0, 1.0]],
                      "input error: the Bessel bound overflows a double"),
}
# ``dual`` verifies the original for its bounds only, so it names the first
# quantity that it computes and that overflows: a bound, or S itself
DUAL_OVERFLOWS = {
    "bessel": "input error: the positive frame bound overflows a double",
    "estimate": "input error: the frame operator overflows a double",
    "operator": "input error: the frame operator overflows a double",
    "operator_norm": "input error: the frame operator overflows a double",
}
OVERFLOW_REFUSALS = [
    pytest.param(command, section, value,
                 DUAL_OVERFLOWS.get(name, message) if command == "dual" else message,
                 id=f"{command}-{name}")
    for name, (section, value, message) in OVERFLOWING_BOUNDS.items()
    for command in ("verify" if section == "family" else "verify-frame", "bounds", "dual")]


@pytest.mark.parametrize("scale", [1e-200, 1e-160])
def test_frame_of_tiny_vectors(capsys, tmp_path, recwarn, scale):
    """Tiny vectors are signed as at unit scale; the frame verifies and its
    report re-derives, and the dual, whose S^-1 overflows, is refused."""
    doc = {"dimension": 2, "J": DIAG_J, "vectors": [[scale, 0.0], [0.0, scale], [scale, 0.0]]}
    problem = tmp_path / "tiny.json"
    problem.write_text(json.dumps(doc))
    report_file = tmp_path / "report.json"
    code, report, _ = run_cli(capsys, "verify-frame", problem, "-o", report_file)
    assert code == 0
    assert report["result"]["signs"] == [1, -1, 1]
    assert report["result"]["condition_number"] == pytest.approx(2.0, rel=1e-12)
    assert run_cli(capsys, "oracle", report_file)[0] == 0
    code, report, err = run_cli(capsys, "dual", problem)
    assert code == 2
    assert report is None
    assert err == "input error: the inverse frame operator overflows a double\n"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_dual_of_an_ill_conditioned_frame_is_answered(capsys, tmp_path, recwarn):
    """S of [[1e6, 0], [0, 1e-6]] has singular values 1e12 and 1e-12: it is
    invertible, however ill-conditioned, so ``dual`` answers and ``oracle``
    agrees with its report."""
    problem = tmp_path / "ill_conditioned.json"
    problem.write_text(json.dumps({"dimension": 2, "J": DIAG_J,
                                   "vectors": [[1e6, 0.0], [0.0, 1e-6]]}))
    report_file = tmp_path / "report.json"
    code, report, err = run_cli(capsys, "dual", problem, "-o", report_file)
    assert code == 0, err
    assert report["result"]["dual_bounds"] == pytest.approx([-1e12, -1e12, 1e-12, 1e-12])
    code, _, err = run_cli(capsys, "oracle", report_file)
    assert code == 0, err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_dual_deviation_beyond_the_double_range_is_refused_by_name(capsys, tmp_path, recwarn):
    """Eigenlines of weights 1e150, 1, 1 under diag(1, -1, -1): a dual bound
    near 1e300 against its reciprocal expectation near 1e-300 deviates by
    1e600, which ``dual`` refuses by name, with no report."""
    problem = tmp_path / "deviation.json"
    problem.write_text(json.dumps({
        "dimension": 3, "J": {"type": "diagonal", "signs": [1, -1, -1]},
        "family": {"entries": [{"basis": [[1.0, 0.0, 0.0]], "weight": 1e150},
                               {"basis": [[0.0, 1.0, 0.0]], "weight": 1.0},
                               {"basis": [[0.0, 0.0, 1.0]], "weight": 1.0}]}}))
    code, report, err = run_cli(capsys, "dual", problem)
    assert code == 2
    assert report is None
    assert err == "input error: max_relative_deviation of the dual bounds overflows a double\n"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command, section, value, message", OVERFLOW_REFUSALS)
def test_frame_with_overflowing_bound_is_refused(capsys, tmp_path, recwarn, command, section,
                                                 value, message):
    """A frame or family whose bound exceeds the double range has no finite report:
    exit 2 with the overflow named, and no numpy warning on the way."""
    doc = {"dimension": 2, "J": DIAG_J, section: value}
    problem = tmp_path / "near_limit.json"
    problem.write_text(json.dumps(doc))
    code, report, err = run_cli(capsys, command, problem)
    assert code == 2
    assert report is None
    assert err == message + "\n"
    assert "RuntimeWarning" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


# ---------------------------------------------------------------------------
# near-neutral input: ill-conditioned, valid, and never an internal inconsistency


def _verify_then_oracle(capsys, tmp_path, problem: Path, kind: str) -> list[int]:
    """Exit codes of the verifying command of ``kind`` and ``bounds`` on
    ``problem``, each followed by ``oracle`` on the report it saved."""
    codes = []
    for command in ("verify" if kind == "fusion" else "verify-frame", "bounds"):
        report_file = tmp_path / f"{command}.json"
        code, _, err = run_cli(capsys, command, problem, "-o", report_file)
        assert code != 3, err
        codes.append(code)
        code, _, err = run_cli(capsys, "oracle", report_file)
        assert code == 0, err
    return codes


@pytest.mark.parametrize("kind", ["fusion", "frame"])
@pytest.mark.parametrize("instance_seed", range(8))
def test_near_neutral_sweep_exits_zero(capsys, tmp_path, kind, instance_seed):
    """``gen --n 6 --p 3 --tilt 0.9999999 --rotate``: the bounds of these parts
    carry rounding far above 1e-10 relative, and the cross-check allows it."""
    problem = tmp_path / "problem.json"
    frame_counts = ["--num-pos", 6, "--num-neg", 6] if kind == "frame" else []
    code, _, _ = run_cli(capsys, "gen", "--kind", kind, "--n", 6, "--p", 3, *frame_counts,
                         "--tilt", 0.9999999, "--rotate", "--seed", instance_seed,
                         "-o", problem)
    assert code == 0
    assert _verify_then_oracle(capsys, tmp_path, problem, kind) == [0, 0]


@seed(3)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    kind=st.sampled_from(["fusion", "frame"]),
    dim=st.integers(min_value=2, max_value=16),
    p_offset=st.integers(min_value=0, max_value=6),
    neutrality=st.floats(min_value=0.0, max_value=9.0),
    rotate=st.booleans(),
    plant=st.sampled_from(["none", "deficient"]),
    instance_seed=st.integers(min_value=0, max_value=10_000),
)
def test_generated_exit_codes_follow_the_plant(capsys, tmp_path, kind, dim, p_offset,
                                               neutrality, rotate, plant, instance_seed):
    """Dimensions 2 to 16 and tilts from 0 to 1 - 1e-9 (``neutrality`` is
    -log10(1 - tilt)): a sound problem exits 0 and a deficient one 1, and no
    run exits 3, although the oracle block brackets every bound."""
    low = 2 if plant == "deficient" else 0
    num_positive = low + p_offset % (dim - low + 1)
    cfg = kf.GeneratorConfig(kind=kind, seed=instance_seed, dim=dim, num_positive=num_positive,
                             tilt=1.0 - 10.0**-neutrality, plant=plant, rotate=rotate)
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(kf.gen_problem(cfg)))
    expected = 0 if plant == "none" else 1
    assert _verify_then_oracle(capsys, tmp_path, problem, kind) == [expected, expected]


def _family_file(tmp_path, entries) -> Path:
    doc = {"dimension": 2, "J": {"type": "diagonal", "signs": [1, -1]},
           "family": {"entries": entries}, "operator": [[2.0, 0.0], [0.0, 1.0]]}
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("command", ["verify", "bounds", "dual"])
def test_non_positive_weight_reason_is_the_plain_float(capsys, tmp_path, command):
    path = _family_file(tmp_path, [{"basis": [[1.0, 0.0]], "weight": -1.5},
                                   {"basis": [[0.0, 1.0]], "weight": 1.0}])
    code, report, _ = run_cli(capsys, command, path)
    assert code == 1
    assert report["result"]["rejected"] == {
        "reason": "weight 0 is -1.5, must be strictly positive", "index": 0}


@pytest.mark.parametrize("command", ["verify", "bounds", "dual", "classify", "transform"])
def test_entry_of_rank_zero_is_named(capsys, tmp_path, command):
    path = _family_file(tmp_path, [{"basis": [[1.0, 0.0]], "weight": 1.0},
                                   {"basis": [[0, 0]], "weight": 1.0}])
    code, report, err = run_cli(capsys, command, path)
    assert code == 2
    assert report is None
    assert err == "input error: entry 1: spanning set has numerical rank zero\n"


def test_svd_that_does_not_converge_is_a_numerical_failure(capsys, tmp_path, monkeypatch):
    """LAPACK's SVD failing on an entry's spanning set: exit 4 and a message
    that names the kernel, with no report and no traceback."""
    def diverging(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", diverging)
    report_file = tmp_path / "report.json"
    for command in ("verify", "classify", "dual"):
        code, report, err = run_cli(capsys, command, FIXTURES / "fusion_dim6.json",
                                    "-o", report_file)
        assert code == 4
        assert report is None and not report_file.exists()
        assert err == ("numerical failure: the SVD (LAPACK gesdd) of a 6x2 matrix did not "
                       "converge\n")
