"""Command-line interface: exit codes, report envelopes, oracle re-runs."""

import json
from pathlib import Path

import numpy as np
import pytest

import kreinframes as kf
from kreinframes.cli import _compare_trees, main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(capsys, *args):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


# ---------------------------------------------------------------------------
# verify


def test_verify_valid_fusion_family(capsys):
    code, report, err = run_cli(capsys, "verify", FIXTURES / "fusion_dim6.json")
    assert code == 0
    assert report["report_version"] == 1
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


def test_bounds_skewed_pair(capsys):
    code, report, _ = run_cli(capsys, "bounds", FIXTURES / "skewed_pair.json")
    assert code == 0
    res = report["result"]
    assert np.allclose(res["bounds"], [-1.0, -1.0, 1.0, 1.0], atol=1e-9)
    assert np.allclose(res["bound_estimates"],
                       [-5.0 / 3.0, -0.36, 0.36, 5.0 / 3.0], atol=1e-9)
    assert res["estimates_contain_optimal"]["positive"] is True
    assert res["estimates_contain_optimal"]["negative"] is True


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


# ---------------------------------------------------------------------------
# parameters, output, and failure modes


def test_output_file_matches_stdout(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, report, _ = run_cli(capsys, "verify", FIXTURES / "fusion_dim6.json", "-o", out)
    assert code == 0
    assert json.loads(out.read_text()) == report


def test_tolerance_flags_recorded_in_report(capsys):
    code, report, _ = run_cli(capsys, "verify", FIXTURES / "fusion_dim6.json",
                              "--tol-def", "1e-8", "--seed", "5")
    assert code == 0
    params = report["parameters"]
    assert params["tol_def"] == 1e-8
    assert params["seed"] == 5


def test_tolerance_env_override(capsys, monkeypatch):
    monkeypatch.setenv("KREINFRAME_TOLERANCE", "1e-7")
    code, report, _ = run_cli(capsys, "verify", FIXTURES / "fusion_dim6.json")
    assert code == 0
    assert report["parameters"]["tol_def"] == 1e-7
    assert report["parameters"]["tol_num"] == 1e-7
    assert report["parameters"]["tol_rank"] == 1e-7


def test_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("KREINFRAME_TOLERANCE", "1e-7")
    code, report, _ = run_cli(capsys, "verify", FIXTURES / "fusion_dim6.json",
                              "--tol-def", "1e-9")
    assert code == 0
    assert report["parameters"]["tol_def"] == 1e-9
    assert report["parameters"]["tol_num"] == 1e-7


def test_bad_env_tolerance_is_input_error(capsys, monkeypatch):
    monkeypatch.setenv("KREINFRAME_TOLERANCE", "banana")
    code, report, err = run_cli(capsys, "verify", FIXTURES / "fusion_dim6.json")
    assert code == 2
    assert report is None


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
    ("tol_num", "1" + "0" * 400, "expected a positive finite number"),
    ("tol_rank", "0", "expected a positive finite number"),
    ("tol_def", "-1.0", "expected a positive finite number"),
    ("seed", "1e400", "expected a finite number"),
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


def test_missing_file_is_input_error(capsys, tmp_path):
    code, report, err = run_cli(capsys, "verify", tmp_path / "nope.json")
    assert code == 2


def test_unknown_subcommand_exits_two(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2


def test_paper_variant_flag(capsys):
    """The comparator variant is accepted and recorded; verdicts agree."""
    code, report, _ = run_cli(capsys, "verify", FIXTURES / "fusion_dim6.json",
                              "--variant", "paper")
    assert code == 0
    assert report["parameters"]["variant"] == "paper"


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
        _compare_trees(results[-1], result, "result", diffs)
        assert not diffs


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("command", ["verify-frame", "bounds", "dual"])
def test_frame_with_overflowing_bound_is_refused(capsys, tmp_path, command):
    """A frame whose bound exceeds the double range has no finite report: exit 2."""
    doc = {"dimension": 2, "J": DIAG_J, "vectors": [[1e308, 1e307], [0.0, 1.0], [1.0, 0.0]]}
    problem = tmp_path / "near_limit.json"
    problem.write_text(json.dumps(doc))
    code, report, err = run_cli(capsys, command, problem)
    assert code == 2
    assert report is None
    assert "non-finite" in err
