"""Strict JSON problem/report parsing and canonical serialization."""

import dataclasses
import enum
import json
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import kreinframes as kf
from kreinframes import cli

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
COMMANDS = ("classify", "verify", "verify-frame", "bounds", "dual", "transform")


def _minimal_family_doc():
    return {
        "dimension": 2,
        "J": {"type": "diagonal", "signs": [1, -1]},
        "family": {"entries": [
            {"basis": [[1.0, 0.0]], "weight": 1.0},
            {"basis": [[0.0, 1.0]], "weight": 2.0},
        ]},
    }


def test_parse_minimal_family():
    parsed = kf.parse_problem(_minimal_family_doc())
    assert parsed.space.dim == 2
    assert parsed.space.num_positive == 1
    assert len(parsed.entries) == 2
    rows, weight = parsed.entries[1]
    assert weight == 2.0
    assert np.allclose(rows, [[0.0, 1.0]])
    assert parsed.vectors is None
    assert parsed.operator is None


def test_parse_matrix_symmetry():
    doc = {
        "dimension": 2,
        "J": {"type": "matrix", "rows": [[0.0, 1.0], [1.0, 0.0]]},
        "vectors": [[1.0, 0.5], [0.5, 1.0]],
    }
    parsed = kf.parse_problem(doc)
    assert parsed.space.num_positive == 1
    assert parsed.vectors.shape == (2, 2)


def test_parse_rejects_unknown_keys():
    doc = _minimal_family_doc()
    doc["extra"] = 1
    with pytest.raises(kf.SchemaError):
        kf.parse_problem(doc)


def test_parse_rejects_missing_dimension():
    doc = _minimal_family_doc()
    del doc["dimension"]
    with pytest.raises(kf.SchemaError):
        kf.parse_problem(doc)


def test_parse_rejects_wrong_row_length():
    doc = _minimal_family_doc()
    doc["family"]["entries"][0]["basis"] = [[1.0, 0.0, 0.0]]
    with pytest.raises(kf.SchemaError):
        kf.parse_problem(doc)


def _doc_with(**sections):
    doc = {"dimension": 2, "J": {"type": "diagonal", "signs": [1, -1]}}
    doc.update(sections)
    return doc


@pytest.mark.parametrize("sections, message", [
    ({"vectors": [[1.0, True]]}, "$.vectors[0][1]: expected a number"),
    ({"vectors": [["1.0", 0.0]]}, "$.vectors[0][0]: expected a number"),
    ({"vectors": [[1.0, None]]}, "$.vectors[0][1]: expected a number"),
    ({"vectors": [[1.0, 0.0], [1.0]]}, "$.vectors[1]: row length 1 differs from 2"),
    ({"vectors": [[1.0, 0.0], []]}, "$.vectors[1]: expected a non-empty list of numbers"),
    ({"vectors": [[1.0, 0.0, 0.0]]}, "$.vectors: row length 3, expected 2"),
    ({"vectors": [[[1.0, 0.0]]]}, "$.vectors[0][0]: expected a number"),
    ({"vectors": [1.0, 2.0]}, "$.vectors[0]: expected a non-empty list of numbers"),
    ({"vectors": []}, "$.vectors: expected a list of at least 1 rows"),
    ({"J": {"type": "matrix", "rows": [[1.0, 0.0], [0.0]]}},
     "$.J.rows[1]: row length 1 differs from 2"),
    ({"family": {"entries": [{"basis": [[1.0, False]], "weight": 1.0}]}},
     "$.family.entries[0].basis[0][1]: expected a number"),
    ({"operator": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]}, "$.operator: 3 rows, expected 2"),
    # a structural error ahead of an overflow keeps its message
    ({"vectors": [[10**400, 0.0], [1.0]]}, "$.vectors[1]: row length 1 differs from 2"),
    ({"vectors": [[10**400, 0.0, 1.0]]}, "$.vectors: row length 3, expected 2"),
])
def test_matrix_errors_keep_message_and_path(sections, message):
    with pytest.raises(kf.SchemaError) as caught:
        kf.parse_problem(_doc_with(**sections))
    assert str(caught.value) == message


def test_parse_accepts_numpy_scalars_in_memory():
    parsed = kf.parse_problem(_doc_with(vectors=[[np.float64(1.0), np.float64(0.5)], [0.0, 2]]))
    assert parsed.vectors.dtype == float
    assert parsed.vectors.tolist() == [[1.0, 0.5], [0.0, 2.0]]


OVERFLOWS = ("1e400", "-1e400", "1" + "0" * 400)


@pytest.mark.parametrize("literal", OVERFLOWS)
@pytest.mark.parametrize("template, path", [
    ('{{"dimension": 2, "J": {{"type": "matrix", "rows": [[1.0, 0.0], [0.0, {x}]]}}}}',
     "$.J.rows[1][1]"),
    ('{{"dimension": 2, "J": {{"type": "diagonal", "signs": [1, -1]}}, '
     '"family": {{"entries": [{{"basis": [[{x}, 0.0]], "weight": 1.0}}]}}}}',
     "$.family.entries[0].basis[0][0]"),
    ('{{"dimension": 2, "J": {{"type": "diagonal", "signs": [1, -1]}}, '
     '"family": {{"entries": [{{"basis": [[1.0, 0.0]], "weight": {x}}}]}}}}',
     "$.family.entries[0].weight"),
    ('{{"dimension": 2, "J": {{"type": "diagonal", "signs": [1, -1]}}, '
     '"vectors": [[1.0, 0.0], [0.5, {x}]]}}', "$.vectors[1][1]"),
    ('{{"dimension": 2, "J": {{"type": "diagonal", "signs": [1, -1]}}, '
     '"operator": [[{x}, 0.0], [0.0, 1.0]]}}', "$.operator[0][0]"),
])
def test_numbers_overflowing_a_double_are_rejected_with_path(literal, template, path):
    doc = kf.loads_strict(template.format(x=literal))
    with pytest.raises(kf.SchemaError) as caught:
        kf.parse_problem(doc)
    assert caught.value.path == path
    assert "finite number" in str(caught.value)


def test_parse_rejects_non_finite_in_memory():
    with pytest.raises(kf.SchemaError, match=r"\$\.vectors\[0\]\[0\]: expected a finite number"):
        kf.parse_problem(_doc_with(vectors=[[float("nan"), 0.0]]))


@pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000, "1" * 5000])
def test_loads_strict_rejects_unparseable_depth_and_digits(text):
    with pytest.raises(kf.ParseError):
        kf.loads_strict('{"x": ' + text + "}")


def test_parse_rejects_bad_sign_values():
    doc = _minimal_family_doc()
    doc["J"] = {"type": "diagonal", "signs": [1, 2]}
    with pytest.raises(kf.SchemaError):
        kf.parse_problem(doc)


def test_parse_rejects_non_involution_matrix():
    doc = {
        "dimension": 2,
        "J": {"type": "matrix", "rows": [[2.0, 0.0], [0.0, -1.0]]},
        "vectors": [[1.0, 0.0]],
    }
    with pytest.raises((kf.SchemaError, kf.NotAnInvolution)):
        kf.parse_problem(doc)


def test_loads_strict_rejects_nan_and_infinity():
    with pytest.raises(kf.ParseError):
        kf.loads_strict('{"x": NaN}')
    with pytest.raises(kf.ParseError):
        kf.loads_strict('{"x": Infinity}')


def test_loads_strict_rejects_malformed_json():
    with pytest.raises(kf.ParseError):
        kf.loads_strict("{not json")


def test_jsonify_handles_package_types(minkowski2):
    sub = kf.span(np.array([[1.0, 0.0]]), minkowski2)
    cls = kf.classify(sub)
    doc = kf.jsonify(cls)
    assert doc["kind"] == "UniformlyPositive"
    assert doc["margin"] == pytest.approx(1.0)
    assert isinstance(doc["eigenvalues"], list)


def test_jsonify_refuses_non_finite():
    with pytest.raises(kf.InputError):
        kf.jsonify({"x": float("nan")})
    with pytest.raises(kf.InputError):
        kf.jsonify(np.array([np.inf]))


def test_dumps_canonical_round_trip():
    doc = _minimal_family_doc()
    text = kf.dumps_canonical(doc)
    assert text.endswith("\n")
    assert kf.loads_strict(text) == doc
    # canonical output is stable
    assert kf.dumps_canonical(kf.loads_strict(text)) == text


def test_save_and_load_problem(tmp_path):
    path = tmp_path / "problem.json"
    kf.save_json(_minimal_family_doc(), path)
    parsed = kf.load_problem(path)
    assert parsed.space.dim == 2


def test_make_report_envelope():
    problem = _minimal_family_doc()
    report = kf.make_report("verify", problem, {"seed": 0}, {"verdict": True})
    assert report["report_version"] == 8
    assert report["command"] == "verify"
    assert report["problem"] == problem
    assert report["parameters"] == {"seed": 0}
    assert report["result"] == {"verdict": True}


def test_parse_report_requires_envelope_keys():
    problem = _minimal_family_doc()
    report = kf.make_report("verify", problem, {}, {"verdict": True})
    assert kf.parse_report(json.loads(json.dumps(report))) == report
    bad = dict(report)
    del bad["result"]
    with pytest.raises(kf.SchemaError):
        kf.parse_report(bad)
    unversioned = dict(report)
    unversioned["report_version"] = 99
    with pytest.raises(kf.SchemaError):
        kf.parse_report(unversioned)


# ---------------------------------------------------------------------------
# byte identity of dumps_canonical with the definition it replaced


def jsonify_reference(obj):
    """The element-by-element ``jsonify`` that defined the canonical form."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            raise kf.ParseError(f"refusing to serialize non-finite number {x!r}")
        return x
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, np.ndarray):
        return jsonify_reference(obj.tolist())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonify_reference(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): jsonify_reference(v) for k, v in obj.items()}
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        return {name: jsonify_reference(v) for name, v in zip(obj._fields, obj)}
    if isinstance(obj, (list, tuple)):
        return [jsonify_reference(v) for v in obj]
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dumps_reference(doc) -> str:
    return json.dumps(jsonify_reference(doc), indent=2, allow_nan=False) + "\n"


def _outcome(fn, doc):
    try:
        return "ok", fn(doc)
    except (kf.ParseError, TypeError, ValueError) as exc:
        return type(exc), str(exc)


class Colour(enum.Enum):
    RED = "red"
    BLUE = "bl\u00fc"


class Rank(enum.IntEnum):
    LOW = 1
    HIGH = 10**20


class Shape(enum.Enum):
    PAIR = (2, 3.5)
    GRID = ((1.0, -0.0), ("x", None))


@dataclasses.dataclass(frozen=True)
class Node:
    left: object
    right: object


class Pair(NamedTuple):
    """A named-tuple node: an object of its fields, not a list."""

    first: object
    second: object


EXTREME_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, 2.2250738585072014e-308)
NON_FINITE = (float("nan"), float("inf"), float("-inf"))

finite_floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from(EXTREME_FLOATS))
numbers = st.one_of(
    finite_floats,
    st.integers(),
    st.integers(min_value=-10**400, max_value=10**400),
    st.booleans(),
    finite_floats.map(np.float64),
    st.integers(min_value=-2**63, max_value=2**63 - 1).map(np.int64),
)
texts = st.text(st.characters(codec=None, exclude_categories=("Cs",)), max_size=8)
scalars = st.one_of(st.none(), numbers, texts,
                    st.sampled_from(list(Colour) + list(Rank) + list(Shape)))
arrays = st.one_of(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4),
               elements=finite_floats),
    hnp.arrays(np.float64, st.tuples(st.just(0), st.integers(0, 3))),
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=3)),
    hnp.arrays(np.bool_, st.integers(0, 3)),
    hnp.arrays(np.float32, st.integers(1, 3), elements=st.floats(-1e6, 1e6, width=32)),
)
keys = st.one_of(texts, st.integers(-3, 3), st.booleans(), st.none(),
                 st.sampled_from([1.5, -0.0, "1", "True"]))


def _trees(leaves):
    return st.recursive(
        st.one_of(leaves, arrays, st.lists(numbers, max_size=6)),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=3).map(tuple),
            st.dictionaries(keys, children, max_size=4),
            st.builds(Node, children, children),
            st.builds(Pair, children, children),
        ),
        max_leaves=12,
    )


@seed(3)
@settings(max_examples=300, deadline=None)
@given(_trees(scalars))
def test_dumps_canonical_is_the_reference_encoding(doc):
    expected = dumps_reference(doc)
    assert kf.dumps_canonical(doc) == expected
    assert json.dumps(kf.jsonify(doc), indent=2, allow_nan=False) + "\n" == expected


@seed(4)
@settings(max_examples=200, deadline=None)
@given(_trees(st.one_of(scalars, st.sampled_from(NON_FINITE),
                        st.sampled_from(NON_FINITE).map(np.float64),
                        hnp.arrays(np.float64, hnp.array_shapes(max_dims=2), elements=st.floats())
                        .map(lambda a: a.T),
                        st.sampled_from([object(), 1j, {1, 2}, np.bool_(True),
                                         np.array([1j]), np.array(["a"], dtype=object)]))))
def test_dumps_canonical_raises_what_the_reference_raises(doc):
    assert _outcome(kf.dumps_canonical, doc) == _outcome(dumps_reference, doc)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("wrap", [
    lambda x: x,
    lambda x: [1.0, 2, x],
    lambda x: {"a": [[0.5, x]]},
    lambda x: np.float64(x),
    lambda x: np.array([[1.0, 2.0], [3.0, x]]),
    lambda x: np.array([[1.0, 2.0], [x, 4.0]]).T,
    lambda x: (Node(1.0, [x]),),
    lambda x: [Pair({"a": x}, 2.0)],
    lambda x: {3: x},
])
def test_non_finite_anywhere_is_a_parse_error(bad, wrap):
    doc = wrap(bad)
    with pytest.raises(kf.ParseError, match="non-finite") as caught:
        kf.dumps_canonical(doc)
    with pytest.raises(kf.ParseError) as reference:
        dumps_reference(doc)
    assert str(caught.value) == str(reference.value)
    with pytest.raises(kf.ParseError):
        kf.jsonify(doc)


@pytest.mark.parametrize("doc", [object(), [1.0, {2, 3}], {"a": 1j}, [np.bool_(False)],
                                 np.array([1 + 2j]), Node(None, [b"bytes"]),
                                 Pair(1.0, {1j})])
def test_unsupported_types_are_type_errors(doc):
    with pytest.raises(TypeError) as caught:
        kf.dumps_canonical(doc)
    with pytest.raises(TypeError) as reference:
        dumps_reference(doc)
    assert str(caught.value) == str(reference.value)


def test_cli_reports_are_the_reference_encoding(capsys, monkeypatch, tmp_path):
    """The envelope and ``result`` of every report are the reference encoding;
    the problem is the input's own text, or, in an ``oracle`` report, the
    reference encoding of the stored problem."""
    emitted = []

    def recording(doc):
        emitted.append(doc)
        return kf.dumps_canonical(doc)

    monkeypatch.setattr(cli, "dumps_canonical", recording)
    checked = 0
    for fixture in sorted(FIXTURES.glob("*.json")):
        for command in COMMANDS:
            report_file = tmp_path / f"{fixture.stem}.{command}.json"
            for argv in ([command, str(fixture), "-o", str(report_file)],
                         ["oracle", str(report_file)]):
                emitted.clear()
                code = cli.main(argv)
                out = capsys.readouterr().out
                if code == 2:
                    assert out == "" and not emitted
                    break
                assert len(emitted) == 1
                report = emitted[0]
                if argv[0] == "oracle":
                    assert report["problem"].text is None
                    assert out == dumps_reference({**report,
                                                   "problem": report["problem"].document})
                else:
                    envelope = dumps_reference({**report, "problem": None})
                    text = fixture.read_text().strip()
                    assert out == envelope.replace('\n  "problem": null,\n',
                                                   f'\n  "problem": {text},\n', 1)
                checked += 1
    assert checked >= 40


# ---------------------------------------------------------------------------
# the problem echo: the input's own text, spliced into the report

SPLICE_CASES = [("eigen_frame", "verify-frame"), ("tilted_frame", "dual"),
                ("fusion_dim6", "verify"), ("skewed_pair", "bounds"),
                ("r3_family", "classify"), ("neutral_image", "transform")]
# literal spellings of one number, placed in an extra vector or entry weight
NUMBER_SPELLINGS = ["1e5", "1E+2", "-0.0", "2.50E-3", "123456789012345678901234567890",
                    "0.1000000000000000055511151231257827"]
COMMENTS = st.one_of(st.text(max_size=8),
                     st.sampled_from(["na\u00efve", "\U0001d4d5rame \U0001f600",
                                      "\u2028 \\ \" \x7f"]))
LAYOUTS = [
    {"separators": (",", ":")},
    {},
    {"indent": 2},
    {"indent": 4, "separators": (" ,", " : ")},
    {"indent": "\t"},
]
SENTINEL = "@number@"


@st.composite
def problem_texts(draw):
    """A problem file's text in some layout, and the command to run on it."""
    name, command = draw(st.sampled_from(SPLICE_CASES))
    doc = json.loads((FIXTURES / f"{name}.json").read_text())
    if "vectors" in doc:
        doc["vectors"].append([SENTINEL] + [0.0] * (doc["dimension"] - 1))
    else:
        doc["family"]["entries"].append(
            {"basis": [[1.0] + [0.0] * (doc["dimension"] - 1)], "weight": SENTINEL})
    doc["comment"] = draw(COMMENTS)
    text = json.dumps(doc, ensure_ascii=draw(st.booleans()), **draw(st.sampled_from(LAYOUTS)))
    text = text.replace(json.dumps(SENTINEL), draw(st.sampled_from(NUMBER_SPELLINGS)))
    if draw(st.booleans()):  # a duplicate key: the later value is the one parsed
        text = '{"comment": "shadowed", "dimension": 99,' + text[1:]
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    blank = st.text(alphabet=" \t\r\n", max_size=3)
    return draw(blank) + text + draw(blank), command


@seed(6)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(problem_texts())
def test_report_echoes_the_input_text(capsys, tmp_path, case):
    text, command = case
    problem = tmp_path / "problem.json"
    problem.write_text(text, encoding="utf-8", newline="")
    report_file = tmp_path / "report.json"
    code = cli.main([command, str(problem), "-o", str(report_file)])
    out = capsys.readouterr().out
    assert code in (0, 1)
    assert out.isascii()
    assert report_file.read_bytes().decode() == out
    echoed = json.loads(out)["problem"]
    expected = json.loads(text)
    assert echoed == expected
    assert json.dumps(echoed) == json.dumps(expected)  # -0.0 and int/float kept apart
    ascii_text = "".join(c if c.isascii() else json.dumps(c)[1:-1]
                         for c in text.strip(" \t\r\n"))
    assert f'\n  "problem": {ascii_text},\n  "parameters": ' in out
    assert cli.main(["oracle", str(report_file)]) == 0
    capsys.readouterr()
