"""Strict JSON problem/report parsing and canonical serialization."""

import dataclasses
import enum
import gc
import io
import json
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import kreinframes as kf
from kreinframes import cli, problem_io

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
    # a number that is not a JSON number is refused in memory at any value
    *(({"vectors": [[0.25, 2.0], [number, 2.0]]}, "$.vectors[1][0]: expected a number")
      for number in (Decimal("0.5"), np.float32(0.5), Fraction(1, 3), np.int64(2),
                     Decimal("1"), np.float32(1.0))),
    # J.signs holds integers 1 and -1, not other numbers of those values
    *(({"J": {"type": "diagonal", "signs": signs}},
       "$.J.signs: signs must be a list of 2 entries from {1, -1}")
      for signs in ([1.0, -1.0], [1, 2], [Decimal("1"), np.int64(-1)], [True, -1])),
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


# The typed pass (``_check_matrix``, ``_check_entries``) against the exact
# walk: the same array bits where both accept, the same message and path
# where they refuse.  JSON_CELLS mix what JSON can hold: floats, exact 0 and
# 1 (as floats and ints), bools (which read as 0 or 1), integers above 2**53
# and beyond the double range, 1e400 (decoded as inf), numeric strings,
# None, nested lists and dicts.  A document built in memory may also hold
# objects that convert to a float but are not JSON numbers, which the walk
# refuses at any value: CELLS adds them at 0, 1 and 0.5 (2 for an integer).
JSON_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, 0, 1, True, False, float("inf"), float("-inf")]),
    st.integers(min_value=2**53, max_value=2**1100).map(lambda k: k * (-1) ** (k % 2)),
    st.sampled_from(["1.5", "0", None, [1.0], [], {}, {"a": 1.0}]),
)
CELLS = st.one_of(
    JSON_CELLS,
    st.sampled_from([Decimal("0"), Decimal("1"), Decimal("0.5"),
                     np.float32(0.0), np.float32(1.0), np.float32(0.5),
                     Fraction(0), Fraction(1), Fraction(1, 2),
                     np.int64(0), np.int64(1), np.int64(2)]),
)
PLAIN_CELLS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from([0.0, 1.0, 0, 1, 2**60]))


@st.composite
def row_lists(draw, width: int, odd_cells=CELLS):
    """A matrix of ``width`` columns as rows, plain or with offenses: odd
    cells, ragged or empty rows, or no list at all."""
    cells = draw(st.sampled_from([PLAIN_CELLS, odd_cells]))
    rows = draw(st.lists(st.lists(cells, min_size=width, max_size=width), min_size=1, max_size=4))
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2]))):
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = draw(st.one_of(st.lists(cells, max_size=width + 1), st.none(),
                                 st.sampled_from([1.0, "row", {}])))
    return draw(st.sampled_from([rows] * 8 + [[], None, {"rows": rows}]))


def _walked(fn, *args):
    try:
        return "accepted", _bits(fn(*args))
    except kf.SchemaError as exc:
        return "refused", str(exc), exc.path


def _bits(value):
    if isinstance(value, np.ndarray):
        return value.shape, value.tobytes()
    return [(_bits(basis), np.float64(weight).tobytes()) for basis, weight in value]


@seed(19)
@settings(max_examples=600, deadline=None)
@given(st.integers(1, 3).flatmap(lambda width: st.tuples(st.just(width), row_lists(width))))
def test_typed_pass_is_the_exact_walk(case):
    width, rows = case
    assert (_walked(problem_io._check_matrix, rows, width, "$.m")
            == _walked(problem_io._walk_matrix, rows, width, "$.m"))


@seed(21)
@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda width: st.tuples(st.just(width), row_lists(width, JSON_CELLS))))
def test_typed_pass_of_json_text_is_the_exact_walk(case):
    """Rows decoded from JSON text, whose types are scanned only where they
    hold an exact 0 or 1."""
    width, rows = case
    assert (_walked(problem_io._check_matrix, rows, width, "$.m", True)
            == _walked(problem_io._walk_matrix, rows, width, "$.m"))


def _entries_walk(raw_entries, n, path):
    """The entries of a family decoded one by one, each basis by the exact walk."""
    decoded = []
    for i, entry in enumerate(raw_entries):
        epath = f"{path}[{i}]"
        if not isinstance(entry, dict):
            raise kf.SchemaError("entry must be an object", epath)
        problem_io._check_keys(entry, {"basis", "weight"}, {"basis", "weight"}, epath)
        basis = problem_io._walk_matrix(entry["basis"], n, f"{epath}.basis")
        if not problem_io._is_number(entry["weight"]):
            raise kf.SchemaError("weight must be a number", f"{epath}.weight")
        if not problem_io.is_finite_number(entry["weight"]):
            raise kf.SchemaError("weight must be a finite number", f"{epath}.weight")
        decoded.append((basis, float(entry["weight"])))
    return decoded


@st.composite
def family_entries(draw, width: int, odd_cells=CELLS):
    entries = draw(st.lists(st.fixed_dictionaries({
        "basis": row_lists(width, odd_cells),
        "weight": st.one_of(st.floats(0.5, 2.0), st.sampled_from([1, True, "1", 1e400, -1.0])),
    }), min_size=1, max_size=4))
    if draw(st.booleans()):  # one entry that is not a plain {basis, weight} object
        i = draw(st.integers(0, len(entries) - 1))
        entries[i] = draw(st.sampled_from([[1.0], {"basis": [[1.0] * width]},
                                           dict(entries[i], extra=1)]))
    return entries


@seed(20)
@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(lambda width: st.tuples(st.just(width), family_entries(width))))
def test_family_pass_is_the_walk_entry_by_entry(case):
    width, entries = case
    path = "$.family.entries"
    assert (_walked(problem_io._check_entries, entries, width, path)
            == _walked(_entries_walk, entries, width, path))


@seed(22)
@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda width: st.tuples(st.just(width), family_entries(width, JSON_CELLS))))
def test_family_pass_of_json_text_is_the_walk_entry_by_entry(case):
    width, entries = case
    path = "$.family.entries"
    assert (_walked(problem_io._check_entries, entries, width, path, True)
            == _walked(_entries_walk, entries, width, path))


@pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000, "1" * 5000])
def test_loads_strict_rejects_unparseable_depth_and_digits(text):
    with pytest.raises(kf.ParseError):
        kf.loads_strict('{"x": ' + text + "}")


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
    assert report["report_version"] == 9
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


def test_matrix_subclass_is_the_reference_encoding():
    """Only a plain 2-D array is written row by row: the rows of an
    ``np.matrix`` are matrices again, so it is written through ``tolist``."""
    with pytest.warns(PendingDeprecationWarning):
        doc = {"m": np.matrix([[1.0, -0.0], [2.5, 3.0]])}
    assert kf.dumps_canonical(doc) == dumps_reference(doc)


def test_cli_reports_are_the_reference_encoding(capsys, monkeypatch, tmp_path):
    """The envelope and ``result`` of every report are the reference encoding;
    the problem is the input's own text, or, in an ``oracle`` report, the
    reference encoding of the stored problem."""
    emitted = []

    def recording(doc):
        emitted.append(doc)
        return kf.canonical_parts(doc)

    monkeypatch.setattr(cli, "canonical_parts", recording)
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
# reports written from their parts, and one live form of the problem


def _generated(tmp_path, kind: str, n: int) -> Path:
    """A generated problem written as compact JSON, as the benchmark corpus
    writes its inputs: a rotated frame of 2n vectors, or a rotated family
    with an invertible operator."""
    vectors = n if kind == "frame" else 0
    doc = kf.gen_problem(kf.GeneratorConfig(kind=kind, seed=n, dim=n, num_positive=n // 2,
                                            num_vectors_positive=vectors,
                                            num_vectors_negative=vectors, rotate=True))
    if kind == "fusion":
        rotation = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))[0]
        doc["operator"] = (2.0 * rotation).tolist()
    path = tmp_path / f"{kind}{n}.json"
    path.write_text(json.dumps(doc))
    return path


def test_loaded_problem_keeps_its_text_and_no_document(tmp_path):
    problem = _generated(tmp_path, "fusion", 4)
    parsed = kf.load_problem(problem)
    assert parsed.text == problem.read_text() and parsed.document is None
    assert kf.jsonify(parsed) == json.loads(problem.read_text())
    assert kf.jsonify(kf.parse_problem(json.loads(problem.read_text()))) == kf.jsonify(parsed)


def test_every_route_writes_the_same_report_bytes(capsysbinary, tmp_path):
    """``dumps_canonical``, ``save_json``, stdout and the ``-o`` file agree
    byte for byte on a ``dual`` report whose dual vectors are written row by
    row, and on ``gen`` output; the report is the reference encoding."""
    problem = _generated(tmp_path, "frame", 16)
    parsed = kf.load_problem(problem)
    params = cli.Params(kf.TOL_DEF, kf.TOL_RANK)
    result = cli.run_dual(parsed, params).result
    assert result["dual_vectors"].shape == (32, 16)
    report = kf.make_report("dual", parsed, params._asdict(), result)
    envelope = dumps_reference({**report, "problem": None})
    assert kf.dumps_canonical(report) == envelope.replace(
        '\n  "problem": null,\n', f'\n  "problem": {problem.read_text()},\n', 1)
    generated = kf.gen_problem(kf.GeneratorConfig(kind="fusion", seed=3, dim=16,
                                                  num_positive=8, rotate=True))
    gen_argv = ["gen", "--seed", "3", "--n", "16", "--p", "8", "--rotate"]
    for argv, doc in ((["dual", str(problem)], report), (gen_argv, generated)):
        out, saved = tmp_path / "out.json", tmp_path / "saved.json"
        assert cli.main([*argv, "-o", str(out)]) == 0
        stdout = capsysbinary.readouterr().out
        kf.save_json(doc, saved)
        assert stdout == out.read_bytes() == saved.read_bytes() == kf.dumps_canonical(doc).encode()


@pytest.mark.parametrize("where", ["dual_vectors", "dual_operator_residual"])
def test_non_finite_result_writes_nothing(capsysbinary, tmp_path, monkeypatch, where):
    """A NaN in the last row of the dual vectors, or in the last number of
    the result, fails the report before any byte reaches stdout or ``-o``."""
    problem = _generated(tmp_path, "frame", 16)
    run_dual = cli.COMMAND_CORES["dual"]

    def planting(parsed, params):
        outcome = run_dual(parsed, params)
        if where == "dual_vectors":
            outcome.result[where][-1, -1] = np.nan
        else:
            outcome.result[where] = np.nan
        return outcome

    monkeypatch.setitem(cli.COMMAND_CORES, "dual", planting)
    out = tmp_path / "out.json"
    assert cli.main(["dual", str(problem), "-o", str(out)]) == 2
    captured = capsysbinary.readouterr()
    assert captured.out == b"" and not out.exists()
    assert captured.err == b"input error: refusing to serialize non-finite number nan\n"
    with pytest.raises(kf.ParseError):
        kf.save_json({"rows": np.array([[1.0, 2.0], [3.0, np.nan]])}, out)
    assert not out.exists()


def _traced_peak(call) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class _Discard(io.TextIOBase):
    """A stdout that keeps nothing, so that only the program's own memory is traced."""

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        return len(text)


@pytest.mark.parametrize("kind", ["frame", "fusion"])
def test_dual_holds_the_problem_and_report_once(tmp_path, monkeypatch, kind):
    """At n = 128, ``dual`` in process peaks within 1.15 times the peak of
    loading its problem (text, decoded lists and arrays, all live during the
    parse): no decoded document kept next to the arrays, no matrix held as
    Python numbers, no report held both as parts and as their join."""
    problem = _generated(tmp_path, kind, 128)
    monkeypatch.setattr(sys, "stdout", _Discard())
    monkeypatch.setattr(sys, "stderr", _Discard())
    assert cli.main(["dual", str(problem)]) == 0  # first-call caches
    loading = _traced_peak(lambda: kf.load_problem(problem))
    running = _traced_peak(lambda: cli.main(["dual", str(problem)]))
    assert running <= 1.15 * loading, running / loading


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
