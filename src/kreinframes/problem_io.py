"""Strict JSON problem/report files and canonical serialization.

The documented schema lives in ``docs/format.md``.  Validation is
deliberately unforgiving: unknown keys, non-finite numbers (a number that
overflows a double, such as ``1e400`` or a 400-digit integer, counts as
infinite), and shape mismatches are rejected with the JSON path of the
offense.  A matrix is validated in one vectorized pass; only a matrix that
fails it is walked element by element to name the offense.

Serialization is canonical: two-space indent, non-ASCII and control
characters as ``\\uXXXX`` escapes, keys in insertion order, shortest
round-trip floats, and a trailing newline.  The text is exactly
``json.dumps(jsonify(doc), indent=2, allow_nan=False) + "\\n"``, so saving
the same document twice gives identical bytes.  ``dumps_canonical`` builds
it in one walk and hands each run of scalars, such as a matrix row, to the C
encoder of :mod:`json` in a single call.

The one exception is the problem a report echoes.  A :class:`ParsedProblem`
read from a file keeps the file's text, and a report built from it carries
that text as the value of ``problem``, after validation, without the
whitespace around it and with each non-ASCII character escaped as
``\\uXXXX``: it re-parses to the validated document, and nothing is encoded
twice.  A problem given as a dict, or parsed from a dict (as ``oracle``
parses the problem of a stored report), is written in the canonical form.
"""

import enum
import functools
import itertools
import json
import math
import re
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import KreinSpace, make_krein_space
from .errors import ParseError, SchemaError

PROBLEM_KEYS = {"dimension", "J", "family", "vectors", "operator", "comment"}
REPORT_KEYS = {"report_version", "command", "problem", "parameters", "result"}
REPORT_VERSION = 8

_INDENT = "  "
# list elements of exactly these types go to the C encoder as one run
_SCALAR_TYPES = frozenset({float, int, bool, str, type(None)})
_NUMBER_TYPES = frozenset({float, int})


def _reject_constant(name: str):
    raise ParseError(f"non-finite JSON constant {name!r} is not allowed")


def loads_strict(text: str) -> dict:
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:  # also an integer beyond the interpreter's digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top-level value must be an object")
    return doc


def _read_text(path) -> str:
    """The file's text as written: line ends are not translated."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}") from exc


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def is_finite_number(x) -> bool:
    """A JSON number that fits a double: not NaN, not infinite, no overflow."""
    if not _is_number(x):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer beyond the range of a double
        return False


def _check_keys(obj: dict, allowed: set[str], required: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"unknown field {key!r}", path)
    for key in required:
        if key not in obj:
            raise SchemaError(f"missing required field {key!r}", path)


def _check_rows(rows: list, path: str) -> None:
    width = None
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise SchemaError("expected a non-empty list of numbers", f"{path}[{i}]")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError(f"row length {len(row)} differs from {width}", f"{path}[{i}]")
        for jdx, x in enumerate(row):
            if not _is_number(x):
                raise SchemaError("expected a number", f"{path}[{i}][{jdx}]")


def _check_matrix(rows, n_cols: int | None, path: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise SchemaError("expected a list of at least 1 rows", path)
    # one pass at C speed for the common case: equal-width lists of plain
    # floats and ints; anything else takes the walk that names the offense
    if not (set(map(type, rows)) == {list}
            and len(set(map(len, rows))) == 1 and rows[0]
            and set(map(type, itertools.chain.from_iterable(rows))) <= _NUMBER_TYPES):
        _check_rows(rows, path)
    width = len(rows[0])
    if n_cols is not None and width != n_cols:
        raise SchemaError(f"row length {width}, expected {n_cols}", path)
    try:
        matrix = np.array(rows, dtype=float)
    except OverflowError:  # an integer beyond the range of a double
        matrix = None
    if matrix is None or not np.isfinite(matrix).all():
        i, jdx = next((i, jdx) for i, row in enumerate(rows)
                      for jdx, x in enumerate(row) if not is_finite_number(x))
        raise SchemaError("expected a finite number", f"{path}[{i}][{jdx}]")
    return matrix


class ParsedProblem(NamedTuple):
    """A validated problem document with arrays decoded.

    ``text`` is the JSON text ``document`` was read from, when it was read
    from a file; a report built from this problem echoes it.
    """

    dimension: int
    space: KreinSpace
    entries: tuple[tuple[np.ndarray, float], ...] | None
    vectors: np.ndarray | None
    operator: np.ndarray | None
    comment: str | None
    document: dict
    text: str | None = None


def parse_problem(doc: dict, path: str = "$") -> ParsedProblem:
    _check_keys(doc, PROBLEM_KEYS, {"dimension", "J"}, path)

    n = doc["dimension"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SchemaError("dimension must be a positive integer", f"{path}.dimension")

    jspec = doc["J"]
    if not isinstance(jspec, dict):
        raise SchemaError("J must be an object", f"{path}.J")
    jtype = jspec.get("type")
    if jtype == "diagonal":
        _check_keys(jspec, {"type", "signs"}, {"type", "signs"}, f"{path}.J")
        signs = jspec["signs"]
        if (not isinstance(signs, list) or len(signs) != n
                or any(s not in (1, -1) or isinstance(s, bool) for s in signs)):
            raise SchemaError(f"signs must be a list of {n} entries from {{1, -1}}",
                              f"{path}.J.signs")
        j = np.diag(np.array(signs, dtype=float))
    elif jtype == "matrix":
        _check_keys(jspec, {"type", "rows"}, {"type", "rows"}, f"{path}.J")
        j = _check_matrix(jspec["rows"], n, f"{path}.J.rows")
        if j.shape[0] != n:
            raise SchemaError(f"{j.shape[0]} rows, expected {n}", f"{path}.J.rows")
    else:
        raise SchemaError("J.type must be 'diagonal' or 'matrix'", f"{path}.J.type")
    space = make_krein_space(j)

    entries = None
    if "family" in doc:
        fam = doc["family"]
        if not isinstance(fam, dict):
            raise SchemaError("family must be an object", f"{path}.family")
        _check_keys(fam, {"entries"}, {"entries"}, f"{path}.family")
        raw_entries = fam["entries"]
        if not isinstance(raw_entries, list) or not raw_entries:
            raise SchemaError("entries must be a non-empty list", f"{path}.family.entries")
        decoded = []
        for i, entry in enumerate(raw_entries):
            epath = f"{path}.family.entries[{i}]"
            if not isinstance(entry, dict):
                raise SchemaError("entry must be an object", epath)
            _check_keys(entry, {"basis", "weight"}, {"basis", "weight"}, epath)
            basis = _check_matrix(entry["basis"], n, f"{epath}.basis")
            if not _is_number(entry["weight"]):
                raise SchemaError("weight must be a number", f"{epath}.weight")
            if not is_finite_number(entry["weight"]):
                raise SchemaError("weight must be a finite number", f"{epath}.weight")
            decoded.append((basis, float(entry["weight"])))
        entries = tuple(decoded)

    vectors = None
    if "vectors" in doc:
        vectors = _check_matrix(doc["vectors"], n, f"{path}.vectors")

    operator = None
    if "operator" in doc:
        operator = _check_matrix(doc["operator"], n, f"{path}.operator")
        if operator.shape[0] != n:
            raise SchemaError(f"{operator.shape[0]} rows, expected {n}", f"{path}.operator")

    comment = None
    if "comment" in doc:
        if not isinstance(doc["comment"], str):
            raise SchemaError("comment must be a string", f"{path}.comment")
        comment = doc["comment"]

    return ParsedProblem(
        dimension=n,
        space=space,
        entries=entries,
        vectors=vectors,
        operator=operator,
        comment=comment,
        document=doc,
    )


def load_problem(path) -> ParsedProblem:
    text = _read_text(path)
    return parse_problem(loads_strict(text))._replace(text=text)


def _parse_report(doc: dict) -> ParsedProblem:
    """Validate a report document; returns its embedded problem, parsed."""
    _check_keys(doc, REPORT_KEYS, REPORT_KEYS, "$")
    if doc["report_version"] != REPORT_VERSION:
        raise SchemaError(f"unsupported report_version {doc['report_version']!r}",
                          "$.report_version")
    if not isinstance(doc["command"], str):
        raise SchemaError("command must be a string", "$.command")
    if not isinstance(doc["problem"], dict):
        raise SchemaError("problem must be an object", "$.problem")
    if not isinstance(doc["parameters"], dict):
        raise SchemaError("parameters must be an object", "$.parameters")
    if not isinstance(doc["result"], dict):
        raise SchemaError("result must be an object", "$.result")
    return parse_problem(doc["problem"], "$.problem")


def parse_report(doc: dict) -> dict:
    """Validate a report document, its embedded problem included; returns ``doc``."""
    _parse_report(doc)
    return doc


def load_report(path) -> tuple[dict, ParsedProblem]:
    """The report document at ``path`` and its embedded problem, both validated."""
    doc = loads_strict(_read_text(path))
    return doc, _parse_report(doc)


def _non_finite(x: float) -> ParseError:
    return ParseError(f"refusing to serialize non-finite number {x!r}")


def _plain_lists(arr: np.ndarray):
    """``arr.tolist()`` if that holds only bools, ints and finite floats, else None.

    Floating arrays are checked in one vectorized pass that names the first
    non-finite element in the order ``tolist`` visits them.
    """
    if arr.dtype.kind not in "biuf" or arr.dtype.itemsize > 8:
        return None
    if arr.dtype.kind == "f":
        bad = ~np.isfinite(arr)
        if bad.any():
            raise _non_finite(float(arr[bad][0]))
    return arr.tolist()


def jsonify(obj):
    """Convert package objects to JSON-ready structures.

    Named tuples and dataclasses become objects of their fields, enums
    their values, arrays nested lists; non-finite floats are refused rather
    than smuggled into a file.
    """
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            raise _non_finite(x)
        return x
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, np.ndarray):
        lists = _plain_lists(obj)
        return jsonify(obj.tolist()) if lists is None else lists
    if isinstance(obj, ParsedProblem):
        return jsonify(obj.document)
    if hasattr(type(obj), "__dataclass_fields__"):  # a dataclass instance
        import dataclasses  # loaded already, since it made the class of obj
        return {f.name: jsonify(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        return {name: jsonify(v) for name, v in zip(obj._fields, obj)}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dumps_canonical(doc) -> str:
    """The canonical text of ``doc``: ``json.dumps(jsonify(doc), indent=2,
    allow_nan=False) + "\\n"``, with the same errors, built in one walk.

    A :class:`ParsedProblem` that keeps its input text is written as that
    text (see :func:`_echo`) instead of as the encoding of its document.
    """
    out: list[str] = []
    _write(doc, 0, out)
    out.append("\n")
    return "".join(out)


def _write(obj, level: int, out: list[str]) -> None:
    """Append the text of ``obj`` nested ``level`` deep; the branches follow ``jsonify``."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None or isinstance(obj, bool):
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(int.__repr__(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise _non_finite(x)
        out.append(float.__repr__(x))
    elif isinstance(obj, enum.Enum):
        # the value goes into the document as it is, so json decides its text
        text = json.dumps(obj.value, indent=2, allow_nan=False)
        out.append(text.replace("\n", "\n" + _INDENT * level))
    elif isinstance(obj, np.ndarray):
        lists = _plain_lists(obj)
        _write(obj.tolist() if lists is None else lists, level, out)
    elif isinstance(obj, ParsedProblem):
        if obj.text is None:
            _write(obj.document, level, out)
        else:
            out.append(_echo(obj.text))
    elif hasattr(type(obj), "__dataclass_fields__"):  # a dataclass instance
        import dataclasses  # loaded already, since it made the class of obj
        _write_items([(f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)],
                     level, out)
    elif isinstance(obj, dict):
        if all(type(k) is str for k in obj):
            _write_items(obj.items(), level, out)
        else:  # str(k) can merge keys; jsonify keeps the first place and the last value
            _write(jsonify(obj), level, out)
    elif isinstance(obj, tuple) and hasattr(obj, "_fields"):
        _write_items(zip(obj._fields, obj), level, out)
    elif isinstance(obj, (list, tuple)):
        _write_list(obj, level, out)
    else:
        raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


_NON_ASCII = re.compile(r"[^\x00-\x7f]")


def _echo(text: str) -> str:
    """Validated JSON text as a value inside a report: without the JSON
    whitespace around it, and ASCII.  A non-ASCII character can only stand
    inside a string literal, where its ``\\uXXXX`` escape (a surrogate pair
    above U+FFFF) reads back as the same character."""
    text = text.strip(" \t\n\r")
    if text.isascii():
        return text
    return _NON_ASCII.sub(lambda m: encode_basestring_ascii(m.group())[1:-1], text)


def _write_items(items, level: int, out: list[str]) -> None:
    inner = "\n" + _INDENT * (level + 1)
    opening = "{"
    for key, value in items:
        out.append(opening + inner + encode_basestring_ascii(key) + ": ")
        _write(value, level + 1, out)
        opening = ","
    out.append("{}" if opening == "{" else "\n" + _INDENT * level + "}")


@functools.lru_cache(maxsize=32)
def _run_encoder(level: int) -> json.JSONEncoder:
    """The C-backed encoder of a run of scalars in a list nested ``level`` deep."""
    return json.JSONEncoder(check_circular=False, allow_nan=False,
                            separators=(",\n" + _INDENT * (level + 1), ": "))


def _write_list(items, level: int, out: list[str]) -> None:
    if not items:
        out.append("[]")
        return
    inner = "\n" + _INDENT * (level + 1)
    if set(map(type, items)) <= _SCALAR_TYPES:
        try:
            text = _run_encoder(level).encode(items)
        except ValueError:
            for x in items:
                if type(x) is float and not math.isfinite(x):
                    raise _non_finite(x) from None
            raise
        out.append("[" + inner + text[1:-1] + "\n" + _INDENT * level + "]")
        return
    opening = "["
    for x in items:
        out.append(opening + inner)
        _write(x, level + 1, out)
        opening = ","
    out.append("\n" + _INDENT * level + "]")


def save_json(doc, path) -> None:
    Path(path).write_text(dumps_canonical(doc), encoding="utf-8")


def make_report(command: str, problem: ParsedProblem | dict, parameters: dict,
                result: dict) -> dict:
    """The report envelope.  ``problem`` is the parsed problem the command ran
    on, or a problem document; :func:`dumps_canonical` writes a parsed problem
    read from a file as its input text."""
    return {
        "report_version": REPORT_VERSION,
        "command": command,
        "problem": problem,
        "parameters": parameters,
        "result": result,
    }
