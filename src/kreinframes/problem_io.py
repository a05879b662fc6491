"""Strict JSON problem/report files and canonical serialization.

The documented schema lives in ``docs/format.md``.  Validation is
deliberately unforgiving: unknown keys, non-finite numbers (a number that
overflows a double, such as ``1e400`` or a 400-digit integer, counts as
infinite), and shape mismatches are rejected with the JSON path of the
offense.  A matrix is decoded in one typed pass: each row is packed into a
preallocated float array by one ``struct`` call, which refuses strings,
null, lists, objects and integers beyond the double range, and the bases of
all entries of a family share one such pass and one array.  What the call
takes but the schema refuses is found by the types: in a document decoded
from JSON text only a bool can pass for a number, so there the types are
scanned only in the rows that hold an exact 0 or 1; a document built in
memory may hold any number-like object, so there every row is scanned.
Only a matrix (or a family) that the pass cannot vouch for is walked
element by element (entry by entry), to name the first offense with its
path.

Serialization is canonical: two-space indent, non-ASCII and control
characters as ``\\uXXXX`` escapes, keys in insertion order, shortest
round-trip floats, and a trailing newline.  The text is exactly
``json.dumps(jsonify(doc), indent=2, allow_nan=False) + "\\n"``, so saving
the same document twice gives identical bytes.  :func:`canonical_parts`
builds it in one walk, as parts that :func:`save_json` and the CLI write
without joining them; it hands each run of scalars, such as a matrix row,
to the C encoder of :mod:`json` in a single call.

The one exception is the problem a report echoes.  A :class:`ParsedProblem`
read from a file keeps the file's text, and a report built from it carries
that text as the value of ``problem``, after validation, without the
whitespace around it and with each non-ASCII character escaped as
``\\uXXXX``: it re-parses to the validated document, and nothing is encoded
twice.  Such a problem keeps no decoded document: the decoded lists are
freed once the arrays are built.  A problem given as a dict, or parsed from
a dict (as ``oracle`` parses the problem of a stored report), is written in
the canonical form.
"""

import enum
import functools
import itertools
import json
import math
import re
import struct
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import KreinSpace, make_krein_space
from .errors import ParseError, SchemaError

PROBLEM_KEYS = {"dimension", "J", "family", "vectors", "operator", "comment"}
_ENTRY_KEYS = {"basis", "weight"}
REPORT_KEYS = {"report_version", "command", "problem", "parameters", "result"}
REPORT_VERSION = 9

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


def _walk_matrix(rows, width: int, path: str) -> np.ndarray:
    """The exact walk: ``rows`` validated element by element, so that the
    first offense is named with its path, then decoded by numpy."""
    if not isinstance(rows, list) or not rows:
        raise SchemaError("expected a list of at least 1 rows", path)
    _check_rows(rows, path)
    if len(rows[0]) != width:
        raise SchemaError(f"row length {len(rows[0])}, expected {width}", path)
    try:
        matrix = np.array(rows, dtype=float)
    except OverflowError:  # an integer beyond the range of a double
        matrix = None
    if matrix is None or not np.isfinite(matrix).all():
        i, jdx = next((i, jdx) for i, row in enumerate(rows)
                      for jdx, x in enumerate(row) if not is_finite_number(x))
        raise SchemaError("expected a finite number", f"{path}[{i}][{jdx}]")
    return matrix


def _decoded(matrices: list, width: int, from_text: bool = False) -> list[np.ndarray] | None:
    """Each of ``matrices`` (lists of rows) as a float array of ``width``
    columns, from one typed pass over all their rows into one array; None
    where that pass cannot vouch for every number.

    Each row is packed as ``width`` C doubles by one ``struct`` call, which
    takes floats and ints and refuses a row of another length, a str, None,
    a list, a dict or an integer beyond the double range.  It also packs
    every object that converts to a float, such as a bool (as 0.0 or 1.0),
    a ``Decimal`` or a numpy scalar, so the types of each row are scanned.
    ``from_text`` says that the rows were decoded from JSON text, where only
    a bool can be such an object: then only the rows that hold an exact 0
    or 1 are scanned.  A matrix without rows, a row that is not a list and a
    number that is not finite also give None.
    """
    if not all(type(rows) is list and rows for rows in matrices):
        return None
    counts = [len(rows) for rows in matrices]
    stack = np.empty((sum(counts), width))
    pack, step = struct.Struct(f"{width}d").pack_into, 8 * width
    try:
        for k, row in enumerate(itertools.chain.from_iterable(matrices)):
            if type(row) is not list:
                return None
            pack(stack, k * step, *row)
    except struct.error:
        return None
    if not np.isfinite(stack).all():
        return None
    scanned = (np.flatnonzero(((stack == 0.0) | (stack == 1.0)).any(axis=1)).tolist()
               if from_text else range(len(stack)))
    if scanned:
        all_rows = list(itertools.chain.from_iterable(matrices))
        if not all(set(map(type, all_rows[i])) <= _NUMBER_TYPES for i in scanned):
            return None
    starts = [0, *itertools.accumulate(counts)]
    return [stack[a:b] for a, b in zip(starts, starts[1:])]


def _check_matrix(rows, width: int, path: str, from_text: bool = False) -> np.ndarray:
    """``rows`` as a float matrix of ``width`` columns: the typed pass, or,
    where it cannot vouch for the numbers, the exact walk."""
    decoded = _decoded([rows], width, from_text)
    return _walk_matrix(rows, width, path) if decoded is None else decoded[0]


def _check_entries(raw_entries: list, n: int, path: str, from_text: bool = False
                   ) -> tuple[tuple[np.ndarray, float], ...]:
    """The (basis, weight) of each family entry.  All bases are decoded in
    one typed pass; where any entry is not a plain valid one, the entries are
    checked one by one, so that the first offense is named in entry order."""
    if all(type(entry) is dict and entry.keys() == _ENTRY_KEYS for entry in raw_entries):
        weights = [entry["weight"] for entry in raw_entries]
        bases = (_decoded([entry["basis"] for entry in raw_entries], n, from_text)
                 if all(map(is_finite_number, weights)) else None)
        if bases is not None:
            return tuple(zip(bases, map(float, weights)))
    decoded = []
    for i, entry in enumerate(raw_entries):
        epath = f"{path}[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError("entry must be an object", epath)
        _check_keys(entry, _ENTRY_KEYS, _ENTRY_KEYS, epath)
        basis = _check_matrix(entry["basis"], n, f"{epath}.basis", from_text)
        if not _is_number(entry["weight"]):
            raise SchemaError("weight must be a number", f"{epath}.weight")
        if not is_finite_number(entry["weight"]):
            raise SchemaError("weight must be a finite number", f"{epath}.weight")
        decoded.append((basis, float(entry["weight"])))
    return tuple(decoded)


class ParsedProblem(NamedTuple):
    """A validated problem document with arrays decoded.

    ``text`` is the problem file's JSON text, when the problem was read from
    a file (:func:`load_problem`); a report built from this problem echoes
    it, and ``document`` is then None, so that the decoded document is not
    held next to the text and the arrays.  A problem parsed from a dict
    (:func:`parse_problem`) keeps that dict as ``document`` and has no
    ``text``.
    """

    dimension: int
    space: KreinSpace
    entries: tuple[tuple[np.ndarray, float], ...] | None
    vectors: np.ndarray | None
    operator: np.ndarray | None
    comment: str | None
    document: dict | None
    text: str | None = None


def parse_problem(doc: dict, path: str = "$") -> ParsedProblem:
    """The problem document ``doc`` validated, its arrays decoded; a number
    is taken only where it is an int or a float (not a bool), whatever its
    value."""
    return _parse_problem(doc, path, from_text=False)


def _parse_problem(doc: dict, path: str, from_text: bool) -> ParsedProblem:
    """:func:`parse_problem`; ``from_text`` says that ``doc`` was decoded
    from JSON text (see :func:`_decoded`)."""
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
                or any(type(s) is not int or s not in (1, -1) for s in signs)):
            raise SchemaError(f"signs must be a list of {n} entries from {{1, -1}}",
                              f"{path}.J.signs")
        j = np.diag(np.array(signs, dtype=float))
    elif jtype == "matrix":
        _check_keys(jspec, {"type", "rows"}, {"type", "rows"}, f"{path}.J")
        j = _check_matrix(jspec["rows"], n, f"{path}.J.rows", from_text)
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
        entries = _check_entries(raw_entries, n, f"{path}.family.entries", from_text)

    vectors = None
    if "vectors" in doc:
        vectors = _check_matrix(doc["vectors"], n, f"{path}.vectors", from_text)

    operator = None
    if "operator" in doc:
        operator = _check_matrix(doc["operator"], n, f"{path}.operator", from_text)
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
    """The problem file at ``path``: its text and validated arrays, without
    the decoded document, which is freed once the arrays are built."""
    text = _read_text(path)
    return _parse_problem(loads_strict(text), "$", from_text=True)._replace(
        document=None, text=text)


def _parse_report(doc: dict, from_text: bool) -> ParsedProblem:
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
    return _parse_problem(doc["problem"], "$.problem", from_text)


def parse_report(doc: dict) -> dict:
    """Validate a report document, its embedded problem included; returns ``doc``."""
    _parse_report(doc, from_text=False)
    return doc


def load_report(path) -> tuple[dict, ParsedProblem]:
    """The report document at ``path`` and its embedded problem, both validated."""
    doc = loads_strict(_read_text(path))
    return doc, _parse_report(doc, from_text=True)


def _non_finite(x: float) -> ParseError:
    return ParseError(f"refusing to serialize non-finite number {x!r}")


def _plain(arr: np.ndarray) -> bool:
    """Whether ``arr.tolist()`` holds only bools, ints and finite floats.

    A floating array is checked in one vectorized pass, which names the
    first non-finite element in the order ``tolist`` visits them.
    """
    if arr.dtype.kind not in "biuf" or arr.dtype.itemsize > 8:
        return False
    if arr.dtype.kind == "f":
        bad = ~np.isfinite(arr)
        if bad.any():
            raise _non_finite(float(arr[bad][0]))
    return True


def jsonify(obj):
    """Convert package objects to JSON-ready structures.

    Named tuples and dataclasses become objects of their fields, enums
    their values, arrays nested lists, and a problem read from a file the
    decoding of its text; non-finite floats are refused rather than
    smuggled into a file.
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
        return obj.tolist() if _plain(obj) else jsonify(obj.tolist())
    if isinstance(obj, ParsedProblem):
        return jsonify(obj.document if obj.text is None else loads_strict(obj.text))
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


def canonical_parts(doc) -> list[str]:
    """The canonical text of ``doc`` as a list of parts, built in one walk:
    their join is ``json.dumps(jsonify(doc), indent=2, allow_nan=False) +
    "\\n"``, and the errors are the same.

    A :class:`ParsedProblem` that keeps its input text is written as that
    text (see :func:`_echo`) instead of as the encoding of its document.
    """
    out: list[str] = []
    _write(doc, 0, out)
    out.append("\n")
    return out


def dumps_canonical(doc) -> str:
    """The canonical text of ``doc``: the join of :func:`canonical_parts`."""
    return "".join(canonical_parts(doc))


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
        if type(obj) is np.ndarray and obj.ndim == 2 and obj.size and _plain(obj):
            _write_rows(obj, level, out)
        else:
            _write(obj.tolist(), level, out)
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


def _run(items, level: int) -> str:
    """The text of a non-empty list of scalars nested ``level`` deep, from one
    call of the C encoder."""
    try:
        text = _run_encoder(level).encode(items)
    except ValueError:
        for x in items:
            if type(x) is float and not math.isfinite(x):
                raise _non_finite(x) from None
        raise
    return "[\n" + _INDENT * (level + 1) + text[1:-1] + "\n" + _INDENT * level + "]"


def _write_rows(matrix: np.ndarray, level: int, out: list[str]) -> None:
    """A non-empty 2-D array that :func:`_plain` accepted, one row (one run of
    scalars) at a time, so that the matrix is never held as Python numbers."""
    opening = "[\n" + _INDENT * (level + 1)
    for row in matrix:
        out.append(opening + _run(row.tolist(), level + 1))
        opening = ",\n" + _INDENT * (level + 1)
    out.append("\n" + _INDENT * level + "]")


def _write_list(items, level: int, out: list[str]) -> None:
    if not items:
        out.append("[]")
        return
    if set(map(type, items)) <= _SCALAR_TYPES:
        out.append(_run(items, level))
        return
    inner = "\n" + _INDENT * (level + 1)
    opening = "["
    for x in items:
        out.append(opening + inner)
        _write(x, level + 1, out)
        opening = ","
    out.append("\n" + _INDENT * level + "]")


def save_json(doc, path) -> None:
    """Write the canonical parts of ``doc`` to ``path`` once all are built:
    a document that cannot be serialized writes nothing."""
    parts = canonical_parts(doc)
    with open(path, "w", encoding="utf-8") as file:
        file.writelines(parts)


def make_report(command: str, problem: ParsedProblem | dict, parameters: dict,
                result: dict) -> dict:
    """The report envelope.  ``problem`` is the parsed problem the command ran
    on, or a problem document; :func:`canonical_parts` writes a parsed problem
    read from a file as its input text."""
    return {
        "report_version": REPORT_VERSION,
        "command": command,
        "problem": problem,
        "parameters": parameters,
        "result": result,
    }
