"""Spans around the calls that ``kreinframes.cli`` makes into its layers.

The benchmark observes the package from outside: ``instrument`` replaces the
names that ``kreinframes.cli`` imported with wrappers that record a span per
call, so a traced op follows the real command path.  A wrapped name that no
longer exists is skipped; the time it used to cover then shows up as lost
``trace.coverage`` instead of a crash.

A span is ``(id, parent, op, layer, name, start, end)``.  Id 0 is the op
itself; layer spans opened directly by the command have parent 0.  Clocks are
``time.monotonic`` so that a child process and its parent share a time base.

This module imports only the standard library.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

OP = "op"

# name imported by kreinframes.cli -> layer it belongs to
CLI_LAYERS = {
    "load_problem": "problem_io.load",
    "load_report": "problem_io.load",
    "parse_problem": "problem_io.load",
    "dumps_canonical": "problem_io.serialize",
    "jsonify": "problem_io.serialize",
    "make_report": "problem_io.serialize",
    "family_from_spans": "fusion.build",
    "verify_j_fusion_frame": "fusion.verify",
    "part_pencils": "fusion.verify",
    "check_rps_corollary": "fusion.rps",
    "fusion_dual_diagnostics": "fusion.dual",
    "span": "subspaces.classify",
    "classify": "subspaces.classify",
    "subspace_sum": "subspaces.classify",
    "partition_by_sign": "frames.partition",
    "verify_j_frame": "frames.verify",
    "frame_part_pencils": "frames.verify",
    "dual_reciprocity": "frames.dual",
    "canonical_dual": "frames.dual",
    "frame_operator": "frames.dual",
    "image_fusion_check": "transforms.image_check",
}

# attribute of kreinframes.oracles that cli calls as ``oracles.<name>``
ORACLE_LAYERS = {
    "rayleigh_extrema": "oracles.algebraic",
    "completeness_check": "oracles.algebraic",
    "rayleigh_extrema_sampled": "oracles.sampled",
    "min_singular_brute": "oracles.sampled",
    "gamma_brute": "oracles.sampled",
}

# layers whose self time is reported as ``<layer>_ms``
TIMED_LAYERS = tuple(dict.fromkeys([*CLI_LAYERS.values(), *ORACLE_LAYERS.values()]))


class Tracer:
    """Collects spans in memory; ``spans`` is written out when the run ends."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.report_bytes = 0
        self.op = -1
        self._stack = [0]
        self._next_id = 1

    def record(self, layer: str, name: str, start: float, end: float) -> None:
        """Record a span directly under the op, such as an import step."""
        self.spans.append((self._next_id, 0, self.op, layer, name, start, end))
        self._next_id += 1

    def record_op(self, start: float, end: float) -> None:
        """Record the op span (id 0) that encloses the op's layer spans."""
        self.spans.append((0, -1, self.op, OP, "op", start, end))

    def wrap(self, fn, layer: str):
        name = getattr(fn, "__name__", layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(span_id)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                self._stack.pop()
                self.spans.append((span_id, parent, self.op, layer, name, start, end))
            if name == "dumps_canonical":
                self.report_bytes += len(result)
            return result

        return traced


class _OracleProxy:
    """Stands in for the ``oracles`` module inside ``kreinframes.cli``."""

    def __init__(self, module, tracer: Tracer) -> None:
        self._module = module
        self._tracer = tracer

    def __getattr__(self, name: str):
        value = getattr(self._module, name)
        layer = ORACLE_LAYERS.get(name)
        if layer is not None and callable(value):
            value = self._tracer.wrap(value, layer)
        setattr(self, name, value)
        return value


def instrument(cli, tracer: Tracer) -> dict:
    """Wrap, in the namespace of ``kreinframes.cli``, every layer entry point.

    Returns the replaced names and their originals, for ``restore``.
    """
    originals = {}
    for name, layer in CLI_LAYERS.items():
        fn = getattr(cli, name, None)
        if callable(fn):
            originals[name] = fn
            setattr(cli, name, tracer.wrap(fn, layer))
    module = getattr(cli, "oracles", None)
    if module is not None:
        originals["oracles"] = module
        cli.oracles = _OracleProxy(module, tracer)
    return originals


def restore(cli, originals: dict) -> None:
    for name, value in originals.items():
        setattr(cli, name, value)


def self_times(spans) -> tuple[dict, dict]:
    """Per-layer self time (seconds) and per-layer call counts.

    A span's self time is its duration minus the time its child spans cover;
    the self time of the op spans is reported under the ``op`` layer.
    """
    child_time: dict[tuple, float] = defaultdict(float)
    for _, parent, op, _, _, start, end in spans:
        child_time[(op, parent)] += end - start
    totals: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span_id, _, op, layer, _, start, end in spans:
        totals[layer] += (end - start) - child_time.get((op, span_id), 0.0)
        calls[layer] += 1
    return dict(totals), dict(calls)
