"""Seeded inputs and op lists of the three workloads.

Every generated input comes from ``kreinframes.generator.gen_problem``; the
workload seed is the only source of variation in the numbers.  The op list
and its order do not depend on the seed, so every seed runs the same mix of
commands and sizes.

An op is ``{"argv": [...], "expect": [codes], "n": dim, "kind": ...}``, plus
``"may_refuse": true`` on the generated ``cli_small`` ops: there the oracle
cross-check runs (n <= 8), and its exit 3 on a valid but ill-conditioned
input is the known refusal of ROADMAP item 4, not a wrong answer.  The argv
is what ``kreinframes`` receives on its command line.  Paths in it are
relative to the workload directory.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import time
from pathlib import Path

import numpy as np

from kreinframes.generator import GeneratorConfig, gen_problem

NEAR_NEUTRAL = 0.9999999

# cli_small: the regime where interpreter start, import and the sampled
# oracle dominate.  Tilts sweep [0, 1) up to the near-neutral value on which
# verify currently exits 3; those ops stay in and lower success_rate.
CLI_DIMS = (4, 6, 8)
CLI_TILTS = (0.0, 0.5, 0.99, NEAR_NEUTRAL)
CLI_COMMANDS = {
    "fusion": ("verify", "bounds", "classify", "dual", "transform"),
    "frame": ("verify-frame", "bounds", "dual"),
}
# commands that run the oracle cross-check, so can exit 3 on near-neutral input
ORACLE_CHECKED = {"fusion": ("verify", "bounds"), "frame": ("verify-frame", "bounds")}
# fixture, command, expected exit code (the known verdicts of the shipped files)
FIXTURE_OPS = (
    ("eigen_frame.json", "verify-frame", 0),
    ("eigen_frame.json", "dual", 0),
    ("fusion_dim6.json", "verify", 0),
    ("fusion_dim6.json", "bounds", 0),
    ("fusion_dim6.json", "classify", 0),
    ("fusion_dim6.json", "dual", 0),
    ("neutral_entry_family.json", "bounds", 1),
    ("neutral_entry_family.json", "classify", 0),
    ("neutral_image.json", "verify", 0),
    ("neutral_image.json", "transform", 1),
    ("r3_family.json", "verify", 1),
    ("r3_family.json", "dual", 1),
    ("skewed_pair.json", "verify", 0),
    ("skewed_pair.json", "dual", 0),
    ("tilted_frame.json", "verify-frame", 0),
    ("tilted_frame.json", "bounds", 0),
)

# dense_*: the library regime, where dense n x n kernels and canonical
# serialization dominate; the oracle is skipped above n = 8.  Ops come in
# groups that run every command once per size slot, with the tilts taking
# turns over commands and slots, and a run ends only between groups, so every
# run has the same mix of commands, sizes and nearly the same mix of tilts.
# The slots put the median latency inside the n = 128 ops and p90 inside the
# cheaper n = 256 ops, not on the gap between the costs of two sizes.
DENSE_TILTS = (0.0, 0.5, NEAR_NEUTRAL)
FUSION_SLOTS = (32, 128, 64, 128, 256)
FUSION_COMMANDS = ("verify", "bounds", "dual", "classify", "transform")
FRAME_SLOTS = (64, 128, 64, 256, 128)
FRAME_COMMANDS = ("verify-frame", "bounds", "dual")
DENSE = {"dense_fusion": ("fusion", FUSION_SLOTS, FUSION_COMMANDS),
         "dense_frames": ("frame", FRAME_SLOTS, FRAME_COMMANDS)}


def expected_codes(command: str, plant: str) -> list[int]:
    if command == "classify":
        return [0]
    if command == "transform":
        return [0, 1]
    return [0] if plant == "none" else [1]


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _problem_seed(seed: int, index: int) -> int:
    return int(_rng(seed, index).integers(2**31))


def _operator(seed: int, index: int, n: int) -> list[list[float]]:
    """A seeded invertible operator: a random rotation times a diagonal in [0.5, 2]."""
    rng = _rng(seed, 10_000 + index)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    return (q * rng.uniform(0.5, 2.0, n)).tolist()


def _entry_dims(part: int, n: int) -> tuple[int, ...]:
    """Two entries of dimension n/8, then alternating 1- and 2-dimensional ones."""
    big = max(1, n // 8)
    dims = [big, big]
    rest = part - 2 * big
    while rest > 0:
        k = min(1 + len(dims) % 2, rest)
        dims.append(k)
        rest -= k
    return tuple(dims)


class Builder:
    """Writes problem files into ``root/problems`` and times the generator."""

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.gen_seconds = 0.0
        self.count = 0
        (root / "problems").mkdir(parents=True, exist_ok=True)
        (root / "reports").mkdir(parents=True, exist_ok=True)

    def problem(self, cfg_kwargs: dict, operator: bool = False) -> str:
        index = self.count
        self.count += 1
        cfg = GeneratorConfig(seed=_problem_seed(self.seed, index), **cfg_kwargs)
        start = time.perf_counter()
        doc = gen_problem(cfg)
        self.gen_seconds += time.perf_counter() - start
        if operator:
            doc["operator"] = _operator(self.seed, index, cfg.dim)
        rel = f"problems/p{index:03d}.json"
        (self.root / rel).write_text(json.dumps(doc), encoding="utf-8")
        return rel


def _cli_small(builder: Builder, fixtures: Path) -> list[dict]:
    ops = []
    for name, command, code in FIXTURE_OPS:
        rel = f"problems/{name}"
        shutil.copyfile(fixtures / name, builder.root / rel)
        n = json.loads((fixtures / name).read_text(encoding="utf-8"))["dimension"]
        ops.append({"argv": [command, rel], "expect": [code], "n": n, "kind": "fixture"})
    for kind in ("fusion", "frame"):
        commands = CLI_COMMANDS[kind]
        checked = ORACLE_CHECKED[kind]
        for i, n in enumerate(CLI_DIMS):
            base = {"kind": kind, "dim": n, "num_positive": n // 2}
            for t, tilt in enumerate(CLI_TILTS):
                rotate = (i + t) % 2 == 1
                if tilt == NEAR_NEUTRAL:
                    command = checked[i % len(checked)]
                else:
                    command = commands[(i + t) % len(commands)]
                rel = builder.problem(dict(base, tilt=tilt, rotate=rotate),
                                      operator=kind == "fusion")
                ops.append({"argv": [command, rel], "expect": expected_codes(command, "none"),
                            "n": n, "kind": kind, "may_refuse": True})
            for j, plant in enumerate(("deficient", "neutral_entry")):
                command = commands[(i + j + 1) % len(commands)]
                rel = builder.problem(dict(base, tilt=0.5, rotate=j == 1, plant=plant),
                                      operator=kind == "fusion")
                ops.append({"argv": [command, rel], "expect": expected_codes(command, plant),
                            "n": n, "kind": kind, "may_refuse": True})
    # the commands take turns, so that every prefix of the list (such as the
    # part a traced run reaches) runs every command; within a command the
    # order is a fixed shuffle of sizes, tilts and plants
    rng = random.Random(0)
    by_command: dict[str, list] = {}
    for op in ops:
        by_command.setdefault(op["argv"][0], []).append(op)
    for bucket in by_command.values():
        rng.shuffle(bucket)
    return [op for turn in itertools.zip_longest(*by_command.values()) for op in turn if op]


def _dense(builder: Builder, kind: str, slots, commands) -> list[dict]:
    paths = {}
    for tilt in DENSE_TILTS:
        for n in sorted(set(slots)):
            cfg = {"kind": kind, "dim": n, "num_positive": n // 2, "tilt": tilt, "rotate": True}
            if kind == "fusion":
                cfg["entry_dims_positive"] = _entry_dims(n // 2, n)
                cfg["entry_dims_negative"] = _entry_dims(n - n // 2, n)
            else:
                cfg["num_vectors_positive"] = n
                cfg["num_vectors_negative"] = n
            paths[(n, tilt)] = builder.problem(cfg, operator=kind == "fusion")
    turns = len(DENSE_TILTS)
    return [{"argv": [command, paths[(n, tilt)]], "expect": expected_codes(command, "none"),
             "n": n, "kind": kind}
            for group in range(turns)
            for c, command in enumerate(commands)
            for s, n in enumerate(slots)
            for tilt in [DENSE_TILTS[(group + c + s) % turns]]]


def build(workload: str, seed: int, root: Path, fixtures: Path, smallest: bool = False) -> dict:
    """Generate the inputs of one workload into ``root``; return its manifest.

    ``group`` is the number of consecutive ops that a timed run completes
    together, and ``warm_up`` the ops run once before timing, one per
    command.  ``smallest`` keeps only the smallest problem size.
    """
    builder = Builder(root, seed)
    if workload == "cli_small":
        ops, group = _cli_small(builder, fixtures), 1
    elif workload in DENSE:
        kind, slots, commands = DENSE[workload]
        slots = (min(slots),) if smallest else slots
        ops, group = _dense(builder, kind, slots, commands), len(slots) * len(commands)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    least = min(op["n"] for op in ops if op["kind"] != "fixture")
    if smallest:
        ops = [op for op in ops if op["n"] <= least]
    # the report digest covers the fixtures and the smallest generated size
    digest = [i for i, op in enumerate(ops) if op["kind"] == "fixture" or op["n"] == least]
    warm_up = list({op["argv"][0]: i for i, op in enumerate(ops)
                    if op["n"] == least}.values()) if workload in DENSE else []
    manifest = {"workload": workload, "seed": seed, "ops": ops, "group": group,
                "digest": digest, "warm_up": warm_up, "gen_seconds": builder.gen_seconds}
    (root / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return manifest
