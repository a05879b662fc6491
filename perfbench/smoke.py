"""Smoke test of the benchmark harness.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at its smallest problem size, plainly
and traced, and checks that the last line of each run is the result object
with every metric that BENCHMARK.json names, in its unit, and nothing else.
It also checks that the benchmark refuses to run, without printing a result,
in a directory that holds only BENCHMARK.json and the benchmark's own files.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = "2"


def run(cwd: Path, command: list[str], workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *command[1:], "--workload", workload, "--seed", "0",
                           "--seconds", SECONDS, "--trace", str(trace), "--smallest"],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, spec["command"], workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted, f"{workload} trace={trace}: metrics {got} != {wanted}"
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), (name, metric)
    if trace:
        coverage = result["metrics"]["trace.coverage"]["value"]
        assert 0.0 < coverage <= 1.0, f"{workload}: trace.coverage {coverage}"
    print(f"ok  {workload} trace={trace}: {len(got)} metrics, {result['attempted']} ops")


def check_refuses_without_source(spec: dict) -> None:
    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copyfile(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["command"], spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0, "ran without the program's source"
        assert not proc.stdout.strip(), f"printed output without source: {proc.stdout!r}"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses to run without the program's source")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_result(spec, workload["name"], trace)
    check_refuses_without_source(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
