"""End-to-end and per-layer benchmark of kreinframes.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cli_small --seed 1 --seconds 33 --trace 0

Workloads (the reasons are recorded in BENCHMARK.json):

``cli_small``     each op is a fresh ``python -m kreinframes <cmd> FILE``
                  process on a fixture or a generated problem with n <= 8,
                  plus ``oracle`` re-runs of the reports saved earlier.
``dense_fusion``  ops call ``kreinframes.cli.main(argv)`` in one warm
                  interpreter on fusion families with n = 32..256.
``dense_frames``  the same on vector frames with n = 64..256, m = 2n.

Each workload is a closed loop with one client.  The program is used from
``src/`` with the BLAS pool pinned to one thread.  With ``--trace 0`` the run
prints the end-to-end metrics.  With ``--trace 1`` it runs every op twice,
plainly and with each call from ``kreinframes.cli`` into a layer wrapped in a
span, in alternating order, and prints the per-layer metrics; the difference
between the two runs of the same ops is the tracing overhead.  The last line
of stdout is one JSON object; the lines before it say what was run.  The
spans of a traced run go to ``.bench_work/trace-<workload>-s<seed>.json``.

The host's speed drifts by a quarter within minutes, so the end-to-end times
are scaled to its reference speed: a fixed reference computation
(``calibrate.py``) is timed before and after every timed op and set-up, and
each time is multiplied by the reference time over the mean of the two
samples around it.  The lines before the result give the times as measured.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import OP, TIMED_LAYERS, self_times

WORKLOADS = ("cli_small", "dense_fusion", "dense_frames")
HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
PYTHON = sys.executable
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 3
PROBE_REPEATS = 5
OP_TIMEOUT = 120.0
REFUSED = 3  # exit code of an internal inconsistency: the program declined to answer


class BenchError(RuntimeError):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(BLAS_THREADS)
    paths = [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


class Worker:
    """One ``worker.py`` child; reads its ``READY`` / ``RESULT`` lines."""

    def __init__(self, args: list[str], cwd: Path, env: dict) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen([PYTHON, str(WORKER), *args], cwd=cwd, env=env,
                                     stdout=subprocess.PIPE, text=True)

    def read(self, tag: str) -> dict:
        for line in self.proc.stdout:
            if line.startswith(tag + " "):
                return json.loads(line[len(tag) + 1:])
        raise BenchError(f"worker ended without {tag} (exit {self.proc.wait()})")

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc) -> None:
        """Let the worker finish on success; stop it at once on an error."""
        try:
            if exc_type is None:
                self.proc.wait(timeout=OP_TIMEOUT)
        except subprocess.TimeoutExpired:
            pass
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.stdout.close()
        self.proc.wait()


def run_process(argv: list[str], cwd: Path, env: dict) -> tuple[int | None, float]:
    """Run one program process to completion; return its exit code (None if
    it had to be killed) and wall time."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    # wait() with a timeout polls with sleeps of up to 50 ms, which would
    # quantize the latencies; a blocking wait with a kill timer does not
    killer = threading.Timer(OP_TIMEOUT, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    return (None if code < 0 else code), wall


def keep_going(elapsed: float, done: int, group: int, seconds: float) -> bool:
    """Whether a timed run starts its op number ``done``.

    A run ends only between groups of ``group`` ops, so that every run has
    the same mix of commands and problem sizes, and when the time is up or
    would be up half way through the next group, so that it lasts
    ``seconds`` on average.
    """
    groups, rest = divmod(done, group)
    return rest != 0 or groups == 0 or elapsed * (1.0 + 0.5 / groups) < seconds


def outcome(code, want: dict) -> str:
    """``ok`` for an expected exit code; ``refused`` for an exit 3 on an op
    marked ``may_refuse`` (an ill-conditioned valid input, ROADMAP item 4),
    which lowers ``success_rate`` but is no wrong answer; ``wrong`` for
    anything else, which fails the op."""
    if code in want["expect"]:
        return "ok"
    return "refused" if code == REFUSED and want.get("may_refuse") else "wrong"


# ---------------------------------------------------------------------------
# cli_small: one process per op, run from here


def cli_loop(manifest: dict, work: Path, env: dict, seconds: float, trace: bool,
             speed=None) -> dict:
    """Closed loop over the manifest's ops, one process at a time.

    Each command op saves its report; after it comes the ``oracle`` re-run of
    the report the command before it saved, or, when that command saved none
    (it exited 3), of the latest report saved; so the sequence of commands
    does not depend on which ops fail.  With ``trace`` every op runs
    twice, as ``python -m kreinframes`` and as the traced ``python -m cli_child``,
    in alternating order.  With a ``speed`` the machine speed is sampled
    before every untraced op and after the last.
    """
    ops = manifest["ops"]
    plain = {"latencies": [], "codes": [], "wants": [], "errors": [], "speed": []}
    traced = {"latencies": [], "codes": [], "wants": [], "errors": []}
    spans, unchecked = [], []
    latest = None
    report_bytes = 0
    spans_path = work / "spans.json"
    # the traced child starts through ``-m`` too, so both runs pay for runpy
    traced_env = dict(env, PYTHONPATH=os.pathsep.join([str(HERE), env["PYTHONPATH"]]))

    def run_traced(argv) -> tuple[int | None, float]:
        nonlocal report_bytes
        op = len(traced["codes"])
        spans_path.unlink(missing_ok=True)
        spawned = time.monotonic()
        code, wall = run_process(
            [PYTHON, "-m", "cli_child", str(spans_path), repr(spawned), *argv], work, traced_env)
        ended = time.monotonic()
        spans.append((0, -1, op, OP, "op", spawned, ended))
        if spans_path.exists():
            child = json.loads(spans_path.read_text(encoding="utf-8"))
            report_bytes += child["report_bytes"]
            spans.extend((s[0], s[1], op, *s[3:]) for s in child["spans"])
            spans.append((len(child["spans"]) + 1, 0, op, "import.python", "interpreter exit",
                          child["exit_from"], ended))
        return code, wall

    def run_op(argv, want: dict, report: str) -> int | None:
        """Run one op that writes ``report``; an exit 0 or 1 without the
        report is a crash (an uncaught exception also exits 1)."""
        argv = [*argv, "-o", report]
        order = (False,) if not trace else ((False, True) if len(plain["codes"]) % 2 == 0
                                            else (True, False))
        for with_trace in order:
            (work / report).unlink(missing_ok=True)
            if with_trace:
                code, wall = run_traced(argv)
            else:
                if speed is not None:
                    plain["speed"].append(speed.sample())
                code, wall = run_process([PYTHON, "-m", "kreinframes", *argv], work, env)
            if code in (0, 1) and not (work / report).exists():
                code = None
            into = traced if with_trace else plain
            into["latencies"].append(wall)
            into["codes"].append(code)
            into["wants"].append(want)
        return code

    start = time.perf_counter()
    k = 0
    while keep_going(time.perf_counter() - start, k, 1, seconds):
        op = ops[k % len(ops)]
        report = f"reports/r{k % len(ops):03d}.json"
        previous = unchecked[-1] if unchecked else latest
        if run_op(op["argv"], op, report) in (0, 1):
            unchecked.append(report)
        if previous is not None:
            run_op(["oracle", previous], {"expect": [0]}, "reports/oracle.json")
            if previous in unchecked:
                unchecked.remove(previous)
            latest = previous
        k += 1
    if speed is not None:
        plain["speed"].append(speed.sample())
    return {"plain": plain, "traced": traced, "spans": spans, "report_bytes": report_bytes,
            "unchecked": unchecked}


def time_setups(count: int, work: Path, env: dict, base: list[str], speed) -> dict:
    """Run ``count`` set-ups, each timed from its start to ``READY``, with
    the machine speed sampled before and after each (when ``speed`` is given)."""
    setups, samples, ready = [], [], None
    for _ in range(count):
        if speed is not None:
            samples.append(speed.sample())
        with Worker(["setup", *base], work, env) as worker:
            ready = worker.read("READY")
            setups.append(time.perf_counter() - worker.started)
    if speed is not None:
        samples.append(speed.sample())
    return {"setups": setups, "setup_speed": samples, "ready": ready}


def run_cli_small(args, work: Path, env: dict, base: list[str]) -> dict:
    from calibrate import Speed

    speed = None if args.trace else Speed()
    setup = time_setups(1 if args.trace else SETUP_REPEATS, work, env, base, speed)
    manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
    result = cli_loop(manifest, work, env, args.seconds, bool(args.trace), speed)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    with Worker(["check", "--seed", str(args.seed), "--unchecked",
                 *result["unchecked"]], work, env) as worker:
        result["checks"] = worker.read("RESULT")
    return {**setup, "manifest": manifest, **result}


# ---------------------------------------------------------------------------
# dense_*: ops in one warm worker process


def run_in_process(args, work: Path, env: dict, base: list[str]) -> dict:
    from calibrate import Speed

    setup = {}
    if not args.trace:
        setup = time_setups(SETUP_REPEATS, work, env, base, Speed())
    with Worker(["serve", *base, "--seconds", str(args.seconds),
                 "--trace", str(args.trace)], work, env) as worker:
        ready = worker.read("READY")
        result = worker.read("RESULT")
    manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
    return {"ready": ready, **setup, "manifest": manifest, **result}


# ---------------------------------------------------------------------------
# metrics


def import_probe(root: Path, env: dict) -> dict:
    """Median import times in fresh interpreters, each step after the previous one."""
    samples = {"python": [], "numpy": [], "scipy": [], "kreinframes": []}
    for _ in range(PROBE_REPEATS):
        _, wall = run_process([PYTHON, "-c", "pass"], root, env)
        samples["python"].append(wall)
        with Worker(["probe"], root, env) as worker:
            for key, value in worker.read("RESULT").items():
                samples[key].append(value)
    return {key: statistics.median(values) for key, values in samples.items()}


def classify_ops(codes, wants) -> dict:
    counts = {"ok": 0, "refused": 0, "wrong": 0}
    for code, want in zip(codes, wants):
        counts[outcome(code, want)] += 1
    return counts


def check_problems(result: dict) -> list[str]:
    """Failures of the checks made outside the timed section."""
    checks = result["checks"]
    ops = result["manifest"]["ops"]
    problems = [f"digest op {ops[i]['argv']} exited {code}"
                for i, code in checks["digest_codes"]
                if outcome(code, ops[i]) == "wrong"]
    problems += [f"oracle {path} exited {code}"
                 for path, code in checks["oracle_codes"] if code != 0]
    return problems


def end_to_end(result: dict) -> tuple[dict, list[str]]:
    """The end-to-end metrics, with every time scaled to the reference speed
    of the host (``calibrate``); the notes give the times as measured."""
    from calibrate import at_reference

    plain = result["plain"]
    walls = [1000.0 * x for x in plain["latencies"]]
    latencies = at_reference(walls, plain["speed"])
    setups = at_reference(result["setups"], result["setup_speed"])
    counts = classify_ops(plain["codes"], plain["wants"])
    attempted = len(walls)
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (1000.0 * attempted / sum(latencies), "1/s"),
        "latency_ms.p50": (statistics.median(latencies), "ms"),
        "latency_ms.p90": (p90, "ms"),
        "success_rate": (counts["ok"] / attempted, "ratio"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    notes = [f"setup samples (s): {', '.join(f'{x:.3f}' for x in result['setups'])}",
             f"as measured: setup_s {statistics.median(result['setups']):.4f}, ops_per_s "
             f"{1000.0 * attempted / sum(walls):.4f}, latency_ms.p50 "
             f"{statistics.median(walls):.2f}, latency_ms.p90 "
             f"{statistics.quantiles(walls, n=10, method='inclusive')[-1]:.2f}",
             f"speed samples (ms): median {1000 * statistics.median(plain['speed']):.3f}, "
             f"range {1000 * min(plain['speed']):.3f}..{1000 * max(plain['speed']):.3f}"]
    notes += [f"latency samples: {attempted}, beyond p90: {sum(x > p90 for x in latencies)}",
              f"ops ok {counts['ok']}, refused (exit 3) {counts['refused']}, "
              f"wrong {counts['wrong']}"]
    return metrics, notes


def per_layer(result: dict, probe: dict) -> tuple[dict, list[str]]:
    spans = result["spans"]
    totals, calls = self_times(spans)
    op_wall = sum(end - start for _, _, _, layer, _, start, end in spans if layer == OP)
    covered = sum(value for layer, value in totals.items() if layer != OP)
    traced = result["traced"]
    metrics = {f"import.{key}_ms": (1000.0 * value, "ms") for key, value in probe.items()}
    for layer in TIMED_LAYERS:
        metrics[f"{layer}_ms"] = (1000.0 * totals.get(layer, 0.0), "ms")
    metrics.update({
        "problem_io.report_bytes": (result["report_bytes"], "bytes"),
        "oracles.sampled_calls": (calls.get("oracles.sampled", 0), "count"),
        "oracles.disagreements": (sum(code == REFUSED for code in traced["codes"]), "count"),
        "cli.self_ms": (1000.0 * totals.get(OP, 0.0), "ms"),
        "trace.coverage": (covered / op_wall, "ratio"),
        "trace.overhead": (sum(traced["latencies"]) / sum(result["plain"]["latencies"]) - 1.0,
                           "ratio"),
        "generator.gen_ms": (1000.0 * result["ready"]["gen_seconds"], "ms"),
    })
    counts = classify_ops(traced["codes"], traced["wants"])
    notes = [f"traced ops: {len(traced['codes'])}, op wall {1000 * op_wall:.1f} ms = "
             f"layer self {1000 * covered:.1f} ms + cli self {1000 * totals.get(OP, 0.0):.1f} ms",
             f"traced ops ok {counts['ok']}, refused (exit 3) {counts['refused']}, "
             f"wrong {counts['wrong']}"]
    return metrics, notes


def run(args) -> int:
    root = Path.cwd()
    if not (root / "src" / "kreinframes" / "__init__.py").is_file():
        print("perfbench: src/kreinframes not found; run from the root of a kreinframes "
              "checkout", file=sys.stderr)
        return 2
    # the benchmark's own numpy (the speed samples) runs with one BLAS thread too
    os.environ.update(BLAS_THREADS)
    env = child_env(root)
    build = subprocess.run([PYTHON, "-m", "compileall", "-q", "src"], cwd=root, env=env,
                           stdout=subprocess.DEVNULL, timeout=300)
    if build.returncode != 0:
        print("perfbench: compiling src/ failed", file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--fixtures", str(root / "fixtures")] + (["--smallest"] if args.smallest else [])
    try:
        if args.workload == "cli_small":
            result = run_cli_small(args, work, env, base)
        else:
            result = run_in_process(args, work, env, base)
        probe = import_probe(root, env) if args.trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = check_problems(result)
    codes = result["plain"]["codes"] + result["traced"]["codes"]
    counts = classify_ops(codes, result["plain"]["wants"] + result["traced"]["wants"])
    if counts["wrong"]:
        problems.append(f"{counts['wrong']} ops exited with a wrong code or raised")
    problems += result["plain"]["errors"] + result["traced"]["errors"]

    checks = result["checks"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("environment " + json.dumps(result["ready"]["environment"], sort_keys=True))
    print(f"report digest sha256 {checks['digest']} over {checks['digest_reports']} reports")
    print(f"oracle re-checks after the timed section: {len(checks['oracle_codes'])}")
    if args.trace:
        metrics, notes = per_layer(result, probe)
        trace_path = root / ".bench_work" / f"trace-{args.workload}-s{args.seed}.json"
        trace_path.write_text(json.dumps(result["spans"]), encoding="utf-8")
        notes.append(f"spans written to {trace_path.relative_to(root)}")
    else:
        metrics, notes = end_to_end(result)
    for line in notes + [f"check failed: {p}" for p in problems]:
        print(line)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(codes),
        "failed": counts["wrong"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kreinframes benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smallest", action="store_true",
                        help="only the smallest problem size (the harness smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        return run(args)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
