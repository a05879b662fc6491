"""Child process of the benchmark; ``run.py`` starts it, one at a time.

Modes:

``setup``   generate a workload's inputs into the current directory; for
            the in-process workloads also import ``kreinframes.cli`` and
            run the warm-up ops; print ``READY``, exit.
``serve``   the same set-up, then run the workload's ops in this process
            through ``kreinframes.cli.main(argv)`` for ``--seconds`` (the
            in-process workloads), check a sample of reports, print
            ``RESULT``.
``check``   the check phase alone (digest and oracle re-runs), for
            ``cli_small``, whose ops run as separate processes.
``probe``   time ``import numpy``, then ``scipy.linalg``, then ``kreinframes``.

Messages to ``run.py`` are single lines on stdout: ``READY <json>`` and
``RESULT <json>``.  Nothing here imports numpy before the mode asks for it,
so ``probe`` starts from a bare interpreter.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import time
import traceback
from pathlib import Path

from run import BLAS_THREADS, keep_going
from tracing import Tracer, instrument, restore

ORACLE_SAMPLE = 3


class _Discard(io.TextIOBase):
    """Stands in for stdout and stderr of the command: the report is dropped."""

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        return len(text)


def _send(stream, tag: str, payload: dict) -> None:
    stream.write(f"{tag} {json.dumps(payload)}\n")
    stream.flush()


def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREADS},
    }


def setup(args) -> dict:
    import corpus

    manifest = corpus.build(args.workload, args.seed, Path.cwd(), Path(args.fixtures),
                            smallest=args.smallest)
    # first calls pay lazy imports and allocations that later ops do not;
    # they belong to set-up, so setup_s includes them
    if manifest["warm_up"]:
        from kreinframes import cli

        sink = _Discard()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for index in manifest["warm_up"]:
                _call(cli, manifest["ops"][index]["argv"])
    return {"gen_seconds": manifest["gen_seconds"], "environment": environment()}


def _call(cli, argv) -> tuple[int | None, str | None]:
    try:
        return cli.main(list(argv)), None
    except Exception:  # an uncaught exception is a failed op, not a crash of the run
        return None, traceback.format_exc(limit=3)


def run_ops(cli, ops, seconds: float, group: int, tracer=None, speed=None) -> dict:
    """Closed loop: one op at a time, cycling through ``ops``, for ``seconds``,
    ending between groups of ``group`` ops.

    With a ``tracer`` every op runs twice, plainly and traced, in alternating
    order, so that the two runs of a pair see the same warm state.  With a
    ``speed`` the machine speed is sampled before every untraced op and
    after the last.
    """
    plain = {"latencies": [], "codes": [], "wants": [], "errors": [], "speed": []}
    traced = {"latencies": [], "codes": [], "wants": [], "errors": []}
    start = time.perf_counter()
    k = 0
    while keep_going(time.perf_counter() - start, k, group, seconds):
        op = ops[k % len(ops)]
        order = (False,) if tracer is None else ((False, True) if k % 2 == 0 else (True, False))
        for with_trace in order:
            if with_trace:
                tracer.op = k
                originals = instrument(cli, tracer)
            into = traced if with_trace else plain
            if speed is not None and not with_trace:
                plain["speed"].append(speed.sample())
            m0 = time.monotonic()
            t0 = time.perf_counter()
            code, error = _call(cli, op["argv"])
            into["latencies"].append(time.perf_counter() - t0)
            if with_trace:
                tracer.record_op(m0, time.monotonic())
                restore(cli, originals)
            into["codes"].append(code)
            into["wants"].append(op)
            if error is not None:
                into["errors"].append(error)
        k += 1
    if speed is not None:
        plain["speed"].append(speed.sample())
    return {"plain": plain, "traced": traced}


def check(cli, manifest, seed: int, unchecked=()) -> dict:
    """Outside the timed section: digest the reports of the manifest's digest
    ops, and re-run ``oracle`` on a seeded sample of them plus ``unchecked``."""
    digest = hashlib.sha256()
    codes, saved = [], []
    for index in manifest["digest"]:
        op = manifest["ops"][index]
        path = f"reports/digest{index:03d}.json"
        code, _ = _call(cli, [*op["argv"], "-o", path])
        codes.append([index, code])
        if code in op["expect"]:
            digest.update(Path(path).read_bytes())
            saved.append(path)
    sample = random.Random(seed).sample(saved, min(ORACLE_SAMPLE, len(saved)))
    oracle_codes = [[path, _call(cli, ["oracle", path])[0]] for path in [*sample, *unchecked]]
    return {"digest": digest.hexdigest(), "digest_reports": len(saved),
            "digest_codes": codes, "oracle_codes": oracle_codes}


def serve(cli, manifest, args) -> dict:
    tracer = speed = None
    if args.trace:
        tracer = Tracer()
    else:
        from calibrate import Speed

        speed = Speed()
    result = run_ops(cli, manifest["ops"], args.seconds, manifest["group"], tracer, speed)
    if tracer is not None:
        result.update(spans=tracer.spans, report_bytes=tracer.report_bytes)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["checks"] = check(cli, manifest, args.seed)
    return result


def probe(out) -> None:
    times = {}
    start = time.perf_counter()
    import numpy  # noqa: F401
    times["numpy"] = time.perf_counter() - start
    start = time.perf_counter()
    import scipy.linalg  # noqa: F401
    times["scipy"] = time.perf_counter() - start
    start = time.perf_counter()
    import kreinframes.cli  # noqa: F401
    times["kreinframes"] = time.perf_counter() - start
    _send(out, "RESULT", times)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "serve", "check", "probe"])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--fixtures", default="")
    parser.add_argument("--smallest", action="store_true")
    parser.add_argument("--unchecked", nargs="*", default=[])
    args = parser.parse_args()
    out = sys.stdout
    if args.mode == "probe":
        probe(out)
        return 0
    if args.mode in ("setup", "serve"):
        _send(out, "READY", setup(args))
    if args.mode == "setup":
        return 0
    from kreinframes import cli

    manifest = json.loads(Path("manifest.json").read_text(encoding="utf-8"))
    sink = _Discard()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        if args.mode == "serve":
            result = serve(cli, manifest, args)
        else:
            result = check(cli, manifest, args.seed, args.unchecked)
    _send(out, "RESULT", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
