"""Machine speed, measured with a fixed reference computation.

The benchmark runs on a few cores of a shared host whose speed drifts by a
quarter within minutes: other tenants share its caches and memory, and the
drift shows in process CPU time as much as in wall time.  A timed run
therefore also times this fixed mix of dense linear algebra and JSON
serialization, the two kinds of work the program's ops are made of, before
and after every op, and scales each op's time by ``REFERENCE_S`` over the
mean of the two samples around it: the reported times are those of the host
running at its reference speed.
The reference computation never calls the program, so a change to the
program moves the scaled times exactly as much as the raw ones.

Importing this module imports numpy; the caller pins the BLAS pool first.
"""

from __future__ import annotations

import json
import time

import numpy as np

# median of the samples on the 2-core VM the bounds were set on
REFERENCE_S = 0.008
# a sample is the fastest of this many runs: the first runs after the
# process sat idle are slow while caches and clocks warm up
RUNS = 3


class Speed:
    """Times the reference computation."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        square = rng.standard_normal((128, 128))
        self.symmetric = square + square.T
        self.square = rng.standard_normal((128, 128))
        self.doc = rng.standard_normal(3000).tolist()

    def sample(self) -> float:
        """Seconds one run of the reference computation takes now."""
        return min(self._run() for _ in range(RUNS))

    def _run(self) -> float:
        start = time.perf_counter()
        np.linalg.eigh(self.symmetric)
        np.linalg.svd(self.square)
        json.dumps(self.doc)
        return time.perf_counter() - start


def at_reference(times: list[float], samples: list[float]) -> list[float]:
    """``times`` at the reference speed: each is scaled by the mean of the
    speed samples taken just before and just after it (``samples`` has one
    more entry than ``times``)."""
    assert len(samples) == len(times) + 1, (len(samples), len(times))
    return [t * 2.0 * REFERENCE_S / (before + after)
            for t, before, after in zip(times, samples, samples[1:])]
