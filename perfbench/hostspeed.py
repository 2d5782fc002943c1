"""Host-speed reference: times are reported at a fixed reference speed.

On a small shared host the same work runs at speeds up to 1.8x apart, and
the speed switches on sub-second to minute timescales (other tenants load
the physical cores).  Process CPU time slows as much as wall time, so the
loss cannot be subtracted.  Instead a fixed reference task, the *probe*,
is timed all through the run, and every op latency is scaled by how slow
the probe ran around that op::

    reported = (measured - probe time inside the op) * reference_s / local probe median

The probes are benchmark code only, so no change to the program can make
them faster or slower, except by loading the cores itself.  There are two,
each matched to the cost it has to track:

- in-process ops (and every set-up) use a computation: small numpy
  eigensolves and a Python loop, the mix kreinalg itself runs.  A SIGALRM
  handler runs it every ``PERIOD_S``; Python runs the handler between
  bytecodes of the op, and its time is subtracted from the op.  Traced
  runs run it between ops instead, so that no span holds probe time.
- ``cli`` ops are mostly interpreter start-up and imports in a child
  process, which the computation does not track.  Their probe is a child
  ``python -c pass``, run between ops: interpreter start-up plus the
  ``site`` imports.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

# Probe durations at the reference speed: their medians on the 2-vCPU Xeon
# host where the benchmark was tuned.  Any constants would do; these keep
# the reported values near the measured ones.
REF_COMPUTE_S = 7.0e-4
REF_START_S = 7.0e-2
PERIOD_S = 0.05  # in-process sampling period; the probe costs ~1.4 % of the run
WINDOW_S = 2.0  # probes this close to an op (or inside it) set its speed
# Probes after each op when none run inside it: cli ops, and traced runs,
# whose spans must not contain probe time.
COMPUTES_BETWEEN_OPS = 5
STARTS_BETWEEN_OPS = 1
START_TIMEOUT_S = 60


class HostSpeed:
    """Probe samples of one process, and op times scaled by them.

    ``in_process`` picks the probe: the computation, or a child interpreter
    start for ops that run in child processes.
    """

    def __init__(self, in_process: bool = True) -> None:
        m = np.random.default_rng(0).standard_normal((6, 6))
        self.m = m + m.T
        self.reference_s = REF_COMPUTE_S if in_process else REF_START_S
        self.task = self.compute if in_process else self.start_interpreter
        self.between = COMPUTES_BETWEEN_OPS if in_process else STARTS_BETWEEN_OPS
        self.starts: list = []
        self.seconds: list = []
        self.busy = False

    def compute(self) -> None:
        for _ in range(20):
            a = self.m @ self.m
            np.linalg.eigh(a)
            a.sum()
        total = 0
        for k in range(2000):
            total += k * k % 7

    @staticmethod
    def start_interpreter() -> None:
        # With pipes, run() returns at their end of file, as the ops do.  Without
        # them, a timeout makes wait() poll at growing intervals (up to 50 ms),
        # and the probe would read 64 or 114 ms for a 70 ms start.
        subprocess.run([sys.executable, "-c", "pass"], check=True, capture_output=True,
                       timeout=START_TIMEOUT_S)

    def probe(self) -> None:
        """Time the probe task once."""
        if self.busy:  # a signal that arrives during a probe is dropped
            return
        self.busy = True
        start = time.perf_counter()
        self.task()
        self.starts.append(start)
        self.seconds.append(time.perf_counter() - start)
        self.busy = False

    def burst(self, count: int) -> None:
        for _ in range(count):
            self.probe()

    def between_ops(self) -> None:
        self.burst(self.between)

    @contextlib.contextmanager
    def sampling(self):
        """Probe every PERIOD_S while the block runs."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _between(self, lo: float, hi: float) -> slice:
        return slice(bisect.bisect_left(self.starts, lo), bisect.bisect_right(self.starts, hi))

    def slowdown(self, start: float = -float("inf"), end: float = float("inf")) -> float:
        """Probe median near [start, end] over the reference; 1.0 when no probe ran nearby."""
        near = self.seconds[self._between(start - WINDOW_S, end + WINDOW_S)]
        return statistics.median(near) / self.reference_s if near else 1.0

    def scaled(self, start: float, end: float) -> float:
        """Seconds from start to end, without probe time, at the reference speed."""
        inside = sum(self.seconds[self._between(start, end)])
        return (end - start - inside) / self.slowdown(start, end)
