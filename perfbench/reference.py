"""Reference tasks: fixed work outside the program, timed between operations.

The shared 2-CPU host this benchmark was tuned on runs up to twice as slow
in some minutes as in others, and a whole run can fall in a slow phase.  A
reference task does the same kind of work as a workload's operations but
none of the program, so it slows down with them; an operation's latency
over the reference times around it stays put where the latency does not.

The task depends on where a workload's operations run:

- in processes of their own (``op_processes``): a fresh interpreter that
  imports NumPy (``-I``: without PYTHONPATH, so never the program);
- in this process: 25 small LPs with HiGHS and 5 QR factorizations of a
  120x120 matrix on fixed data.

A task that does not match its operations tracks them worse: on
``classify-planted`` the fresh interpreter left an IQR / median of 0.056
over ten 40-second windows where the in-process kernel left 0.025, and on
``cli-oneshot`` the in-process kernel varied by 17% over 45-second windows
where the fresh interpreter varied by 7%.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time

import numpy as np
from scipy.optimize import linprog

EVERY_S = 1.0  # after an operation, the task runs again once this long has passed
SPAN = 2  # an operation's reference is the median of the 2 * SPAN + 1 nearest runs


def fresh_interpreter() -> None:
    subprocess.run([sys.executable, "-I", "-c", "import numpy"], check=True, capture_output=True, timeout=60)


class LpKernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.a_ub = rng.standard_normal((80, 3))
        self.b_ub = 1.0 + rng.random(80)
        self.costs = rng.standard_normal((25, 3))
        self.matrix = rng.standard_normal((120, 120))

    def __call__(self) -> None:
        for c in self.costs:
            linprog(c, A_ub=self.a_ub, b_ub=self.b_ub, bounds=(None, None), method="highs")
        for _ in range(5):
            np.linalg.qr(self.matrix)


class Reference:
    """Times of one reference task, and when each run of it ended."""

    def __init__(self, op_processes: bool):
        self.task = fresh_interpreter if op_processes else LpKernel()
        self.ends: list[float] = []
        self.seconds: list[float] = []

    def run_if_due(self) -> None:
        if self.ends and time.perf_counter() - self.ends[-1] < EVERY_S:
            return
        start = time.perf_counter()
        self.task()
        self.ends.append(time.perf_counter())
        self.seconds.append(self.ends[-1] - start)

    def around(self, when: float) -> float:
        """The median of the 2 * SPAN + 1 task times that ended nearest to `when`."""
        width = min(2 * SPAN + 1, len(self.seconds))
        lo = min(max(0, bisect.bisect(self.ends, when) - SPAN), len(self.seconds) - width)
        return statistics.median(self.seconds[lo : lo + width])
