"""The ballbodies benchmark: one command, end-to-end metrics or a traced per-layer run.

    python3 perfbench/run.py --workload classify-planted --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; ``ballbodies`` is imported from its
``src/`` directory, never from an installed copy.  Inputs come from
perfbench/gen.py and depend on the seed only.  Every operation's output is
checked (perfbench/checks.py).

Between operations, about once a second, the benchmark times a reference
task that runs none of the program; each operation's latency is divided by
the median of the reference times around it (see perfbench/reference.py).

``--trace 0`` runs fresh cycles of operations for ``--seconds`` and prints
the end-to-end metrics.  ``--trace 1`` runs cycles for half of
``--seconds`` untraced, then as many traced, and prints the per-layer
metrics with the tracing overhead.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it is a JSON summary (environment, operation counts, checks run,
failures).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("dist-corpus", "classify-planted", "reconstruct-probe", "cli-oneshot")
# BLAS and OpenMP pools of this process and its children: one thread each,
# so one operation uses one CPU (the machine this was tuned on has 2).
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_REPEATS = 3  # before the timed cycles, and as many again after them
MIN_PER_KEY = 3  # samples of every slot key at least
P90_MIN_OPS = 100  # a p90 needs at least ten samples beyond it


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
    }


def setup_seconds(workload) -> list[float]:
    """Wall times of SETUP_REPEATS fresh interpreters doing the workload's set-up."""
    from workloads import TIMEOUT_S, setup_argv

    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(setup_argv(workload), check=True, capture_output=True, timeout=TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return times


class Loop:
    """One cycle of operations in a closed loop: latencies, bounds, failures, checks."""

    def __init__(self, workload, index: int, reference, tracer=None):
        self.workload = workload
        self.index = index
        self.reference = reference
        self.tracer = tracer
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.bounds: list[float] = []
        self.failures: list[str] = []
        self.errors: Counter = Counter()
        self.checks: Counter = Counter()

    def op(self, op) -> None:
        self.run_checked(op)
        self.reference.run_if_due()

    def run_checked(self, op) -> None:
        if self.tracer is not None:
            self.tracer.start_op()
        start = time.perf_counter()
        self.starts.append(start)
        try:
            out = self.workload.run(op)
        except Exception as exc:  # an operation that raises is a failed operation
            self.latencies.append(time.perf_counter() - start)
            self.errors[type(exc).__name__] += 1
            self.failures.append(f"{type(exc).__name__}: {str(exc)[:160]}")
            return
        self.latencies.append(time.perf_counter() - start)
        if self.tracer is not None:
            self.tracer.active = False  # checks are not the program's work
        reasons = []
        for name, reason in self.workload.check(op, out):
            self.checks[name] += 1
            if reason is not None:
                reasons.append(f"{name}: {reason}")
        if reasons:
            self.failures.append("; ".join(reasons))
            return
        bound = self.workload.bound(op, out)
        if bound is not None:
            self.bounds.append(bound)

    def run_all(self, cycle) -> None:
        for op in cycle:
            self.op(op)

    def counts(self) -> dict:
        return {
            "attempted": len(self.latencies),
            "failed": len(self.failures),
            "succeeded": len(self.latencies) - len(self.failures),
        }


def peak_rss_mb(children: bool) -> float:
    scope = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(scope).ru_maxrss / 1024.0  # Linux reports KiB


def run_cycles(workload, it, budget: float, reference, tracer=None, count: int | None = None) -> list[Loop]:
    """The next cycles of `it`, one Loop each: exactly `count`, or while the
    next one should end within `budget` seconds (at least MIN_PER_KEY per
    slot key)."""
    start = time.perf_counter()
    done = []
    while True:
        index, cycle = next(it)
        loop = Loop(workload, index, reference, tracer)
        loop.run_all(cycle)
        done.append(loop)
        if count is not None:
            if len(done) == count:
                return done
            continue
        elapsed = time.perf_counter() - start
        if len(done) >= MIN_PER_KEY * workload.period and elapsed + elapsed / len(done) > budget:
            return done


def relative_latencies(runs: list[Loop]) -> list[float]:
    """Each operation's latency over its reference time (see reference.py)."""
    return [t / loop.reference.around(start) for loop in runs for start, t in zip(loop.starts, loop.latencies)]


def interquartile_mean(values: list[float]) -> float:
    """The mean of `values` without their lowest and highest quarter."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut : len(values) - cut])


def slot_figures(workload, runs: list[Loop], values: list[float]) -> list[float]:
    """The operations of one period of cycles, each at the interquartile
    mean of its slot key's values.

    `values` has one entry per operation of `runs`, in order.  Operations
    with one slot key have the same shape and leaf sizes and differ only in
    the seeded geometry.  One operation's latency varies by about 20% from
    one call to the next on the same input, more than the geometry moves
    it; the interquartile mean averages that out better than the median
    and drops the outliers that the mean would keep.
    """
    by_key = defaultdict(list)
    ops = ((loop.index, pos) for loop in runs for pos in range(len(loop.latencies)))
    for (index, pos), v in zip(ops, values):
        by_key[workload.slot_key(index, pos)].append(v)
    slots = len(runs[0].latencies)
    keys = [workload.slot_key(i, pos) for i in range(workload.period) for pos in range(slots)]
    return sorted(interquartile_mean(by_key[k]) for k in keys)


def end_to_end(workload, it, seconds: float) -> tuple[list[Loop], dict, dict]:
    """Fresh cycles for `seconds`; latencies are relative to the reference task.

    Every cycle is new input, so a cache keyed on document content gains
    nothing here that fresh inputs would not.  Set-up is timed before and
    after the cycles, so that its median spans the run.
    """
    from reference import Reference

    setup = setup_seconds(workload)
    reference = Reference(workload.op_processes)
    runs = run_cycles(workload, it, seconds, reference)
    setup += setup_seconds(workload)
    rel = slot_figures(workload, runs, relative_latencies(runs))
    lat = slot_figures(workload, runs, [t for loop in runs for t in loop.latencies])
    # the first period of cycles is the same for every run of a seed
    bounds = [b for loop in runs[: workload.period] for b in loop.bounds]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        # the timed time is the sum of the operations' own intervals; checks and the reference run outside them
        "ops_per_ref": (len(rel) / sum(rel), "1/ref"),
        "op_p50_ref": (statistics.median(rel), "ref"),
        "cert_bound_p50": (statistics.median(bounds) if bounds else None, "distance"),
        "peak_rss_mb": (peak_rss_mb(workload.op_processes), "MB"),
    }
    failed = sum(len(loop.failures) for loop in runs)
    every = [t for loop in runs for t in loop.latencies]
    extra = {
        "cycles": len(runs),
        "setup_s_samples": setup,
        "ref_ms_p50": 1e3 * statistics.median(reference.seconds),
        # wall-clock figures, which follow the host's speed (see reference.py)
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "fail_frac": failed / len(every),
        "op_p90_ms": 1e3 * statistics.quantiles(every, n=10)[-1] if len(every) >= P90_MIN_OPS else None,
    }
    return runs, metrics, extra


def per_layer(workload, it, seconds: float) -> tuple[list[Loop], dict, dict]:
    """Untraced cycles for half of `seconds`, then as many traced ones."""
    from reference import Reference
    from spans import Tracer, summarize

    reference = Reference(workload.op_processes)
    plain = run_cycles(workload, it, seconds / 2, reference)
    tracer = Tracer()
    tracer.op = "setup"
    workload.trace_with(tracer)
    traced = run_cycles(workload, it, seconds, reference, tracer, count=len(plain))
    tracer.uninstall()

    def ops_per_s(runs):
        return sum(len(r.latencies) for r in runs) / sum(sum(r.latencies) for r in runs)

    def mean_rel(runs):
        return statistics.fmean(relative_latencies(runs))

    metrics = summarize(tracer.spans, tracer.counts)
    metrics["trace.ops"] = (sum(len(r.latencies) for r in traced), "count")
    metrics["trace.ops_per_s"] = (ops_per_s(traced), "1/s")
    metrics["trace.untraced_ops_per_s"] = (ops_per_s(plain), "1/s")
    metrics["trace.overhead_frac"] = (mean_rel(traced) / mean_rel(plain) - 1.0, "ratio")
    return plain + traced, metrics, {"cycles": len(plain), "spans": len(tracer.spans)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ballbodies" / "__init__.py").is_file():
        print(f"perfbench: no ballbodies sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]

    import ballbodies

    if Path(ballbodies.__file__).resolve().parent != SRC / "ballbodies":
        print(f"perfbench: imported ballbodies from {ballbodies.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import gen
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    workload.setup()
    it = enumerate(gen.iter_cycles(args.workload, args.seed))
    _, first = next(it)
    for i in workload.warmup:  # lazy imports and first-call set-up happen before timing
        workload.run(first[i])
    run = per_layer if args.trace else end_to_end
    loops, metrics, extra = run(workload, it, args.seconds)

    counts = Counter()
    checks_run = Counter()
    errors = Counter()
    failures = []
    for loop in loops:
        counts.update(loop.counts())
        checks_run.update(loop.checks)
        errors.update(loop.errors)
        failures += loop.failures
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(),
        "ops": dict(counts),
        "checks_run": dict(checks_run),
        "errors": dict(errors),
        "failures": failures[:5],
        **extra,
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value!r:>24} {unit}")
    print(json.dumps(summary))
    result = {
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
