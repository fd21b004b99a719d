"""The benchmark's workloads: what one operation runs, and how it is checked.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  A run takes fresh cycles of
operations for as long as ``--seconds`` allows.  The slot structure
(shapes, leaf sizes) repeats every `period` cycles; `slot_key` names the
operations of one shape and leaf sizes, whose latencies are compared
across cycles.  Library workloads call ballbodies' public functions in
this process, always through the module attribute (for example
``support.hausdorff``), so that the span tracer's rebinding sees them.
``cli-oneshot`` runs each command in a fresh interpreter.
"""

from __future__ import annotations

import json
import subprocess
import sys
from importlib import import_module

import numpy as np

# Modules by import path: the package's `support` function shadows the
# `ballbodies.support` module as an attribute of the package.
bodies, errors, geometry, lab, maps, solver, support = (
    import_module(f"ballbodies.{name}")
    for name in ("bodies", "errors", "geometry", "lab", "maps", "solver", "support")
)

import checks
import cli_child
import gen

TIMEOUT_S = 120


def interval(res) -> tuple[float, float]:
    return (res.lower, res.upper)


class SameSlots:
    """A workload whose cycles all have the same slot structure."""

    period = 1

    def slot_key(self, index: int, pos: int):
        return pos


class InProcess(SameSlots):
    """A workload whose operations run in this process."""

    op_processes = False  # peak RSS is this process's own; so is the reference task (reference.py)

    def trace_with(self, tracer):
        """Trace later calls, set-up included: the nets are built again under the tracer."""
        tracer.install()
        self.setup()


class DistCorpus(InProcess):
    """parse_body x2, then support.hausdorff on the default net, fresh oracles each time."""

    name = "dist-corpus"
    dims = (2, 3)
    period = 4  # the 2-d big leaves step through 9..16 centers over four cycles
    warmup = (16, 17, 18, 19, 0, 6)  # anchors and the first small pair of each dimension

    def slot_key(self, index, pos):
        return (index % self.period, pos) if pos in gen.DIST_BIG_SLOTS else pos

    def setup(self):
        self.nets = {d: geometry.make_sphere_net(d, support.default_mesh(d)) for d in self.dims}

    def run(self, op):
        a, b = bodies.parse_body(op["a"]), bodies.parse_body(op["b"])
        res = support.hausdorff(a, b, self.nets[op["dim"]])
        return {"interval": interval(res), "bound": res.error_bound, "bodies": (a, b)}

    def check(self, op, out):
        name = "closed-form" if "expect" in op else "interval"
        found = [(name, checks.distance(out, op.get("expect")))]
        if "isometry" in op:
            a, b = out["bodies"]
            net = self.nets[op["dim"]]
            g = geometry.RigidMotion(np.asarray(op["isometry"]["rotation"]), np.asarray(op["isometry"]["translation"]))
            dual = support.hausdorff(bodies.c_dual(a), bodies.c_dual(b), net)
            moved = support.hausdorff(bodies.apply_motion(g, a), bodies.apply_motion(g, b), net)
            found.append(("isometry", checks.intervals_overlap([out["interval"], interval(dual), interval(moved)])))
        return found

    def bound(self, op, out):
        """Only the anchors' bounds: their inputs' norms, and so their bounds, are fixed."""
        return out["bound"] if "expect" in op else None


class ClassifyPlanted(InProcess):
    """parse_map, then lab.classify_isometry with the default nets."""

    name = "classify-planted"
    dims = (2, 3)
    warmup = (0, 4, 5, 6, 7)  # a 2-d motion and the quick negative fixtures

    def setup(self):
        self.configs = {d: lab.ClassifierConfig(dimension=d) for d in self.dims}

    def run(self, op):
        T = maps.parse_map(op["map"], op["dim"])
        try:
            c = lab.classify_isometry(T, self.configs[op["dim"]])
        except errors.NotIsometryError:
            return {"kind": "not-isometry"}
        return {
            "kind": c.kind,
            "rotation": c.motion.rotation,
            "translation": c.motion.translation,
            "residual": c.residual,
            "residual_bound": c.residual_bound,
        }

    def check(self, op, out):
        return [("classification", checks.classification(op["expect"], out))]

    def bound(self, op, out):
        return out.get("residual_bound")


class ReconstructProbe(InProcess):
    """parse_body, then the `reconstruct` command's pipeline on the 13x13 probe grid."""

    name = "reconstruct-probe"
    dims = (2,)
    warmup = ()
    grid_step, grid_extent = 0.5, 3.0

    def setup(self):
        self.tol = solver.DEFAULT_TOL
        self.net = geometry.make_sphere_net(2, support.default_mesh(2))
        axis = np.arange(-self.grid_extent, self.grid_extent + 1e-9, self.grid_step)
        self.probes = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)

    def run(self, op):
        net, tol = self.net, self.tol
        ev = support.SupportEval(bodies.parse_body(op["body"]), tol)
        d = support.farthest_distance_batch(ev, self.probes, net, tol) + 2 * tol
        recon = support.reconstruct(list(zip(self.probes, d)), net, tol)
        dom = float(np.min(recon.on_net(net) - ev.on_net(net)))
        res = support.hausdorff(recon, ev, net, tol)
        return {"dominance_min": dom, "value": res.value, "bound": res.error_bound}

    def check(self, op, out):
        return [("reconstruction", checks.reconstruction(out, self.tol))]

    def bound(self, op, out):
        return out["bound"]


class CliOneshot(SameSlots):
    """One `python -m ballbodies ...` process per operation, over a fixed command rotation."""

    name = "cli-oneshot"
    dims = ()
    warmup = ()
    op_processes = True  # peak RSS is the largest command process; the reference task is a process

    def __init__(self):
        self.tracer = None

    def setup(self):
        pass

    def trace_with(self, tracer):
        """Run later operations through the traced child process (cli_child.py)."""
        self.tracer = tracer

    def run(self, op):
        if self.tracer is None:
            argv = [sys.executable, "-m", "ballbodies", *op["argv"]]
        else:
            argv = [sys.executable, "-X", "importtime", cli_child.__file__, *op["argv"]]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=TIMEOUT_S)
        stdout = proc.stdout
        if self.tracer is not None:
            stdout, _, spans = stdout.partition(cli_child.MARKER)
            self.tracer.merge(json.loads(spans), self.tracer.op)
            self.tracer.counts["cli.import.scipy_optimize_us"] += importtime_us(proc.stderr, "scipy.optimize")
        report = json.loads(stdout) if proc.returncode == 0 else None
        return {"code": proc.returncode, "report": report}

    def check(self, op, out):
        return [("cli", checks.cli_report(op, out["code"], out["report"]))]

    def bound(self, op, out):
        if out["report"] is None or out["report"]["command"] != "dist":
            return None
        return out["report"]["result"]["error_bound"]


def importtime_us(stderr: str, module: str) -> int:
    """Cumulative import time of `module` from `python -X importtime` output."""
    for line in stderr.splitlines():
        if line.startswith("import time:") and line.rsplit("|", 1)[-1].strip() == module:
            return int(line.split("|")[1])
    return 0


WORKLOADS = {w.name: w for w in (DistCorpus, ClassifyPlanted, ReconstructProbe, CliOneshot)}


def setup_argv(workload) -> list[str]:
    """The command whose wall time is the workload's set-up time."""
    if not workload.dims:
        return [sys.executable, "-m", "ballbodies", "--version"]
    code = (
        "import ballbodies\n"
        "from ballbodies.support import default_mesh\n"
        f"for d in {workload.dims!r}:\n"
        "    ballbodies.make_sphere_net(d, default_mesh(d))\n"
    )
    return [sys.executable, "-c", code]

