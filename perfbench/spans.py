"""Span tracing of ballbodies' layers, installed from outside the package.

The tracer rebinds, for each traced function, the module-level names its
callers use (``lab.hausdorff``, ``bodies.prepare_leaf``, ...), so that each
call into a layer becomes a span: name, start, end, parent span and
operation id.  Nothing under ``src/`` is edited.  Spans stay in memory;
``summarize`` turns them into the per-layer metrics at the end of a run.

The layers are the package's modules: geometry, bodies, solver, support,
lab, planar and cli.  A layer's self time is its spans' time minus the time
covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

LAYERS = ("geometry", "bodies", "solver", "support", "lab", "planar", "cli")

# Dimensions the solver enumerates active sets in; other leaves take the
# per-direction active-set fallback.
ENUM_DIMS = (2, 3)


def _net_attrs(args, kwargs, out):
    return {"dirs": len(out)} if out is not None else {}


def _leaf_attrs(max_centers, args, kwargs, out):
    """Directions, and whether the leaf takes the fallback: more centers than
    the solver enumerates (`max_centers`, its ENUM_MAX_CENTERS) or a
    dimension it does not enumerate."""
    leaf, dirs = args[0], args[1]
    n_dirs = 1 if getattr(dirs, "ndim", 2) == 1 else len(dirs)
    fallback = (
        leaf.m != 1
        and not leaf.point_like
        and (leaf.m > max_centers or leaf.dim not in ENUM_DIMS)
    )
    return {"dirs": n_dirs, "fallback": fallback}


def _probe_attrs(args, kwargs, out):
    return {"probes": len(args[1])}


# (span name, function, modules whose binding of that name is replaced, attrs)
BINDINGS = (
    ("geometry.make_sphere_net", "make_sphere_net", ("geometry", "lab", "cli"), _net_attrs),
    ("geometry.minimal_enclosing_ball", "minimal_enclosing_ball", ("geometry", "corpus"), None),
    ("bodies.parse_body", "parse_body", ("bodies", "maps", "cli"), None),
    ("solver.prepare_leaf", "prepare_leaf", ("bodies",), None),
    ("solver.support_batch", "support_batch", ("support",), _leaf_attrs),
    ("support.hausdorff", "hausdorff", ("support", "lab", "cli"), None),
    ("support.circumball", "circumball", ("support", "lab", "cli"), None),
    ("support.farthest_distance_batch", "farthest_distance_batch", ("support", "cli"), _probe_attrs),
    ("support.reconstruct", "reconstruct", ("support", "cli"), None),
    ("lab.classify_isometry", "classify_isometry", ("lab", "cli"), None),
    ("planar.surjectivity_probe_planar", "surjectivity_probe_planar", ("planar", "cli"), None),
)


class Tracer:
    """In-memory span recorder.  Each span is [name, start, end, parent, op, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = None
        self.active = True
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def start_op(self) -> None:
        """Spans from here on belong to the next operation."""
        self.op = 0 if not isinstance(self.op, int) else self.op + 1
        self.active = True

    def record(self, name: str, start: float, end: float, attrs: dict | None = None) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.op, attrs or {}])

    def wrap(self, name: str, fn, attrs=None):
        """`fn` recording one span per call while the tracer is active.

        A re-entrant call (recursion) stays inside the outer span.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.active or (stack and spans[stack[-1]][0] == name):
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, {}]
            stack.append(len(spans))
            spans.append(rec)
            out = None
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as exc:
                rec[5]["error"] = type(exc).__name__
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                if attrs is not None:
                    rec[5].update(attrs(args, kwargs, out))

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Rebind the traced names in every imported ballbodies module."""
        modules = {
            name: sys.modules[f"ballbodies.{name}"]
            for name in ("geometry", "bodies", "solver", "support", "lab", "corpus", "maps", "planar", "cli")
            if f"ballbodies.{name}" in sys.modules
        }
        for span, attr, callers, attrs in BINDINGS:
            home = importlib.import_module(f"ballbodies.{span.split('.')[0]}")
            if attrs is _leaf_attrs:
                attrs = functools.partial(_leaf_attrs, home.ENUM_MAX_CENTERS)
            traced = self.wrap(span, getattr(home, attr), attrs)
            for caller in callers:
                if caller in modules and hasattr(modules[caller], attr):
                    self._rebind(modules[caller], attr, traced)
        support = modules["support"]
        self._rebind(support.SupportEval, "on_net", self.wrap("support.on_net", support.SupportEval.on_net))
        if "cli" in modules:
            self._rebind(modules["cli"], "parse_map", self._counting_parse_map(modules["cli"].parse_map))

    def _counting_parse_map(self, parse_map):
        """parse_map whose planar maps count their evaluations as planar.map_evals."""
        from ballbodies.maps import BlackBoxMap

        counts = self.counts

        def parse(doc, dim):
            m = parse_map(doc, dim)
            if not m.planar:
                return m

            def evaluate(x):
                counts["planar.map_evals"] += 1
                return m.evaluate(x)

            return BlackBoxMap(evaluate, m.dim, planar=True, name=m.name)

        return parse

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}

    def merge(self, exported: dict, op) -> None:
        """Append another process's spans (re-parented) under operation `op`."""
        base = len(self.spans)
        for name, start, end, parent, _op, attrs in exported["spans"]:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, op, attrs])
        self.counts.update(exported["counts"])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(spans: list[list], counts: dict) -> dict:
    """Per-layer metrics, name -> (value, unit), from a run's spans and counters.

    Counts and seconds are totals over the traced phase; every ratio's base
    is one of the reported counts.
    """
    calls: Counter = Counter()
    secs: Counter = Counter()
    self_s: Counter = Counter()
    child_s = [0.0] * len(spans)
    children = [[] for _ in spans]
    for i, (name, start, end, parent, _op, _attrs) in enumerate(spans):
        calls[name] += 1
        secs[name] += end - start
        if parent >= 0:
            child_s[parent] += end - start
            children[parent].append(i)
    for i, (name, start, end, *_rest) in enumerate(spans):
        self_s[name.split(".")[0]] += end - start - child_s[i]

    def ancestor(i: int, name: str) -> int:
        p = spans[i][3]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        return p

    dirs = fallback_dirs = fallback_s = no_conv = 0
    haus_dirs = haus_solves = 0
    net_dirs = probes = 0
    lp_in_classify = lp_s_in_classify = haus_in_classify = 0
    on_net_hits = 0
    for i, (name, start, end, _parent, _op, attrs) in enumerate(spans):
        if name == "solver.support_batch":
            dirs += attrs.get("dirs", 0)
            if attrs.get("fallback"):
                fallback_dirs += attrs.get("dirs", 0)
                fallback_s += end - start
            if attrs.get("error") == "NoConvergenceError":
                no_conv += 1
            if ancestor(i, "support.hausdorff") >= 0:
                haus_dirs += attrs.get("dirs", 0)
                haus_solves += 1
        elif name == "geometry.make_sphere_net":
            net_dirs += attrs.get("dirs", 0)
        elif name == "support.farthest_distance_batch":
            probes += attrs.get("probes", 0)
        elif name == "support.on_net":
            on_net_hits += not any(spans[c][0] == "solver.support_batch" for c in children[i])
        if name == "support.circumball" and ancestor(i, "lab.classify_isometry") >= 0:
            lp_in_classify += 1
            lp_s_in_classify += end - start
        if name == "support.hausdorff" and ancestor(i, "lab.classify_isometry") >= 0:
            haus_in_classify += 1

    n_classify = calls["lab.classify_isometry"]
    m = {}
    for span, *_ in BINDINGS:
        m[f"{span}.calls"] = (calls[span], "count")
        m[f"{span}.s"] = (secs[span], "s")
    m["support.on_net.calls"] = (calls["support.on_net"], "count")
    m["geometry.net_dirs"] = (_ratio(net_dirs, calls["geometry.make_sphere_net"]), "count")
    m["solver.support_batch.dirs"] = (dirs, "count")
    m["solver.ns_per_dir"] = (_ratio(secs["solver.support_batch"] * 1e9, dirs), "ns")
    m["solver.fallback_dirs"] = (fallback_dirs, "count")
    m["solver.fallback_s"] = (fallback_s, "s")
    m["solver.no_convergence"] = (no_conv, "count")
    m["support.dirs_per_hausdorff"] = (_ratio(haus_dirs, calls["support.hausdorff"]), "count")
    m["support.leaf_solves_per_hausdorff"] = (_ratio(haus_solves, calls["support.hausdorff"]), "count")
    m["support.on_net.hit_ratio"] = (_ratio(on_net_hits, calls["support.on_net"]), "ratio")
    m["support.farthest_distance_batch.probes"] = (probes, "count")
    m["lab.lp_per_classify"] = (_ratio(lp_in_classify, n_classify), "count")
    m["lab.lp_time_share"] = (_ratio(lp_s_in_classify, secs["lab.classify_isometry"]), "ratio")
    m["lab.hausdorff_per_classify"] = (_ratio(haus_in_classify, n_classify), "count")
    m["planar.map_evals"] = (counts.get("planar.map_evals", 0), "count")
    m["cli.command.calls"] = (calls["cli.command"], "count")
    m["cli.command_s"] = (secs["cli.command"], "s")
    m["cli.import_s"] = (secs["cli.import"], "s")
    m["cli.import.scipy_optimize_s"] = (counts.get("cli.import.scipy_optimize_us", 0) / 1e6, "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s[layer], "s")
    return m
