"""Batch command-line front end.

Bodies and maps arrive as JSON documents (a file path, ``-`` for stdin, or
an inline JSON string); every invocation emits one deterministic JSON
report embedding the configuration and tool version.  Exit codes: 0 ok,
1 a selftest criterion failed, 2 parse error, 3 invariant violation,
4 classification-premise failure, 5 adaptive resolution or memory exhausted.
SciPy, ``lab``, ``maps`` and ``planar`` are imported only by the commands that use them.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass

import click
import numpy as np

from . import __version__
from .bodies import parse_body
from .errors import (
    AmbiguousClassificationError,
    DegenerateSourcesError,
    DimensionMismatchError,
    DocumentError,
    EmptyBodyError,
    EmptyRasterError,
    EmptyReconstructionError,
    GridMismatchError,
    NoConvergenceError,
    NotIsometryError,
    ResolutionExhaustedError,
)
from .geometry import make_sphere_net
from .solver import DEFAULT_TOL
from .support import SupportEval, circumball, default_mesh, hausdorff, reconstruct_from_grid

EXIT_FAILED = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_PREMISE = 4
EXIT_RESOLUTION = 5

_ERROR_EXITS = [
    ((DocumentError, json.JSONDecodeError, FileNotFoundError, IsADirectoryError), EXIT_PARSE),
    (
        (
            EmptyBodyError,
            EmptyReconstructionError,
            EmptyRasterError,
            GridMismatchError,
            DimensionMismatchError,
            DegenerateSourcesError,
            ValueError,
        ),
        EXIT_INVARIANT,
    ),
    ((NotIsometryError, AmbiguousClassificationError), EXIT_PREMISE),
    ((ResolutionExhaustedError, NoConvergenceError, MemoryError), EXIT_RESOLUTION),
]


@dataclass
class RunConfig:
    dimension: int | None
    net_mesh: float | None
    support_tol: float
    seed: int
    oracle: bool
    output_path: str | None

    def __post_init__(self):
        if self.seed < 0:  # NumPy's generators take no negative seed
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def resolve_dim(self, inferred: int | None) -> int:
        """--dim or the documents' dimension, which must agree; 2 when neither is set (inferred None)."""
        if None not in (self.dimension, inferred) and self.dimension != inferred:
            raise DimensionMismatchError(
                f"--dim {self.dimension} but the documents live in dimension {inferred}"
            )
        dim = next(d for d in (self.dimension, inferred, 2) if d is not None)
        if dim < 2:
            raise ValueError("dimension must be at least 2")
        return dim

    def net(self, dim: int):
        mesh = self.net_mesh if self.net_mesh is not None else default_mesh(dim)
        return make_sphere_net(dim, mesh)

    def to_doc(self) -> dict:
        return {
            "dimension": self.dimension,
            "net_mesh": self.net_mesh,
            "support_tol": self.support_tol,
            "seed": self.seed,
            "oracle": self.oracle,
        }


def parse_map(doc, dim: int):
    """`maps.parse_map`, importing `maps` on first use; perfbench's tracer rebinds this name."""
    from .maps import parse_map

    return parse_map(doc, dim)


def _load_document(source: str):
    """Read a JSON document from a path, stdin ('-'), or an inline string."""
    text = None
    if source == "-":
        text = sys.stdin.read()
    elif source.lstrip().startswith(("{", "[")):
        text = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    return json.loads(text)


def _emit(config: RunConfig, command: str, result: dict) -> None:
    report = {
        "tool": "ballbodies",
        "version": __version__,
        "command": command,
        "config": config.to_doc(),
        "result": result,
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _fail(command: str, exc: Exception) -> None:
    for types, code in _ERROR_EXITS:
        if isinstance(exc, types):
            payload = {
                "tool": "ballbodies",
                "version": __version__,
                "command": command,
                "error": {"type": type(exc).__name__, "message": str(exc)},
            }
            click.echo(json.dumps(payload, sort_keys=True, indent=2), err=True)
            sys.exit(code)
    raise exc


def _reported(fn):
    """Command callback: emits `fn(config, ...)` as the report of the command
    being run, under its click name, and maps its errors to the exit codes."""

    @functools.wraps(fn)
    def command(*args, **kwargs):
        ctx = click.get_current_context()
        try:
            result = fn(ctx.obj, *args, **kwargs)
            _emit(ctx.obj, ctx.info_name, result)
        except Exception as exc:  # mapped to the documented exit codes
            _fail(ctx.info_name, exc)
        return result

    return command


def _bodies(config: RunConfig, *sources: str):
    """The parsed body documents and their dimension, resolved against --dim."""
    bodies = [parse_body(_load_document(source)) for source in sources]
    dims = [str(body.dim) for body in bodies]
    if len(set(dims)) > 1:
        raise DimensionMismatchError(f"bodies have dimensions {', '.join(dims[:-1])} and {dims[-1]}")
    return bodies, config.resolve_dim(bodies[0].dim)


@click.group()
@click.version_option(version=__version__, prog_name="ballbodies")
@click.option("--dim", type=int, default=None, help="Ambient dimension (default: inferred).")
@click.option("--mesh", type=float, default=None, help="Direction-net covering radius.")
@click.option("--tol", type=float, default=DEFAULT_TOL, help="Support oracle tolerance.")
@click.option("--seed", type=int, default=0, help="Seed for randomized checks.")
@click.option("--oracle", is_flag=True, help="Cross-check against the raster oracle (2-d).")
@click.option("--out", type=str, default=None, help="Write the report to this path.")
@click.pass_context
def main(ctx, dim, mesh, tol, seed, oracle, out):
    """Numerics for intersections of unit balls and their metric isometries."""
    try:
        ctx.obj = RunConfig(dim, mesh, tol, seed, oracle, out)
    except ValueError as exc:
        _fail(ctx.invoked_subcommand, exc)


@main.command()
@click.argument("body_a")
@click.argument("body_b")
@_reported
def dist(config: RunConfig, body_a, body_b):
    """Hausdorff distance between two body documents."""
    (a, b), dim = _bodies(config, body_a, body_b)
    net = config.net(dim)
    res = hausdorff(a, b, net, config.support_tol)
    result = {"value": res.value, "error_bound": res.error_bound}
    if config.oracle:
        if dim == 2:
            from .raster import ORACLE_CELL, raster_hausdorff, rasterize

            result["oracle_value"] = raster_hausdorff(
                rasterize(a, ORACLE_CELL), rasterize(b, ORACLE_CELL)
            )
        else:
            result["oracle_value"] = None
    return result


@main.command()
@click.argument("body")
@click.option("--direction", "-u", required=True, help="Unit direction as a JSON array.")
@_reported
def support(config: RunConfig, body, direction):
    """Support-function value of a body in one direction."""
    (expr,), _ = _bodies(config, body)
    u = np.asarray(json.loads(direction), dtype=float)
    ev = SupportEval(expr, config.support_tol)
    return {"direction": u.tolist(), "value": ev(u), "tolerance": ev.tol}


@main.command()
@click.argument("body")
@_reported
def cdual_check(config: RunConfig, body):
    """Duality identities for one body: involution and the support identity."""
    from .bodies import c_dual

    (expr,), dim = _bodies(config, body)
    net = config.net(dim)
    ev = SupportEval(expr, config.support_tol)
    h = ev.on_net(net)
    hcc = SupportEval(c_dual(c_dual(expr)), config.support_tol).on_net(net)
    g = SupportEval(c_dual(expr), config.support_tol).batch(-net.directions)
    inv = float(np.max(np.abs(hcc - h)))
    ident = float(np.max(np.abs(h + g - 1.0)))
    return {
        "involution_deviation": inv,
        "support_identity_deviation": ident,
        "passed": bool(inv <= 2 * config.support_tol and ident <= 2 * config.support_tol),
    }


@main.command()
@click.argument("body")
@_reported
def circ(config: RunConfig, body):
    """Circumball (smallest enclosing ball) of a body."""
    (expr,), dim = _bodies(config, body)
    ball = circumball(expr, config.net(dim), config.support_tol)
    return {"center": ball.center.tolist(), "radius": ball.radius}


@main.command("reconstruct")  # not `reconstruct`: perfbench's tracer rebinds that name here
@click.argument("body")
@click.option("--grid-step", type=float, default=0.5, show_default=True)
@click.option("--grid-extent", type=float, default=3.0, show_default=True)
@_reported
def reconstruct_cmd(config: RunConfig, body, grid_step, grid_extent):
    """Rebuild a planar body from its distances to a probe grid."""
    (expr,), dim = _bodies(config, body)
    rec = reconstruct_from_grid(expr, grid_step, grid_extent, config.net(dim), config.support_tol)
    return {
        "probes": rec.probes,
        "support_dominance_min": rec.dominance_min,
        "distance": rec.distance.value,
        "distance_error_bound": rec.distance.error_bound,
    }


@main.command()
@click.argument("body0")
@click.argument("body1")
@click.argument("body2")
@_reported
def geodesic_check(config: RunConfig, body0, body1, body2):
    """Betweenness additivity and the midpoint-collapse check for a triple."""
    from .lab import geodesic_midpoint_check

    (k0, k1, k2), dim = _bodies(config, body0, body1, body2)
    net = config.net(dim)
    return geodesic_midpoint_check(k0, k1, k2, net, config.support_tol).to_doc()


@main.command()
@click.argument("map_doc")
@_reported
def classify(config: RunConfig, map_doc):
    """Normal form of a black-box isometry: a motion, or a motion after duality."""
    from .lab import ClassifierConfig, classify_isometry
    from .maps import map_dimension

    doc = _load_document(map_doc)
    dim = config.resolve_dim(map_dimension(doc))
    T = parse_map(doc, dim)
    cfg = ClassifierConfig(
        dimension=dim, net=config.net(dim), tol=config.support_tol, seed=config.seed
    )
    return classify_isometry(T, cfg).to_doc()


@main.command()
@click.argument("map_doc")
@click.option("--target", required=True, help="Target point as a JSON array.")
@_reported
def surjectivity(config: RunConfig, map_doc, target):
    """Degree-based surjectivity evidence for a planar continuous map."""
    from .planar import surjectivity_probe_planar

    T = parse_map(_load_document(map_doc), config.resolve_dim(2))
    return surjectivity_probe_planar(T, json.loads(target), seed=config.seed).to_doc()


@main.command()
@click.option("--profile", type=click.Choice(["full", "quick"]), default="full", show_default=True)
@click.option("--criteria", type=str, default=None, help="Comma-separated criterion ids.")
def selftest(profile, criteria):
    """Run the acceptance criteria; nonzero exit if any criterion fails."""
    if _selftest_report(profile, criteria)["failed"]:
        sys.exit(EXIT_FAILED)


@_reported
def _selftest_report(config: RunConfig, profile, criteria):
    """The `selftest` report, emitted and guarded like every command's."""
    from .selftest import run_selftest

    chosen = None
    if criteria:
        chosen = [int(c) for c in criteria.split(",") if c.strip()]
    return run_selftest(
        seed=config.seed,
        tol=config.support_tol,
        net_mesh=config.net_mesh,
        profile=profile,
        criteria=chosen,
    )


if __name__ == "__main__":
    main()
