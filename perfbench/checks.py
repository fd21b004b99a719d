"""Per-operation correctness checks.

Each check takes the generated input (with its closed-form expectations) and
the operation's output as plain values, and returns ``None`` when the output
is right or a one-line reason when it is not.  Keeping them free of the
program under test lets the benchmark's tests feed them wrong values.
"""

from __future__ import annotations

import math

import numpy as np

# Classifier fits are exact up to rounding on planted maps.
MOTION_TOL = 1e-4
RESIDUAL_FACTOR = 5.0
# HiGHS primal feasibility tolerance is 1e-7; a unit ball's circumball is exact otherwise.
CIRC_TOL = 1e-5


def in_interval(expect: float, lo: float, hi: float) -> str | None:
    if not (math.isfinite(lo) and math.isfinite(hi)) or not lo <= expect <= hi:
        return f"closed form {expect!r} outside certified interval [{lo!r}, {hi!r}]"
    return None


def intervals_overlap(intervals: list[tuple[float, float]]) -> str | None:
    """Certified intervals of distances that the paper's isometries make equal."""
    lo = max(a for a, _ in intervals)
    hi = min(b for _, b in intervals)
    if lo > hi:
        return f"isometric distances have disjoint certified intervals {intervals!r}"
    return None


def distance(out: dict, expect: float | None) -> str | None:
    """A Hausdorff result: a nonnegative finite interval, holding the closed form if known."""
    lo, hi = out["interval"]
    if not (0.0 <= lo <= hi and math.isfinite(hi)) or not out["bound"] > 0:
        return f"malformed certified interval [{lo!r}, {hi!r}] with bound {out['bound']!r}"
    return None if expect is None else in_interval(expect, lo, hi)


def classification(expect: dict, out: dict) -> str | None:
    """A planted map's normal form, or the rejection of a negative fixture."""
    if out["kind"] != expect["kind"]:
        return f"classified as {out['kind']!r}, planted {expect['kind']!r}"
    if expect["kind"] == "not-isometry":
        return None
    rot = float(np.max(np.abs(np.asarray(out["rotation"]) - np.asarray(expect["rotation"]))))
    shift = float(np.max(np.abs(np.asarray(out["translation"]) - np.asarray(expect["translation"]))))
    if not (rot <= MOTION_TOL and shift <= MOTION_TOL):
        return f"fitted motion off by {rot:.3e} (rotation), {shift:.3e} (translation)"
    if not out["residual"] <= RESIDUAL_FACTOR * out["residual_bound"]:
        return f"residual {out['residual']!r} exceeds {RESIDUAL_FACTOR} x bound {out['residual_bound']!r}"
    return None


def reconstruction(out: dict, tol: float) -> str | None:
    """The reconstruction must contain the body: its support dominates everywhere."""
    if not out["dominance_min"] >= -tol:
        return f"support_dominance_min {out['dominance_min']!r} < -{tol}"
    if not (math.isfinite(out["value"]) and out["bound"] > 0):
        return f"malformed distance {out['value']!r} with bound {out['bound']!r}"
    return None


def cli_report(op: dict, code: int, report: dict | None) -> str | None:
    """A CLI invocation: exit code 0 and report fields matching the inputs' closed forms."""
    if code != 0:
        return f"exit code {code}"
    if report is None:
        return "no JSON report on stdout"
    res, expect, name = report.get("result", {}), op["expect"], op["name"]
    if name in ("dist2", "dist3"):
        tol = report["config"]["support_tol"]
        return in_interval(expect["value"], res["value"] - 4 * tol, res["value"] + res["error_bound"])
    if name == "support":
        if not abs(res["value"] - expect["value"]) <= res["tolerance"]:
            return f"support {res['value']!r}, closed form {expect['value']!r}"
        return None
    if name == "circ":
        off = float(np.max(np.abs(np.asarray(res["center"]) - np.asarray(expect["center"]))))
        if not (abs(res["radius"] - expect["radius"]) <= CIRC_TOL and off <= CIRC_TOL):
            return f"circumball radius {res['radius']!r}, center off by {off:.3e}"
        return None
    if name == "cdual-check":
        return None if res.get("passed") is True else "cdual-check did not pass"
    if res.get("verdict") != expect["verdict"]:
        return f"surjectivity verdict {res.get('verdict')!r}, expected {expect['verdict']!r}"
    return None
