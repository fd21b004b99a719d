"""Self-test suite: every shipped correctness claim as a pass/fail criterion.

Each criterion returns its status, "pass", "fail" or "vacuous", and its
details; `CRITERIA` gives each its id and name.  "vacuous" means the
configured resolution makes the claim's certified bounds wider than the
structural gap being tested, so neither pass nor fail would be meaningful.
Counts scale with the profile ("full" runs the shipped sizes, "quick" a
small deterministic subset used for demos and byte-determinism checks).
The one resolution setting is the net mesh: unset, each dimension takes
the package's default net (`support.default_mesh`), as every command
does, and the raster cross-checks use the cell `raster.ORACLE_CELL`.
"""

from __future__ import annotations

import math
import os
import traceback
from dataclasses import dataclass

import numpy as np

from .bodies import apply_motion, ball_body, c_dual, combine, point_body
from .corpus import body_corpus, body_pairs, random_body, random_generators, random_motion
from .errors import NotIsometryError
from .geometry import RigidMotion, make_sphere_net
from .lab import ClassifierConfig, classify_isometry, geodesic_midpoint_check, screening_bound
from .maps import (
    cdual_map,
    compose_maps,
    constant_map,
    motion_map,
    planar_perturbed_map,
    planar_radial_hole_map,
    planar_rigid_map,
    scale_centers_map,
)
from .planar import root_tol, surjectivity_probe_planar
from .raster import ORACLE_CELL, raster_cdual, raster_circumball, raster_hausdorff, rasterize
from .solver import DEFAULT_TOL
from .support import (
    SupportEval,
    circumball,
    contains_point,
    default_mesh,
    hausdorff,
    net_error_bound,
    reconstruct_from_grid,
    sweep,
)


@dataclass
class CriterionResult:
    cid: int
    name: str
    status: str  # "pass" | "fail" | "vacuous"
    details: dict

    def to_doc(self) -> dict:
        return {"id": self.cid, "name": self.name, "status": self.status, "details": self.details}


@dataclass
class SelftestContext:
    seed: int
    tol: float
    mesh: float | None  # None: the default mesh of each dimension
    scale: float

    def __post_init__(self):
        self._nets: dict = {}

    def net(self, dim: int):
        if dim not in self._nets:
            mesh = self.mesh if self.mesh is not None else default_mesh(dim)
            self._nets[dim] = make_sphere_net(dim, mesh)
        return self._nets[dim]

    def count(self, base: int, minimum: int = 2) -> int:
        return max(minimum, int(round(base * self.scale)))


def _fmt(x: float) -> float:
    return float(f"{x:.6g}")


# ---------------------------------------------------------------------------
# criteria 1-4: support-function identities
# ---------------------------------------------------------------------------


def criterion_1(ctx: SelftestContext) -> tuple[str, dict]:
    worst = 0.0
    n2 = ctx.count(70)
    n3 = ctx.count(30)
    for dim, count, seed in ((2, n2, ctx.seed + 101), (3, n3, ctx.seed + 102)):
        bodies = body_corpus(seed, dim, count)
        twice = [c_dual(c_dual(body)) for body in bodies]
        h, hcc = np.split(sweep(bodies + twice, ctx.net(dim).directions, ctx.tol), 2)
        worst = max(worst, float(np.max(np.abs(hcc - h))))
    status = "pass" if worst <= 2 * ctx.tol else "fail"
    return status, {"bodies": n2 + n3, "max_deviation": _fmt(worst)}


def criterion_2(ctx: SelftestContext) -> tuple[str, dict]:
    worst = 0.0
    n2 = ctx.count(70)
    n3 = ctx.count(30)
    for dim, count, seed in ((2, n2, ctx.seed + 201), (3, n3, ctx.seed + 202)):
        net = ctx.net(dim)
        bodies = body_corpus(seed, dim, count)
        h, g = np.split(sweep(bodies + [c_dual(body) for body in bodies], net.directions, ctx.tol), 2)
        g = np.roll(g, len(net) // 2, axis=1)  # the net is [half; -half], so this is the dual's sweep at -u
        worst = max(worst, float(np.max(np.abs(h + g - 1.0))))
    status = "pass" if worst <= 2 * ctx.tol else "fail"
    return status, {"bodies": n2 + n3, "max_deviation": _fmt(worst)}


def criterion_3(ctx: SelftestContext) -> tuple[str, dict]:
    net = ctx.net(2)
    count = ctx.count(100)
    worst_excess = 0.0
    for k, t in body_pairs(ctx.seed + 301, 2, count):
        before = hausdorff(k, t, net, ctx.tol)
        after = hausdorff(c_dual(k), c_dual(t), net, ctx.tol)
        excess = abs(after.value - before.value) - (after.error_bound + before.error_bound)
        worst_excess = max(worst_excess, excess)
    status = "pass" if worst_excess <= 0.0 else "fail"
    return status, {"pairs": count, "worst_excess": _fmt(worst_excess)}


def criterion_4(ctx: SelftestContext) -> tuple[str, dict]:
    net = ctx.net(2)
    count = ctx.count(50)
    rng = np.random.default_rng(ctx.seed + 401)
    left, right = [], []
    for _ in range(count):
        lam = float(rng.uniform(0.05, 0.95))
        k = random_body(rng, 2)
        t = random_body(rng, 2)
        left.append(c_dual(combine(lam, k, t)))
        right.append(combine(lam, c_dual(k), c_dual(t)))
    left, right = np.split(sweep(left + right, net.directions, ctx.tol), 2)
    worst = float(np.max(np.abs(left - right)))
    status = "pass" if worst <= 2 * ctx.tol else "fail"
    return status, {"triples": count, "max_deviation": _fmt(worst)}


# ---------------------------------------------------------------------------
# criterion 5: the unit gap between points and unit balls
# ---------------------------------------------------------------------------


def criterion_5(ctx: SelftestContext) -> tuple[str, dict]:
    net = ctx.net(2)
    count = ctx.count(200)
    rng = np.random.default_rng(ctx.seed + 501)
    failures = []
    worst_gap = 0.0
    max_eb = 0.0
    for i in range(count):
        x = rng.uniform(-2.5, 2.5, 2)
        y = x.copy() if i % 10 == 0 else rng.uniform(-2.5, 2.5, 2)
        res = hausdorff(point_body(x), ball_body(y), net, ctx.tol)
        eb = res.error_bound
        max_eb = max(max_eb, eb)
        dist = float(np.linalg.norm(x - y))
        closed_form_gap = abs(res.value - (1.0 + dist))
        worst_gap = max(worst_gap, closed_form_gap)
        if res.value < 1.0 - eb:
            failures.append(f"pair {i}: value {res.value:.6f} below 1 - {eb:.4f}")
        if res.value <= 1.0 + eb and dist > eb * (1.0 + net.mesh) + 8 * ctx.tol:
            failures.append(f"pair {i}: near-unit distance but |x-y|={dist:.4f} > bound")
        if closed_form_gap > eb:
            failures.append(f"pair {i}: closed form missed by {closed_form_gap:.6f}")
    if max_eb >= 0.9:
        return "vacuous", {"reason": f"error bound {max_eb:.3f} swallows the structural gap of 1"}
    status = "pass" if not failures else "fail"
    return status, {
        "pairs": count, "max_closed_form_gap": _fmt(worst_gap), "error_bound": _fmt(max_eb),
        "failures": failures[:5],
    }


# ---------------------------------------------------------------------------
# criterion 6: circumradius range and the rigidity of radius-one bodies
# ---------------------------------------------------------------------------


def criterion_6(ctx: SelftestContext) -> tuple[str, dict]:
    net = ctx.net(2)
    bodies = body_corpus(ctx.seed + 601, 2, ctx.count(100))
    bodies += body_corpus(ctx.seed + 602, 3, ctx.count(20))
    worst_radius = 0.0
    near_unit = 0
    worst_rigidity = 0.0
    failures = []
    for i, body in enumerate(bodies):
        net_d = ctx.net(body.dim)
        ev = SupportEval(body, ctx.tol)  # its memo serves the rigidity check too
        ball = circumball(ev, net_d, ctx.tol)
        worst_radius = max(worst_radius, ball.radius)
        if ball.radius > 1.0 + 1e-4:
            failures.append(f"body {i}: circumradius {ball.radius:.6f} > 1 + 1e-4")
        if ball.radius >= 1.0 - 1e-6:
            near_unit += 1
            model = net_d.directions @ ball.center + 1.0
            dev = float(np.max(np.abs(ev.on_net(net_d) - model)))
            worst_rigidity = max(worst_rigidity, dev)
            if dev > 1e-4:
                failures.append(f"body {i}: radius-one body off a unit ball by {dev:.2e}")
    status = "pass" if not failures else "fail"
    return status, {
        "bodies": len(bodies), "max_radius": _fmt(worst_radius), "near_unit_bodies": near_unit,
        "max_rigidity_deviation": _fmt(worst_rigidity), "failures": failures[:5],
    }


# ---------------------------------------------------------------------------
# criterion 7: reconstruction from point distances
# ---------------------------------------------------------------------------


def _compact_body(rng: np.random.Generator, dim: int):
    """Random body kept within the probe window (small translations)."""
    body = random_generators(rng, dim, meb_cap=0.8, spread=0.5)
    for _ in range(int(rng.integers(0, 3))):
        pick = rng.integers(0, 3)
        if pick == 0:
            body = c_dual(body)
        elif pick == 1:
            body = combine(float(rng.uniform(0.2, 0.8)), body, random_generators(rng, dim, 3, 0.7, 0.4))
        else:
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            body = apply_motion(RigidMotion(q, rng.uniform(-0.3, 0.3, dim)), body)
    return body


def criterion_7(ctx: SelftestContext) -> tuple[str, dict]:
    net = ctx.net(2)
    count = ctx.count(10)
    rng = np.random.default_rng(ctx.seed + 701)
    improved = 0
    failures = []
    deltas = []
    worst_eb = 0.0  # the comparisons' own net error bounds
    for i in range(count):
        body = _compact_body(rng, 2)
        ev = SupportEval(body, ctx.tol)
        dists = {}
        for step in (0.5, 0.25):
            rec = reconstruct_from_grid(ev, step, 3.0, net, ctx.tol)
            if rec.dominance_min < -ctx.tol:
                failures.append(f"body {i} step {step}: reconstruction misses by {rec.dominance_min:.2e}")
            dists[step] = rec.distance.value
            worst_eb = max(worst_eb, rec.distance.error_bound)
        deltas.append(dists)
        if dists[0.5] > 0.1:
            failures.append(f"body {i}: distance {dists[0.5]:.4f} > 0.1 at step 0.5")
        if dists[0.25] < dists[0.5]:
            improved += 1
    if worst_eb >= 0.1:
        return "vacuous", {"reason": f"net error bound {worst_eb:.3f} exceeds the 0.1 distance target"}
    if improved < math.ceil(0.9 * count):
        failures.append(f"refinement improved only {improved}/{count} cases")
    status = "pass" if not failures else "fail"
    return status, {
        "bodies": count, "improved": improved,
        "max_distance_coarse": _fmt(max(d[0.5] for d in deltas)),
        "max_distance_fine": _fmt(max(d[0.25] for d in deltas)),
        "error_bound": _fmt(worst_eb), "failures": failures[:5],
    }


# ---------------------------------------------------------------------------
# criterion 8: points cannot hide inside geodesics between bodies
# ---------------------------------------------------------------------------


def criterion_8(ctx: SelftestContext) -> tuple[str, dict]:
    net = ctx.net(2)
    count = ctx.count(200)
    rng = np.random.default_rng(ctx.seed + 801)
    collapses = 0
    non_additive = 0
    tested = 0
    while tested < count:
        k0 = random_body(rng, 2)
        k2 = random_body(rng, 2)
        lam = float(rng.uniform(0.1, 0.9))
        check = geodesic_midpoint_check(k0, combine(lam, k0, k2), k2, net, ctx.tol)
        if check.radii[0][0] < 0.05 or check.radii[2][0] < 0.05:  # an endpoint may be a near-point
            continue
        tested += 1
        if not check.additive:
            non_additive += 1
        if check.verdict == "midpoint-collapse":
            collapses += 1
    # the shipped two-phase path: points up to the middle, then growing balls
    u = np.array([1.0, 0.0])
    fixture = geodesic_midpoint_check(
        point_body(np.zeros(2)),
        point_body(0.5 * u),
        combine(0.5, point_body(0.5 * u), ball_body(0.5 * u)),
        net,
        ctx.tol,
    )
    fixture_ok = (
        fixture.additive
        and fixture.radii[0][1] < 1e-3
        and abs(fixture.d02 - 1.0) < 0.01
        and fixture.verdict == "geodesic-ok"
    )
    status = "pass" if collapses == 0 and non_additive == 0 and fixture_ok else "fail"
    return status, {
        "triples": tested, "midpoint_collapses": collapses, "non_additive": non_additive,
        "point_endpoint_fixture": "ok" if fixture_ok else "failed",
    }


# ---------------------------------------------------------------------------
# criterion 9: the classifier recovers planted normal forms
# ---------------------------------------------------------------------------


def criterion_9(ctx: SelftestContext) -> tuple[str, dict]:
    screening_eb = screening_bound(2, ctx.net(2), ctx.tol)
    if screening_eb >= 1.0:
        return "vacuous", {"reason": f"screening bound {screening_eb:.3f} cannot separate defects below 1"}
    per_cell = ctx.count(13, minimum=1)
    failures = []
    worst_rot = 0.0
    worst_tr = 0.0
    worst_resid_ratio = 0.0
    total = 0
    for dim in (2, 3):
        config = ClassifierConfig(dimension=dim, net=ctx.net(dim), tol=ctx.tol, seed=ctx.seed)
        rng = np.random.default_rng(ctx.seed + 900 + dim)
        cell = per_cell if dim == 2 else max(1, ctx.count(12, minimum=1))
        for kind in ("identity", "cdual"):
            for j in range(cell):
                g = random_motion(rng, dim)
                if j % 2 == 0:  # force both determinant signs into the sample
                    q = g.rotation.copy()
                    if np.linalg.det(q) > 0:
                        q[:, 0] = -q[:, 0]
                    g = RigidMotion(q, g.translation)
                T = motion_map(g) if kind == "identity" else compose_maps([cdual_map(dim), motion_map(g)])
                total += 1
                try:
                    result = classify_isometry(T, config)
                except Exception as exc:
                    failures.append(f"{dim}d {kind} case {j}: {exc}")
                    continue
                rot_err = float(np.linalg.norm(result.motion.rotation - g.rotation, 2))
                tr_err = float(np.linalg.norm(result.motion.translation - g.translation))
                worst_rot = max(worst_rot, rot_err)
                worst_tr = max(worst_tr, tr_err)
                if result.kind != kind:
                    failures.append(f"{dim}d {kind} case {j}: classified as {result.kind}")
                if rot_err > 1e-4 or tr_err > 1e-4:
                    failures.append(f"{dim}d {kind} case {j}: motion error {rot_err:.2e}/{tr_err:.2e}")
                if result.residual > 5 * result.residual_bound:
                    failures.append(f"{dim}d {kind} case {j}: residual {result.residual:.2e}")
                worst_resid_ratio = max(
                    worst_resid_ratio, result.residual / max(result.residual_bound, 1e-30)
                )
    # negative fixtures must be rejected as failing the isometry premise
    config2 = ClassifierConfig(dimension=2, net=ctx.net(2), tol=ctx.tol, seed=ctx.seed)
    for bad in (constant_map(point_body(np.zeros(2))), scale_centers_map(2, 2.0)):
        try:
            classify_isometry(bad, config2)
            failures.append(f"negative fixture {bad.name} was not rejected")
        except NotIsometryError:
            pass
    status = "pass" if not failures else "fail"
    return status, {
        "planted": total, "max_rotation_error": _fmt(worst_rot), "max_translation_error": _fmt(worst_tr),
        "max_residual_ratio": _fmt(worst_resid_ratio), "failures": failures[:5],
    }


# ---------------------------------------------------------------------------
# criterion 10: planar surjectivity verifier
# ---------------------------------------------------------------------------


def criterion_10(ctx: SelftestContext) -> tuple[str, dict]:
    rng = np.random.default_rng(ctx.seed + 1001)
    failures = []
    n_rigid = ctx.count(10, minimum=1)
    n_pert = ctx.count(10, minimum=1)
    maps = []
    for i in range(n_rigid):
        angle = float(rng.uniform(0, 2 * math.pi))
        q = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        if i % 2 == 0:
            q[:, 1] = -q[:, 1]
        maps.append(("rigid", planar_rigid_map(RigidMotion(q, rng.uniform(-1, 1, 2)))))
    for i in range(n_pert):
        maps.append(("perturbed", planar_perturbed_map(0.2, seed=ctx.seed + i)))
    for idx, (label, f) in enumerate(maps):
        target = rng.uniform(-2, 2, 2)
        report = surjectivity_probe_planar(f, target, seed=ctx.seed)
        if report.verdict != "surjective-evidence":
            failures.append(f"{label} map {idx}: verdict {report.verdict}")
            continue
        if report.preimage_residual > root_tol(target):
            failures.append(f"{label} map {idx}: residual {report.preimage_residual:.2e}")
        ws = {w for _, w in report.degrees}
        if len(ws) != 1 or abs(next(iter(ws))) != 1:
            failures.append(f"{label} map {idx}: windings {sorted(ws)}")
        if report.homotopy_min <= 0:
            failures.append(f"{label} map {idx}: homotopy grazes the target")
    hole = surjectivity_probe_planar(planar_radial_hole_map(), np.zeros(2), seed=ctx.seed)
    if hole.verdict != "violation" or hole.preimage is not None:
        failures.append("radial-hole control produced a preimage")
    if "eps-hypothesis" not in hole.hypothesis_flags:
        failures.append("radial-hole control missing the distortion-hypothesis flag")
    status = "pass" if not failures else "fail"
    return status, {"maps": len(maps), "hole_flags": list(hole.hypothesis_flags), "failures": failures[:5]}


# ---------------------------------------------------------------------------
# criterion 11: agreement with the raster oracle
# ---------------------------------------------------------------------------


def criterion_11(ctx: SelftestContext) -> tuple[str, dict]:
    net = ctx.net(2)
    cell = ORACLE_CELL
    count = ctx.count(30)
    rng = np.random.default_rng(ctx.seed + 1101)
    failures = []
    bodies = [random_body(rng, 2) for _ in range(count)]
    rasters = {}

    def raster_of(i):
        if i not in rasters:
            rasters[i] = rasterize(bodies[i], cell)
        return rasters[i]

    for i in range(0, count - 1, 2):
        res = hausdorff(bodies[i], bodies[i + 1], net, ctx.tol)
        rv = raster_hausdorff(raster_of(i), raster_of(i + 1))
        if abs(res.value - rv) > res.error_bound + 4 * cell:
            failures.append(f"pair {i}: kernel {res.value:.4f} vs raster {rv:.4f}")
    for i in range(count):
        kb = circumball(bodies[i], net, ctx.tol)
        rb = raster_circumball(raster_of(i))
        # the Lipschitz form: the raster has no curvature interval
        bound = net_error_bound(net.mesh, (bodies[i].norm_bound,), None, (ctx.tol,)) + 4 * cell
        if abs(kb.radius - rb.radius) > bound:
            failures.append(f"body {i}: circumradius {kb.radius:.4f} vs raster {rb.radius:.4f}")
    # c-dual membership: kernel margins vs the rasterized dual body
    for i in range(0, count, 3):
        dual = SupportEval(c_dual(bodies[i]), ctx.tol)
        r = raster_cdual(raster_of(i))
        pts = rng.uniform(-2.0, 2.0, (40, 2))
        res = [contains_point(dual, p, net, ctx.tol) for p in pts]
        in_raster = r.contains_points(pts)
        for j, p in enumerate(pts):
            margin = res[j].margin
            if abs(margin) <= 4 * cell + 2 * ctx.tol:
                continue  # within the boundary band either answer is fine
            if (margin > 0) != bool(in_raster[j]):
                failures.append(f"body {i}: membership mismatch at {p.round(3).tolist()}")
    status = "pass" if not failures else "fail"
    return status, {"bodies": count, "cell": cell, "failures": failures[:5]}


# ---------------------------------------------------------------------------
# criterion 12: deterministic reports
# ---------------------------------------------------------------------------


def criterion_12(ctx: SelftestContext) -> tuple[str, dict]:
    import json

    def mini_report():
        mini = SelftestContext(seed=ctx.seed, tol=ctx.tol, mesh=ctx.mesh, scale=0.04)
        results = [run_criterion(cid, mini) for cid in (1, 2, 5)]
        return json.dumps([r.to_doc() for r in results], sort_keys=True)

    a = mini_report()
    b = mini_report()
    status = "pass" if a == b else "fail"
    return status, {"bytes": len(a), "identical": a == b}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

CRITERIA = {
    1: ("cdual-involution", criterion_1),
    2: ("support-identity", criterion_2),
    3: ("cdual-preserves-distance", criterion_3),
    4: ("duality-respects-averaging", criterion_4),
    5: ("point-to-ball-gap", criterion_5),
    6: ("circumradius-range-and-rigidity", criterion_6),
    7: ("reconstruction-from-distances", criterion_7),
    8: ("no-point-between-bodies", criterion_8),
    9: ("isometry-classifier", criterion_9),
    10: ("planar-surjectivity", criterion_10),
    11: ("raster-oracle-agreement", criterion_11),
    12: ("report-determinism", criterion_12),
}


def run_criterion(cid: int, ctx: SelftestContext) -> CriterionResult:
    name, criterion = CRITERIA[cid]
    return CriterionResult(cid, name, *criterion(ctx))


def _run_recorded(cid: int, ctx: SelftestContext) -> CriterionResult:
    """Run one criterion; one that raises fails with its error instead of ending the run."""
    try:
        return run_criterion(cid, ctx)
    except Exception as exc:
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        error = {
            "type": type(exc).__name__,
            "message": str(exc),
            "where": f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}",
        }
        return CriterionResult(cid, CRITERIA[cid][0], "fail", {"error": error})


def run_selftest(
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    net_mesh: float | None = None,
    profile: str = "full",
    criteria: list[int] | None = None,
) -> dict:
    """Run the acceptance criteria and return a report dictionary.

    `net_mesh` is the covering radius of the nets in every dimension;
    None takes `support.default_mesh` of each.  A bad profile, criterion
    id, seed, tolerance or mesh raises ValueError before any criterion runs.
    """
    scale = {"full": 1.0, "quick": 0.1}.get(profile)
    if scale is None:
        raise ValueError(f"unknown profile {profile!r}")
    ctx = SelftestContext(seed=seed, tol=tol, mesh=net_mesh, scale=scale)
    chosen = sorted(criteria) if criteria else sorted(CRITERIA)
    unknown = [cid for cid in chosen if cid not in CRITERIA]
    if unknown:
        raise ValueError(f"unknown criteria {unknown}; the ids run 1-{len(CRITERIA)}")
    if seed < 0:  # NumPy's generators take no negative seed
        raise ValueError(f"seed must be non-negative, got {seed}")
    if not 0 < tol < math.inf:  # also rejects NaN, as SupportEval does
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    ctx.net(2)  # make_sphere_net rejects a mesh outside (0, 2]
    results = [_run_recorded(cid, ctx).to_doc() for cid in chosen]
    return {
        "profile": profile,
        "criteria": results,
        "passed": sum(r["status"] == "pass" for r in results),
        "failed": sum(r["status"] == "fail" for r in results),
        "vacuous": sum(r["status"] == "vacuous" for r in results),
    }
