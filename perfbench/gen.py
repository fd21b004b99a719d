"""Seeded generator of the benchmark's input documents.

Everything here is plain NumPy and JSON: the inputs must not depend on the
program under test (in particular not on ``ballbodies.corpus``), so that a
change to the program cannot change what it is measured on.  The same seed
gives byte-identical documents.

Each workload is a fixed *cycle* of operation slots.  The slot structure
(dimensions, tree shapes, leaf sizes, map kinds, command rotation) is the
same for every seed; the seed draws only the geometry inside each slot
(centers, rotations, translation directions, lambdas).  A run takes whole
cycles, so every run sees the stated input mix exactly.
"""

from __future__ import annotations

import json

import numpy as np

# Leaf centers lie within this distance of the leaf's anchor, so the centers
# fit in a ball of radius < 1 and every leaf is a nonempty, non-degenerate body.
LEAF_SPREAD = 0.8
# Planted and tree motions translate by exactly this length (random direction),
# which keeps certified bounds (they grow with the translation) seed-independent.
SHIFT = 1.0

# -- dist-corpus ------------------------------------------------------------
# One cycle: (dim, (shape_a, m_a), (shape_b, m_b)), then the anchor pairs.
# Tree shapes (see body_doc) are 0-3 wrappers deep; "cdual2" and "selfmix"
# share their leaf between two branches: cdual(cdual(K)) and
# combine(lam, K, motion(K)).
# 12 of 20 operations are 3-d.  2 of 40 bodies, both 2-d, carry a leaf of
# more than ENUM_MAX_CENTERS = 8 centers (m = 0 below): they have 9 + j and
# 16 - j centers in cycle j (mod 4), so every cycle costs about the same and
# four cycles cover 9..16.  3-d leaves stay at 8 centers or fewer: past 8, a
# 3-d leaf costs 1-2 s, and a run would hold too few of them to time them
# steadily on a shared host.
DIST_CYCLE = (
    (2, ("leaf", 3), ("cdual", 4)),
    (2, ("motion", 2), ("combine", 3)),
    (2, ("cdual2", 4), ("selfmix", 2)),
    (2, ("motion_cdual_combine", 3), ("leaf", 5)),
    (2, ("leaf", 0), ("motion", 3)),
    (2, ("combine", 2), ("cdual", 0)),
    (3, ("leaf", 3), ("cdual", 4)),
    (3, ("motion", 2), ("combine", 3)),
    (3, ("cdual2", 3), ("selfmix", 2)),
    (3, ("motion_cdual_combine", 2), ("leaf", 5)),
    (3, ("leaf", 4), ("motion", 3)),
    (3, ("combine", 3), ("cdual", 2)),
    (3, ("cdual", 3), ("leaf", 2)),
    (3, ("selfmix", 3), ("motion", 4)),
    (3, ("leaf", 8), ("cdual", 3)),
    (3, ("motion", 2), ("leaf", 6)),
)
# Positions in a dist-corpus cycle whose leaf sizes change with the cycle index.
DIST_BIG_SLOTS = frozenset(i for i, (_, *pair) in enumerate(DIST_CYCLE) if any(m == 0 for _, m in pair))
# Closed-form anchor pairs: d(point x, ball y) = 1 + |x - y|,
# d(ball x, ball y) = |x - y|, d(point x, point y) = |x - y|.
# The anchors' points and ball centers have fixed norms, and only the
# direction is drawn, so their certified bounds are the same for every seed:
# they are the bounds that cert_bound_p50 reports.
ANCHOR_CYCLE = ((2, "point_ball"), (3, "ball_ball"), (2, "point_point"), (3, "point_ball"))
ANCHOR_NORMS = (0.5, 0.8)
# Share of dist-corpus pairs whose c-duality and motion isometries are checked.
ISOMETRY_CHECK_SHARE = 0.25

# -- classify-planted -------------------------------------------------------
# (dim, kind, det): planted maps in 2-d, both normal forms with both
# determinant signs, then the two negative fixtures per dimension, which must
# raise NotIsometryError.  A 3-d classification takes about 3 s (0.3 s in
# 2-d); a run would hold too few of them to time them steadily on a shared
# host, so planted 3-d maps are left out.
CLASSIFY_CYCLE = (
    (2, "motion", 1),
    (2, "motion", -1),
    (2, "cdual_motion", 1),
    (2, "cdual_motion", -1),
    (2, "constant", 0),
    (2, "scale_centers", 0),
    (3, "constant", 0),
    (3, "scale_centers", 0),
)

# -- reconstruct-probe ------------------------------------------------------
# Compact 2-d bodies: (shape, m).
RECONSTRUCT_CYCLE = (("leaf", 3), ("cdual", 2), ("combine", 3), ("motion", 4))

# -- cli-oneshot ------------------------------------------------------------
CLI_ROTATION = (
    "dist2",
    "dist3",
    "support",
    "circ",
    "cdual-check",
    "surjectivity-rigid",
    "surjectivity-perturbed",
)


def rotation(rng: np.random.Generator, dim: int, det: int) -> np.ndarray:
    """Uniform random orthogonal matrix with determinant sign `det`."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) * det < 0:
        q[:, 0] = -q[:, 0]
    return q


def unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    u = rng.standard_normal(dim)
    return u / np.linalg.norm(u)


def motion_fields(rng: np.random.Generator, dim: int, det: int = 0) -> dict:
    det = det or (1 if rng.random() < 0.5 else -1)
    return {"rotation": rotation(rng, dim, det).tolist(), "translation": (SHIFT * unit(rng, dim)).tolist()}


def leaf_doc(rng: np.random.Generator, dim: int, m: int) -> dict:
    anchor = rng.uniform(-0.4, 0.4, dim)
    dirs = rng.standard_normal((m, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = LEAF_SPREAD * rng.uniform(0.3, 1.0, (m, 1))
    return {"type": "generators", "centers": (anchor + dirs * radii).tolist()}


def body_doc(rng: np.random.Generator, dim: int, shape: str, m: int) -> dict:
    """Body document of the named tree shape around one leaf of m centers."""
    k = leaf_doc(rng, dim, m)
    if shape == "leaf":
        return k
    if shape == "cdual":
        return {"type": "cdual", "of": k}
    if shape == "motion":
        return {"type": "motion", **motion_fields(rng, dim), "of": k}
    if shape == "combine":
        return {"type": "combine", "lambda": float(rng.uniform(0.2, 0.8)), "a": k, "b": leaf_doc(rng, dim, 2)}
    if shape == "cdual2":
        return {"type": "cdual", "of": {"type": "cdual", "of": k}}
    if shape == "selfmix":
        moved = {"type": "motion", **motion_fields(rng, dim), "of": k}
        return {"type": "combine", "lambda": float(rng.uniform(0.2, 0.8)), "a": k, "b": moved}
    if shape == "motion_cdual_combine":
        mix = {"type": "combine", "lambda": float(rng.uniform(0.2, 0.8)), "a": k, "b": leaf_doc(rng, dim, 2)}
        return {"type": "motion", **motion_fields(rng, dim), "of": {"type": "cdual", "of": mix}}
    raise ValueError(f"unknown shape {shape!r}")


def ball_doc(x) -> dict:
    return {"type": "generators", "centers": [list(map(float, x))]}


def point_doc(x) -> dict:
    return {"type": "cdual", "of": ball_doc(x)}


def anchor_pair(rng: np.random.Generator, dim: int, kind: str) -> dict:
    # fixed norms keep the certified bound (it grows with the norm) seed-independent
    x, y = ANCHOR_NORMS[0] * unit(rng, dim), ANCHOR_NORMS[1] * unit(rng, dim)
    gap = float(np.linalg.norm(x - y))
    if kind == "point_ball":
        return {"a": point_doc(x), "b": ball_doc(y), "expect": 1.0 + gap}
    if kind == "ball_ball":
        return {"a": ball_doc(x), "b": ball_doc(y), "expect": gap}
    if kind == "point_point":
        return {"a": point_doc(x), "b": point_doc(y), "expect": gap}
    raise ValueError(f"unknown anchor kind {kind!r}")


def dist_cycle(rng: np.random.Generator, index: int) -> list[dict]:
    ops = []
    big = [9 + index % 4, 16 - index % 4]
    for dim, *pair in DIST_CYCLE:
        docs = [body_doc(rng, dim, shape, m or big.pop()) for shape, m in pair]
        op = {"dim": dim, "a": docs[0], "b": docs[1]}
        if rng.random() < ISOMETRY_CHECK_SHARE:
            op["isometry"] = motion_fields(rng, dim)
        ops.append(op)
    for dim, kind in ANCHOR_CYCLE:
        ops.append({"dim": dim, **anchor_pair(rng, dim, kind)})
    return ops


def classify_cycle(rng: np.random.Generator, index: int) -> list[dict]:
    ops = []
    for dim, kind, det in CLASSIFY_CYCLE:
        if kind in ("motion", "cdual_motion"):
            g = motion_fields(rng, dim, det)
            doc = {"map": "motion", **g}
            if kind == "cdual_motion":
                doc = {"map": "compose", "of": [{"map": "cdual"}, doc]}
            expect = {"kind": "identity" if kind == "motion" else "cdual", **g}
        elif kind == "constant":
            doc = {"map": "constant", "body": leaf_doc(rng, dim, 3)}
            expect = {"kind": "not-isometry"}
        else:
            doc = {"map": "scale_centers", "factor": float(rng.uniform(1.8, 2.5))}
            expect = {"kind": "not-isometry"}
        ops.append({"dim": dim, "map": doc, "expect": expect})
    return ops


def reconstruct_cycle(rng: np.random.Generator, index: int) -> list[dict]:
    return [{"dim": 2, "body": body_doc(rng, 2, shape, m)} for shape, m in RECONSTRUCT_CYCLE]


def cli_cycle(rng: np.random.Generator, index: int) -> list[dict]:
    """One rotation of CLI commands.  Each entry holds argv (after the program)
    and the closed-form facts the report is checked against."""
    ops = []
    for name in CLI_ROTATION:
        if name in ("dist2", "dist3"):
            dim = 2 if name == "dist2" else 3
            # fixed norms keep the reported error bound (it grows with the norm) seed-independent
            x, y = 0.5 * unit(rng, dim), 0.8 * unit(rng, dim)
            argv = ["dist", json.dumps(point_doc(x)), json.dumps(ball_doc(y))]
            ops.append({"name": name, "argv": argv, "expect": {"value": 1.0 + float(np.linalg.norm(x - y))}})
        elif name == "support":
            dim = 3
            c, u = rng.uniform(-1.0, 1.0, dim), unit(rng, dim)
            argv = ["support", json.dumps(ball_doc(c)), "--direction", json.dumps(u.tolist())]
            ops.append({"name": name, "argv": argv, "expect": {"value": float(c @ u) + 1.0}})
        elif name == "circ":
            c = rng.uniform(-1.0, 1.0, 2)
            argv = ["circ", json.dumps(ball_doc(c))]
            ops.append({"name": name, "argv": argv, "expect": {"center": c.tolist(), "radius": 1.0}})
        elif name == "cdual-check":
            argv = ["cdual-check", json.dumps(body_doc(rng, 2, "motion", 3))]
            ops.append({"name": name, "argv": argv, "expect": {"passed": True}})
        else:
            if name == "surjectivity-rigid":
                g = motion_fields(rng, 2, 1)
                doc = {"map": "planar_rigid", **g}
            else:
                doc = {"map": "planar_perturbed", "amplitude": 0.1, "seed": int(rng.integers(0, 2**31))}
            target = rng.uniform(-2.0, 2.0, 2).tolist()
            argv = ["surjectivity", json.dumps(doc), "--target", json.dumps(target)]
            ops.append({"name": name, "argv": argv, "expect": {"verdict": "surjective-evidence"}})
    return ops


CYCLES = {
    "dist-corpus": dist_cycle,
    "classify-planted": classify_cycle,
    "reconstruct-probe": reconstruct_cycle,
    "cli-oneshot": cli_cycle,
}


def iter_cycles(workload: str, seed: int):
    """The workload's operation cycles for `seed`, without end."""
    rng = np.random.default_rng([seed, sorted(CYCLES).index(workload)])
    index = 0
    while True:
        yield CYCLES[workload](rng, index)
        index += 1


def dump(workload: str, seed: int, count: int) -> str:
    """Canonical JSON text of the first `count` cycles (byte-identical per seed)."""
    it = iter_cycles(workload, seed)
    return json.dumps([next(it) for _ in range(count)], sort_keys=True)
