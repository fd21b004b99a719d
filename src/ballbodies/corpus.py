"""Seeded random bodies, motions, and probe corpora for tests and self-checks."""

from __future__ import annotations

import numpy as np

from .bodies import BallBodyExpr, Generators, apply_motion, ball_body, c_dual, combine, point_body
from .geometry import RigidMotion, minimal_enclosing_ball


def random_motion(rng: np.random.Generator, dim: int) -> RigidMotion:
    """Random rigid motion, a reflection half the time."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    if rng.random() < 0.5:
        q = q.copy()
        q[:, 0] = -q[:, 0]
    return RigidMotion(q, rng.uniform(-1.5, 1.5, dim))


def random_generators(
    rng: np.random.Generator,
    dim: int,
    max_centers: int = 5,
    meb_cap: float = 0.9,
    spread: float = 0.7,
) -> Generators:
    """Generator leaf whose centers fit in a ball of radius `meb_cap` (nonempty body)."""
    m = int(rng.integers(1, max_centers + 1))
    centers = rng.uniform(-spread, spread, size=(m, dim))
    if m > 1:
        meb = minimal_enclosing_ball(centers)
        if meb.radius > meb_cap:
            centers = meb.center + (centers - meb.center) * (meb_cap / meb.radius)
    return Generators(centers)


def random_body(rng: np.random.Generator, dim: int) -> BallBodyExpr:
    """Random expression tree: a generator leaf under at most two random wrappers."""
    body = random_generators(rng, dim)
    for _ in range(int(rng.integers(0, 3))):
        pick = rng.integers(0, 3)
        if pick == 0:
            body = c_dual(body)
        elif pick == 1:
            body = combine(
                float(rng.uniform(0.15, 0.85)), body, random_generators(rng, dim, max_centers=3)
            )
        else:
            body = apply_motion(random_motion(rng, dim), body)
    return body


def body_corpus(seed: int, dim: int, count: int) -> list[BallBodyExpr]:
    """Deterministic mixed corpus: two unit balls and two points, then random bodies."""
    rng = np.random.default_rng(seed)
    e1 = np.zeros(dim)
    e1[0] = 1.0
    bodies: list[BallBodyExpr] = [
        ball_body(np.zeros(dim)),
        ball_body(0.7 * e1),
        point_body(np.zeros(dim)),
        point_body(-0.5 * e1),
    ]
    while len(bodies) < count:
        bodies.append(random_body(rng, dim))
    return bodies[:count]


def body_pairs(seed: int, dim: int, count: int) -> list[tuple[BallBodyExpr, BallBodyExpr]]:
    rng = np.random.default_rng(seed)
    return [(random_body(rng, dim), random_body(rng, dim)) for _ in range(count)]
