"""Brute-force raster backend used to cross-check the support-function kernel.

Bodies are rasterized on a square grid by evaluating the set definition
directly: generator leaves test the ball inequalities, c-duals test the
distance-to-every-occupied-point rule against their child's raster,
Minkowski combinations test against the convex hull of the scaled vertex
sums, and motions pull the query grid back through the inverse map.  A body
smaller than one cell (a near-point) occupies the single cell of least
violation.  Everything is O(cells) per node and is meant for validation in
the plane, not for performance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import binary_erosion
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .bodies import BallBodyExpr, CDual, Combine, Generators, Motion
from .errors import EmptyRasterError, GridMismatchError
from .geometry import Ball, minimal_enclosing_ball

_CHUNK = 65536
ORACLE_CELL = 0.01  # the cell of every cross-check: `dist --oracle` and selftest criterion 11


@dataclass(eq=False)
class RasterBody:
    """Occupancy mask on a grid: cell (i, j, ...) is centered at origin + cell * index."""

    origin: np.ndarray
    cell: float
    mask: np.ndarray  # boolean, one axis per dimension

    @property
    def dim(self) -> int:
        return self.mask.ndim

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.mask))

    def area(self) -> float:
        return self.count * self.cell**self.dim

    def points(self) -> np.ndarray:
        """Centers of all occupied cells, (N, dim)."""
        idx = np.argwhere(self.mask)
        return self.origin + self.cell * idx

    def boundary_points(self) -> np.ndarray:
        """Centers of occupied cells with an unoccupied face neighbor."""
        interior = binary_erosion(self.mask)
        idx = np.argwhere(self.mask & ~interior)
        if idx.size == 0:
            idx = np.argwhere(self.mask)
        return self.origin + self.cell * idx

    def contains_points(self, pts: np.ndarray) -> np.ndarray:
        """Occupancy lookup for arbitrary points by nearest-cell rounding."""
        idx = np.rint((pts - self.origin) / self.cell).astype(int)
        ok = np.all((idx >= 0) & (idx < np.array(self.mask.shape)), axis=1)
        out = np.zeros(len(pts), dtype=bool)
        if np.any(ok):
            out[ok] = self.mask[tuple(idx[ok].T)]
        return out


def _extreme_points(pts: np.ndarray) -> np.ndarray:
    """Hull vertices when the cloud is full-dimensional, else the cloud itself."""
    if len(pts) <= 256:
        return pts
    try:
        hull = ConvexHull(pts)
        return pts[hull.vertices]
    except QhullError:
        return pts


def _ball_violation(centers: np.ndarray, radii, pts: np.ndarray) -> np.ndarray:
    """Per point, max_i (|p - x_i| - r_i) less 1e-12: the largest violated ball inequality."""
    out = np.empty(len(pts))
    for start in range(0, len(pts), _CHUNK):
        sl = slice(start, start + _CHUNK)
        d = np.linalg.norm(pts[sl, None, :] - centers[None, :, :], axis=2)
        out[sl] = np.max(d - radii, axis=1) - 1e-12
    return out


def _violation(body: BallBodyExpr, pts: np.ndarray, cell: float) -> np.ndarray:
    """Per point, the largest violated membership inequality; <= 0 means inside.

    Every inequality is 1-Lipschitz in the point and holds on the body, so
    the violation never exceeds the distance from the point to the body.
    The body is a leaf, a combination, or one motion of either: `rasterize`
    rewrites every other motion and takes c-duals to `raster_cdual`.
    """
    if isinstance(body, Generators):
        return _ball_violation(body.centers, body.leaf.radii, pts)
    if isinstance(body, Motion):
        inv = body.g.inverse()
        return _violation(body.of, inv.apply(pts), cell)
    if isinstance(body, Combine):
        ra = rasterize(body.a, cell)
        rb = rasterize(body.b, cell)
        va = _extreme_points(ra.points())
        vb = _extreme_points(rb.points())
        cloud = ((1.0 - body.lam) * va)[:, None, :] + (body.lam * vb)[None, :, :]
        cloud = cloud.reshape(-1, pts.shape[1])
        try:
            hull = ConvexHull(cloud)
            eqs = hull.equations
            out = np.empty(len(pts))
            pad = 0.75 * cell  # hull of cell centers can sit inside the body
            for start in range(0, len(pts), _CHUNK):
                sl = slice(start, start + _CHUNK)
                vals = pts[sl] @ eqs[:, :-1].T + eqs[:, -1][None, :]
                out[sl] = np.max(vals, axis=1) - pad
            return out
        except QhullError:
            # flat cloud (point or segment body): test distance to the cloud
            tree = cKDTree(cloud)
            d, _ = tree.query(pts)
            return d - 0.75 * cell
    raise TypeError(f"not a body expression: {type(body).__name__}")


def _occupancy(violation: np.ndarray, shape: tuple, cell: float) -> np.ndarray:
    """Cells whose center is inside; for a body smaller than a cell, its nearest cell.

    A nonempty body inside the grid lies within half a cell diagonal of some
    cell center, where the violation is at most that distance, so the cell
    of least violation is marked.  Beyond that the body misses the grid.
    """
    mask = violation <= 0.0
    if not mask.any():
        j = int(np.argmin(violation))
        if violation[j] > 0.5 * cell * np.sqrt(len(shape)):
            raise EmptyRasterError(
                f"no cells inside at cell={cell} on a grid of shape {shape}; refine the grid"
            )
        mask[j] = True
    return mask.reshape(shape)


def _grid(lo: np.ndarray, hi: np.ndarray, cell: float) -> tuple[np.ndarray, tuple, np.ndarray]:
    """The lattice window over [lo, hi]: its origin, its shape and its (N, dim) cell centers.

    The origin snaps down to the global lattice, so all rasters at one cell
    align.  Neither it nor the count of ceil((hi - lo) / cell) + 1 points per
    axis rides on a few ulps of error in lo or hi.
    """
    fuzz = 64 * np.finfo(float).eps
    first = lo / cell
    origin = np.floor(first + fuzz * np.abs(first)) * cell
    steps = (hi - lo) / cell
    shape = tuple(int(n) + 1 for n in np.ceil(steps - fuzz * np.abs(steps)))
    axes = [origin[d] + cell * np.arange(n) for d, n in enumerate(shape)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(shape))
    return origin, shape, pts


def rasterize(body: BallBodyExpr, cell: float) -> RasterBody:
    """Occupancy raster of the body, on a window that holds it with two cells to spare.

    A motion above a motion or a c-dual is rewritten first, g(hK) = (gh)K
    and g(K^c) = (gK)^c.  A c-dual is then `raster_cdual` of its child's
    raster, on the window of a unit ball.  Every other body lies in
    B(0, norm bound) and takes the window +-(norm bound + 2 cell).
    """
    if cell <= 0:
        raise ValueError("cell size must be positive")
    while isinstance(body, Motion) and isinstance(body.of, (Motion, CDual)):
        inner = body.of
        if isinstance(inner, Motion):
            body = Motion(body.g.compose(inner.g), inner.of)
        else:
            body = CDual(Motion(body.g, inner.of))
    if isinstance(body, CDual):
        return raster_cdual(rasterize(body.of, cell))
    hi = np.full(body.dim, body.norm_bound + 2 * cell)
    origin, shape, pts = _grid(-hi, hi, cell)
    return RasterBody(origin, cell, _occupancy(_violation(body, pts, cell), shape, cell))


def _check_same_grid(a: RasterBody, b: RasterBody):
    if a.dim != b.dim or abs(a.cell - b.cell) > 1e-12:
        raise GridMismatchError("rasters use different cell sizes")
    offset = (a.origin - b.origin) / a.cell
    if np.max(np.abs(offset - np.rint(offset))) > 1e-6:
        raise GridMismatchError("raster grids are not aligned")


def raster_hausdorff(a: RasterBody, b: RasterBody) -> float:
    """Two-sided point-cloud Hausdorff distance; O(cell) from the true metric."""
    _check_same_grid(a, b)

    def directed(src: RasterBody, dst: RasterBody) -> float:
        pts = src.boundary_points()
        inside = dst.contains_points(pts)
        if np.all(inside):
            return 0.0
        tree = cKDTree(dst.boundary_points())
        d, _ = tree.query(pts[~inside])
        return float(np.max(d))

    return max(directed(a, b), directed(b, a))


def raster_cdual(r: RasterBody) -> RasterBody:
    """Raster of the c-dual: cells within max(1, R_v) of every vertex of the raster.

    R_v and c are the radius and center of the vertices' enclosing ball.  The
    set lies in B(c, 1) by the convexity of |p - x| in x, hence the window
    c +-(1 + 2 cell).  A body's c-dual is never empty, so R_v > 1 only where
    the raster sticks out of its body (a combination's padded hull); the set
    is then c alone, marked by its nearest cell.
    """
    verts = _extreme_points(r.points())
    meb = minimal_enclosing_ball(verts)
    origin, shape, pts = _grid(meb.center - 1.0 - 2 * r.cell, meb.center + 1.0 + 2 * r.cell, r.cell)
    violation = _ball_violation(verts, max(1.0, meb.radius), pts)
    return RasterBody(origin, r.cell, _occupancy(violation, shape, r.cell))


def raster_circumball(r: RasterBody) -> Ball:
    """Smallest ball enclosing the occupied cells (via their boundary)."""
    return minimal_enclosing_ball(r.boundary_points())
