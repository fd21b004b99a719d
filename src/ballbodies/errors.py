"""Exception hierarchy shared across the library.

The CLI maps these onto process exit codes: parse problems exit 2,
construction/invariant violations exit 3, classification-premise failures
exit 4, and exhausted adaptive budgets exit 5, as does exhausted memory
(Python's MemoryError).
"""


class BallBodiesError(Exception):
    """Base class for all library errors."""


class DocumentError(BallBodiesError):
    """A body or map document could not be parsed."""


class DimensionMismatchError(BallBodiesError):
    """Operands declare inconsistent ambient dimensions."""


class EmptyBodyError(BallBodiesError):
    """A generator set whose unit balls have empty intersection."""


class EmptyReconstructionError(BallBodiesError):
    """Distance-constraint balls with empty intersection."""


class NoConvergenceError(BallBodiesError):
    """The support solver could not certify the requested tolerance."""


class DegenerateSourcesError(BallBodiesError):
    """Rigid-motion fit rejected because the sources do not affinely span."""


class EmptyRasterError(BallBodiesError):
    """Rasterization produced no occupied cells (cell size too coarse)."""


class GridMismatchError(BallBodiesError):
    """Raster operands live on different grids."""


class NotIsometryError(BallBodiesError):
    """The probed map fails the distance-preservation screening."""


class AmbiguousClassificationError(BallBodiesError):
    """Both probe families collapse to near-points; no consistent verdict."""


class ResolutionExhaustedError(BallBodiesError):
    """Adaptive refinement exceeded its budget."""
