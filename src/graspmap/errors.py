"""Exception types shared across the library.

Collected in one module so the command-line layer can map each class to a
stable exit code without importing everything else.
"""


class GraspmapError(Exception):
    """Base class for all library errors."""


class CutLocusError(GraspmapError):
    """Rotation angle too close to pi for a well-defined logarithm."""


class DimensionMismatch(GraspmapError, ValueError):
    """An array has the wrong shape, or vector/matrix arguments have
    inconsistent sizes: a bad value, so also a ``ValueError``."""


class IndexMismatch(GraspmapError):
    """Factor keyframe indices do not line up with the graph's poses."""


class SingularNormalEquations(GraspmapError):
    """Damped normal equations stayed non-positive-definite at maximum damping."""


class AlreadyScaled(GraspmapError):
    """Attempt to apply a metric scale to a cloud already in meters."""


class EmptyCloud(GraspmapError):
    """Operation requires at least one point."""


class DegenerateMask(GraspmapError):
    """Gripper mask parameters produce an empty voxel set."""


class UnreachableTerrain(GraspmapError):
    """Terrain patch lies outside the limb's reachable span."""


class NoVisibleTerrain(GraspmapError):
    """No terrain surface falls inside any keyframe's camera frustum."""


class ConfigError(GraspmapError):
    """Invalid or missing configuration field."""


class NotConverged(GraspmapError):
    """Optimization finished without meeting any convergence criterion."""


class CorruptArtifact(GraspmapError, ValueError):
    """A stage's input file is malformed; the message names it as path:line."""
