"""Exception types shared across the solver.

Every raised error subclasses FedbhtError so callers (and the CLI) can
distinguish solver failures from programming errors.
"""

from __future__ import annotations


class FedbhtError(Exception):
    """Base class for all solver errors."""


class MeshFormatError(FedbhtError):
    """Mesh or node-set file could not be parsed. Carries a line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class TopologyError(FedbhtError):
    """Element connectivity references nodes that do not exist."""


class GeometryError(FedbhtError):
    """Degenerate or inverted element geometry (non-positive measure)."""


class NotSPDError(FedbhtError):
    """Conductivity tensor failed a positive-definiteness check."""


class SingularDeformationError(FedbhtError):
    """The deformation inverts an element mid-run: det F below its floor,
    or a non-positive measure of the oracle's moved geometry."""


class ConflictError(FedbhtError):
    """Contradictory boundary conditions on the same node."""


class ConfigError(FedbhtError):
    """Scenario configuration is missing or malformed. Carries a field path."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class DivergenceError(FedbhtError):
    """Transient solution produced non-finite temperatures, first at node,
    whose temperature before that step was last_finite."""

    def __init__(self, message: str, node: int | None = None, last_finite: float | None = None):
        super().__init__(message)
        self.node, self.last_finite = node, last_finite


class StabilityError(FedbhtError):
    """Requested time step exceeds the estimated critical step."""


class RangeZeroError(FedbhtError):
    """Error normalization impossible: reference field has zero range."""
