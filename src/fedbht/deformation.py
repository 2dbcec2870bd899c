"""Nodal displacement fields and the inverse of 3x3 deformation gradients.

Displacement providers produce a full nodal displacement array for any
query time; the solver never sees the mechanical model behind them. Three
providers are bundled: identity (rigid mesh), affine (x -> A x + b), and
keyframed trajectories loaded from file.

Trajectory file format (ASCII, ``#`` starts a comment):

    KEYFRAME <time_seconds>
    <ux> <uy> <uz>        (one line per mesh node)
    KEYFRAME <time_seconds>
    ...

Keyframe times must be strictly increasing. Queries between keyframes
interpolate linearly; queries outside the keyframe range clamp to the
nearest keyframe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MeshFormatError, SingularDeformationError
from .mesh import Mesh

# Deformation gradients with det F at or below this (or NaN) are treated
# as inverted/collapsed elements rather than valid compressions.
DET_FLOOR = 1e-9


@dataclass
class DeformationState:
    """Nodal displacements (n_nodes, 3) at one instant, metres."""

    displacements: np.ndarray

    def __post_init__(self):
        self.displacements = np.asarray(self.displacements, dtype=np.float64)
        if self.displacements.ndim != 2 or self.displacements.shape[1] != 3:
            raise ValueError(
                f"displacements must be (n, 3), got {self.displacements.shape}"
            )
        if not np.all(np.isfinite(self.displacements)):
            raise ValueError("non-finite displacement values")


class IdentityDeformation:
    """No motion: displacements are zero at every time."""

    def displacements_at(self, time: float, mesh: Mesh) -> DeformationState:
        return DeformationState(np.zeros((mesh.n_nodes, 3)))

    @property
    def time_varying(self) -> bool:
        return False


class AffineDeformation:
    """Deformed position x' = A x + b applied to every node."""

    def __init__(self, matrix, offset=(0.0, 0.0, 0.0)):
        self.matrix = np.asarray(matrix, dtype=np.float64).reshape(3, 3)
        self.offset = np.asarray(offset, dtype=np.float64).reshape(3)
        # reject inverted maps up front; the map is the same at every time
        inverse_and_det(self.matrix)

    def displacements_at(self, time: float, mesh: Mesh) -> DeformationState:
        disp = mesh.nodes @ (self.matrix - np.eye(3)).T + self.offset
        return DeformationState(disp)

    @property
    def time_varying(self) -> bool:
        return False


class TrajectoryDeformation:
    """Keyframed displacement history with linear interpolation."""

    def __init__(self, times, frames):
        self.times = np.asarray(times, dtype=np.float64)
        self.frames = np.asarray(frames, dtype=np.float64)
        if self.times.ndim != 1 or self.times.size == 0:
            raise ValueError("trajectory needs at least one keyframe")
        if (
            self.frames.ndim != 3
            or self.frames.shape[0] != self.times.size
            or self.frames.shape[2] != 3
        ):
            raise ValueError("frames must be (n_keyframes, n_nodes, 3)")
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("keyframe times must be strictly increasing")

    def displacements_at(self, time: float, mesh: Mesh) -> DeformationState:
        if self.frames.shape[1] != mesh.n_nodes:
            raise ValueError(
                f"trajectory has {self.frames.shape[1]} nodes, mesh has {mesh.n_nodes}"
            )
        t = self.times
        if time <= t[0]:
            return DeformationState(self.frames[0])
        if time >= t[-1]:
            return DeformationState(self.frames[-1])
        hi = int(np.searchsorted(t, time, side="right"))
        lo = hi - 1
        w = (time - t[lo]) / (t[hi] - t[lo])
        # (1-w)*a + w*b form returns keyframes exactly at w = 0 and w = 1
        return DeformationState((1.0 - w) * self.frames[lo] + w * self.frames[hi])

    @property
    def time_varying(self) -> bool:
        return self.times.size > 1


def load_trajectory(path, n_nodes: int) -> TrajectoryDeformation:
    """Parse a trajectory file. See the module docstring for the format."""
    times = []
    frames = []
    current: list | None = None

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split()
            if parts[0].upper() == "KEYFRAME":
                if current is not None and len(current) != n_nodes:
                    raise MeshFormatError(
                        f"keyframe at t={times[-1]:g} has {len(current)} rows, "
                        f"expected {n_nodes}",
                        lineno,
                    )
                if len(parts) != 2:
                    raise MeshFormatError("KEYFRAME header needs a time", lineno)
                try:
                    times.append(float(parts[1]))
                except ValueError:
                    raise MeshFormatError(
                        f"invalid keyframe time {parts[1]!r}", lineno
                    ) from None
                current = []
                frames.append(current)
                continue
            if current is None:
                raise MeshFormatError("displacement row before any KEYFRAME", lineno)
            if len(parts) != 3:
                raise MeshFormatError(
                    f"expected 3 displacement components, got {len(parts)}", lineno
                )
            try:
                current.append([float(p) for p in parts])
            except ValueError:
                raise MeshFormatError(f"invalid displacement row {text!r}", lineno) from None

    if not times:
        raise MeshFormatError("trajectory file has no keyframes", 0)
    if len(frames[-1]) != n_nodes:
        raise MeshFormatError(
            f"keyframe at t={times[-1]:g} has {len(frames[-1])} rows, expected {n_nodes}",
            0,
        )
    try:
        return TrajectoryDeformation(times, np.array(frames, dtype=np.float64))
    except ValueError as err:
        raise MeshFormatError(str(err), 0) from None


def inverse_and_det(f: np.ndarray) -> tuple[np.ndarray, float]:
    """Closed-form inverse and determinant of a single 3x3 matrix.

    Raises SingularDeformationError unless det F > 1e-9 (inverted,
    collapsed or non-finite configuration).
    """
    inv, det = inv_det_3x3(f[np.newaxis])
    d = float(det[0])
    if not d > DET_FLOOR:  # NaN fails too
        raise SingularDeformationError(
            f"deformation gradient determinant {d:.3e} is not above {DET_FLOOR:g}"
        )
    return inv[0], d


def inv_det_3x3(f: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Batched adjugate inverse and determinant of (n, 3, 3) matrices.

    The inverse is written to ``out`` when given. No singularity check
    here; callers own the det floor so they can attach element indices to
    the error.
    """
    a = f[:, 0, 0]; b = f[:, 0, 1]; c = f[:, 0, 2]
    d = f[:, 1, 0]; e = f[:, 1, 1]; g = f[:, 1, 2]
    h = f[:, 2, 0]; i = f[:, 2, 1]; j = f[:, 2, 2]

    c00 = e * j - g * i
    c01 = g * h - d * j
    c02 = d * i - e * h
    det = a * c00 + b * c01 + c * c02

    inv = np.empty_like(f) if out is None else out
    inv[:, 0, 0] = c00
    inv[:, 0, 1] = c * i - b * j
    inv[:, 0, 2] = b * g - c * e
    inv[:, 1, 0] = c01
    inv[:, 1, 1] = a * j - c * h
    inv[:, 1, 2] = c * d - a * g
    inv[:, 2, 0] = c02
    inv[:, 2, 1] = b * h - a * i
    inv[:, 2, 2] = a * e - b * d
    with np.errstate(divide="ignore", invalid="ignore"):
        inv /= det[:, None, None]
    return inv, det
