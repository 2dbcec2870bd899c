"""Nodal displacement fields and the inverse of 3x3 deformation gradients.

Displacement providers produce a full nodal displacement array for any
query time; the solver never sees the mechanical model behind them. Three
providers are bundled: identity (rigid mesh), affine (x -> A x + b), and
keyframed trajectories, which :func:`write_trajectory` and
:func:`load_trajectory` write and read.

Trajectory file format (ASCII, ``#`` starts a comment):

    KEYFRAME <time_seconds>
    <ux> <uy> <uz>        (one line per mesh node)
    KEYFRAME <time_seconds>
    ...

Keyframe times must be finite and strictly increasing. Queries between
keyframes interpolate linearly; queries outside the keyframe range clamp
to the nearest keyframe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MeshFormatError, SingularDeformationError
from .mesh import Mesh, read_rows

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
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()

    def frame_rows(start, count):
        return read_rows(lines, start, count, 3, np.float64, "displacement row",
                         "displacement components", header=_is_keyframe)

    def miscounted(n_rows, stop):
        # named at the next KEYFRAME header, or as line 0 at the end of the file
        return MeshFormatError(
            f"keyframe at t={times[-1]:g} has {n_rows} rows, expected {n_nodes}",
            stop + 1 if stop < len(lines) else 0,
        )

    times = []
    frames = []
    idx = 0
    while idx < len(lines):
        text = lines[idx].split("#", 1)[0].strip()
        idx += 1
        if not text:
            continue
        parts = text.split()
        if not _is_keyframe(parts):
            if not times:
                raise MeshFormatError("displacement row before any KEYFRAME", idx)
            extra, stop = frame_rows(idx - 1, len(lines))  # rows past a full keyframe
            raise miscounted(n_nodes + len(extra), stop)
        if len(parts) != 2:
            raise MeshFormatError("KEYFRAME header needs a time", idx)
        try:
            times.append(float(parts[1]))
        except ValueError:
            times.append(np.nan)
        if not np.isfinite(times[-1]):
            raise MeshFormatError(f"invalid keyframe time {parts[1]!r}", idx)
        frame, idx = frame_rows(idx, n_nodes)
        if len(frame) < n_nodes:
            raise miscounted(len(frame), idx)
        finite = np.isfinite(frame).all(axis=1)
        if not finite.all():
            raise MeshFormatError(
                f"keyframe at t={times[-1]:g}: node {int(np.argmin(finite))} "
                "has a non-finite displacement"
            )
        frames.append(frame)

    if not times:
        raise MeshFormatError("trajectory file has no keyframes", 0)
    try:
        return TrajectoryDeformation(times, np.array(frames, dtype=np.float64))
    except ValueError as err:
        raise MeshFormatError(str(err), 0) from None


def write_trajectory(path, times, frames):
    """Write keyframes in the format load_trajectory reads, every number as
    "%.17g"."""
    from .formatting import text_blocks

    with open(path, "wb") as fh:
        for t, frame in zip(times, frames):
            fh.write(b"KEYFRAME %.17g\n" % t)
            fh.writelines(text_blocks(np.asarray(frame, dtype=np.float64)))


def _is_keyframe(fields) -> bool:
    return fields[0].upper() == "KEYFRAME"


def inverse_and_det(f: np.ndarray) -> tuple[np.ndarray, float]:
    """Closed-form inverse and determinant of a single 3x3 matrix.

    Raises SingularDeformationError unless det F > 1e-9 (inverted,
    collapsed or non-finite configuration).
    """
    f = np.asarray(f, dtype=np.float64)
    cof = np.cross(f[[1, 2, 0]], f[[2, 0, 1]])  # row s: f[s+1] x f[s+2]
    d = float(f[0] @ cof[0])
    if not d > DET_FLOOR:  # NaN fails too
        raise SingularDeformationError(
            f"deformation gradient determinant {d:.3e} is not above {DET_FLOOR:g}"
        )
    return cof.T / d, d
