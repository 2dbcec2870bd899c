"""Temperature-dependent tissue properties.

Properties are piecewise-linear tables over temperature in degrees Celsius.
Inside the breakpoint range the table interpolates linearly; outside it
extrapolates linearly using the terminal segment slope. A table is
evaluated by its breakpoint count:

- one point: a constant, ``np.full``;
- two points: its line, three array passes and a compare, bit for bit
  ``np.interp`` and the extrapolations, at a fifth of its cost (14 against
  76 us on the demo's 13 182 element means);
- three or more: ``np.interp``, then the extrapolations where needed.

Conductivity is either a scalar table (isotropic) or a symmetric 3x3
tensor of tables (anisotropic). Tensor evaluations are checked for
positive definiteness on the single-evaluation path, and every table over
the operating range at construction (:meth:`MaterialModel.validate`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotSPDError

# Operating range (degrees C) over which tables are validated at build time.
VALIDATION_RANGE = (0.0, 120.0)


class PropertyTable:
    """Piecewise-linear scalar property of temperature.

    ``evaluations`` counts calls to :meth:`evaluate`; the fully precomputed
    formulation paths are expected to leave it untouched during stepping.
    """

    def __init__(self, breakpoints):
        pts = np.asarray(breakpoints, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
            raise ValueError(f"breakpoints must be (n, 2) pairs, got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("breakpoints must be finite")
        temps = pts[:, 0]
        if pts.shape[0] > 1 and not np.all(np.diff(temps) > 0):
            raise ValueError("breakpoint temperatures must be strictly increasing")
        self.temps = temps
        self.values = pts[:, 1]
        self.evaluations = 0
        # the slope of a two-point table evaluated as its line; None where
        # np.interp's own edge cases would differ from the line: a span or
        # slope that overflows, or a -0.0 value the line's "+ 0" makes +0.0
        self._line_slope = None
        if temps.size == 2:
            slope = (self.values[1] - self.values[0]) / (temps[1] - temps[0])
            signed_zero = np.signbit(self.values[self.values == 0]).any()
            if np.isfinite(slope) and np.isfinite(temps[1] - temps[0]) and not signed_zero:
                self._line_slope = float(slope)

    @classmethod
    def constant(cls, value: float) -> "PropertyTable":
        return cls([[37.0, float(value)]])

    @property
    def is_constant(self) -> bool:
        return self.temps.size == 1

    def evaluate(self, temperature):
        """Interpolate (or linearly extrapolate) at scalar or array input."""
        self.evaluations += 1
        t = np.asarray(temperature, dtype=np.float64)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        if self.is_constant:
            out = np.full(t.shape, self.values[0])
        elif self._line_slope is not None:
            # np.interp's slope * (t - x0) + v0 in its operand order, which
            # below x0 is also the left extrapolation; from x1 on, the right
            # one, which at x1 is np.interp's v1. A NaN compares False and
            # stays NaN.
            slope = self._line_slope
            out = t - self.temps[0]
            out *= slope
            out += self.values[0]
            hi = t >= self.temps[1]
            if hi.any():
                out[hi] = self.values[1] + slope * (t[hi] - self.temps[1])
        else:
            out = np.interp(t, self.temps, self.values)
            lo = t < self.temps[0]
            if np.any(lo):
                slope = (self.values[1] - self.values[0]) / (self.temps[1] - self.temps[0])
                out[lo] = self.values[0] + slope * (t[lo] - self.temps[0])
            hi = t > self.temps[-1]
            if np.any(hi):
                slope = (self.values[-1] - self.values[-2]) / (self.temps[-1] - self.temps[-2])
                out[hi] = self.values[-1] + slope * (t[hi] - self.temps[-1])
        return float(out[0]) if scalar else out


# Symmetric tensor components in storage order.
TENSOR_COMPONENTS = ("xx", "yy", "zz", "xy", "xz", "yz")


class TensorPropertyTable:
    """Symmetric 3x3 conductivity tensor, one scalar table per component."""

    def __init__(self, components: dict):
        for name in components:
            if name not in TENSOR_COMPONENTS:
                raise ValueError(f"unknown tensor component {name!r}")
        missing = [c for c in ("xx", "yy", "zz") if c not in components]
        if missing:
            raise ValueError(f"tensor table missing diagonal {missing}")
        zero = PropertyTable.constant(0.0)
        self.tables = {}
        for c in TENSOR_COMPONENTS:
            tab = components.get(c, zero)
            if not isinstance(tab, PropertyTable):
                tab = PropertyTable(tab)  # accept raw breakpoint lists
            self.tables[c] = tab

    @property
    def is_constant(self) -> bool:
        return all(t.is_constant for t in self.tables.values())

    def evaluate(self, temperature) -> np.ndarray:
        """Return the tensor at scalar input (3, 3) or array input (n, 3, 3)."""
        t = np.asarray(temperature, dtype=np.float64)
        scalar = t.ndim == 0
        n = 1 if scalar else t.shape[0]
        out = np.zeros((n, 3, 3))
        comp = {c: np.atleast_1d(self.tables[c].evaluate(t)) for c in TENSOR_COMPONENTS}
        out[:, 0, 0] = comp["xx"]
        out[:, 1, 1] = comp["yy"]
        out[:, 2, 2] = comp["zz"]
        out[:, 0, 1] = out[:, 1, 0] = comp["xy"]
        out[:, 0, 2] = out[:, 2, 0] = comp["xz"]
        out[:, 1, 2] = out[:, 2, 1] = comp["yz"]
        return out[0] if scalar else out


@dataclass
class PerfusionParams:
    """Blood perfusion and volumetric source constants.

    w_b: perfusion mass flow per tissue volume, kg/(m^3 s)
    c_b: blood specific heat, J/(kg K)
    T_a: arterial temperature, degrees C
    Q_met: volumetric metabolic heat generation, W/m^3
    """

    w_b: float = 0.0
    c_b: float = 3617.0
    T_a: float = 37.0
    Q_met: float = 0.0

    def __post_init__(self):
        if self.w_b < 0:
            raise ValueError("perfusion w_b must be non-negative")
        if self.w_b > 0 and self.c_b <= 0:
            raise ValueError("perfusion c_b must be positive when w_b > 0")


@dataclass
class MaterialModel:
    """Density, specific heat and conductivity of the tissue."""

    density: PropertyTable
    specific_heat: PropertyTable
    conductivity: PropertyTable | TensorPropertyTable = field(
        default_factory=lambda: PropertyTable.constant(0.5)
    )

    def __post_init__(self):
        self.validate()

    @property
    def isotropic(self) -> bool:
        return isinstance(self.conductivity, PropertyTable)

    def conductivity_matrix(self, temperature: float) -> np.ndarray:
        """Evaluate the 3x3 conductivity tensor at one temperature.

        Raises NotSPDError if the interpolated tensor is not positive
        definite.
        """
        if self.isotropic:
            k = self.conductivity.evaluate(temperature)
            if k <= 0:
                raise NotSPDError(f"conductivity {k:.4g} at {temperature:.4g} C is not positive")
            return k * np.eye(3)
        d = self.conductivity.evaluate(temperature)
        _check_spd(d, temperature)
        return d

    def validate(self):
        """Reject tables that leave their physical range over
        VALIDATION_RANGE. Each entry is linear between two of the points
        checked, the ends and the breakpoints (for a tensor, of all its
        components), and SPD matrices form a convex cone, so those suffice."""
        lo, hi = VALIDATION_RANGE
        scalars = {"density": self.density, "specific_heat": self.specific_heat}
        if self.isotropic:
            scalars["conductivity"] = self.conductivity
        for name, table in scalars.items():
            points = _extreme_points(table)
            bad = table.evaluate(points) <= 0
            if np.any(bad):
                error = NotSPDError if name == "conductivity" else ValueError
                raise error(f"{name} must stay positive over {lo:g}..{hi:g} C "
                            f"(fails at {points[np.argmax(bad)]:g} C)")
        if not self.isotropic:
            points = _extreme_points(*self.conductivity.tables.values())
            for t, d in zip(points, self.conductivity.evaluate(points)):
                _check_spd(d, float(t))


def _extreme_points(*tables: PropertyTable) -> np.ndarray:
    """The ends of VALIDATION_RANGE and the tables' breakpoints inside it,
    unsorted: np.sort or np.unique would add 0.3-0.9 MB to a run's peak RSS."""
    lo, hi = VALIDATION_RANGE
    temps = np.concatenate([[lo]] + [table.temps for table in tables] + [[hi]])
    return temps[(temps >= lo) & (temps <= hi)]


def _check_spd(d: np.ndarray, temperature: float):
    try:
        np.linalg.cholesky(d)
    except np.linalg.LinAlgError:
        raise NotSPDError(
            f"conductivity tensor at {temperature:.4g} C is not positive definite"
        ) from None
