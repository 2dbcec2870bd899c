"""Field comparison metrics between two runs of the same scenario.

Two measures are reported for every compared snapshot:

  * per-node normalized error |T_a - T_b| / (max(T_b) - min(T_b)),
    normalized by the reference field range at that same snapshot time;
  * total relative error sqrt(sum (T_a - T_b)^2 / sum T_b^2).

Run B is always the reference (denominator) field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import RangeZeroError


def normalized_error(candidate, reference) -> np.ndarray:
    """Per-node error normalized by the reference field range.

    Raises RangeZeroError when the reference field is constant (zero
    range) since the normalization is undefined there.
    """
    a = np.asarray(candidate, dtype=np.float64)
    b = np.asarray(reference, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"field shapes differ: {a.shape} vs {b.shape}")
    span = float(b.max() - b.min())
    if span <= 0.0:
        raise RangeZeroError(
            "reference field has zero range; normalized error is undefined"
        )
    return np.abs(a - b) / span


def total_relative_error(candidate, reference) -> float:
    """sqrt(sum of squared differences / sum of squared reference values)."""
    a = np.asarray(candidate, dtype=np.float64)
    b = np.asarray(reference, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"field shapes differ: {a.shape} vs {b.shape}")
    denom = float((b * b).sum())
    if denom <= 0.0:
        raise RangeZeroError("reference field is identically zero")
    return float(np.sqrt(((a - b) ** 2).sum() / denom))


@dataclass
class SnapshotComparison:
    time: float
    max_normalized: float
    mean_normalized: float
    total_relative: float


def _worst(values: list) -> float:
    """Largest value, NaN if any is NaN (Python's max() drops a NaN that is
    not first); 0.0 for no values."""
    return float(np.max(values)) if values else 0.0


@dataclass
class MetricsReport:
    comparisons: list[SnapshotComparison] = field(default_factory=list)

    @property
    def worst_normalized(self) -> float:
        return _worst([c.max_normalized for c in self.comparisons])

    @property
    def worst_total(self) -> float:
        return _worst([c.total_relative for c in self.comparisons])

    def within(self, node_tol: float | None, total_tol: float | None) -> bool:
        """Whether both worst values are within their tolerance; None sets
        no bound. A NaN worst value compares False, so it is never within."""
        return ((node_tol is None or self.worst_normalized <= node_tol)
                and (total_tol is None or self.worst_total <= total_tol))


def compare_snapshots(times, candidate_snapshots, reference_snapshots) -> MetricsReport:
    """Compare two snapshot series taken at the same times."""
    if len(candidate_snapshots) != len(reference_snapshots):
        raise ValueError(
            f"snapshot counts differ: {len(candidate_snapshots)} vs "
            f"{len(reference_snapshots)}"
        )
    report = MetricsReport()
    for t, a, b in zip(times, candidate_snapshots, reference_snapshots):
        err = normalized_error(a, b)
        report.comparisons.append(
            SnapshotComparison(
                time=float(t),
                max_normalized=float(err.max()),
                mean_normalized=float(err.mean()),
                total_relative=total_relative_error(a, b),
            )
        )
    return report


def write_error_histogram(path, times, candidate_snapshots, reference_snapshots, bins: int = 20):
    """CSV histogram of per-node normalized errors, one block per snapshot."""
    from .formatting import compact, float_cells, int_cells

    with open(path, "wb") as fh:
        fh.write(b"time,bin_lo,bin_hi,count\n")
        for t, a, b in zip(times, candidate_snapshots, reference_snapshots):
            err = normalized_error(a, b)
            top = float(err.max())
            edges = np.linspace(0.0, top if top > 0 else 1e-16, bins + 1)
            counts, _ = np.histogram(err, bins=edges)
            rows = np.column_stack([np.full(bins, t), edges[:-1], edges[1:]])
            fh.write(compact(np.hstack([float_cells(rows, b",", b","),
                                        int_cells(counts)])))
