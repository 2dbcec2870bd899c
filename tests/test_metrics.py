import csv

import numpy as np
import pytest

from fedbht.errors import RangeZeroError
from fedbht.metrics import (
    compare_snapshots,
    normalized_error,
    total_relative_error,
    write_error_histogram,
)


def test_normalized_error_frozen_values():
    a = np.array([1.0, 2.0])
    b = np.array([1.0, 3.0])
    np.testing.assert_allclose(normalized_error(a, b), [0.0, 0.5])


def test_total_relative_error_frozen():
    a = np.array([1.0, 2.0])
    b = np.array([1.0, 3.0])
    assert total_relative_error(a, b) == pytest.approx(np.sqrt(1.0 / 10.0))


def test_zero_range_reference_rejected():
    with pytest.raises(RangeZeroError):
        normalized_error(np.array([1.0, 2.0]), np.array([5.0, 5.0]))
    with pytest.raises(RangeZeroError):
        total_relative_error(np.array([1.0]), np.array([0.0]))


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        normalized_error(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        total_relative_error(np.zeros(3), np.zeros(4))


def test_compare_snapshots_and_within():
    times = [1.0, 2.0]
    ref = [np.array([37.0, 40.0]), np.array([37.0, 42.0])]
    cand = [np.array([37.0, 40.3]), np.array([37.0, 42.0])]
    report = compare_snapshots(times, cand, ref)
    assert len(report.comparisons) == 2
    assert report.comparisons[0].time == 1.0
    assert report.worst_normalized == pytest.approx(0.1)
    assert report.worst_total == pytest.approx(
        np.sqrt(0.3 ** 2 / (37.0 ** 2 + 40.0 ** 2)))
    assert report.within(0.2, 0.1)
    assert not report.within(0.05, 0.1)
    # None sets no bound
    assert report.within(None, 0.1) and report.within(0.2, None)
    assert not report.within(0.05, None) and not report.within(None, 0.001)
    assert report.within(None, None)
    with pytest.raises(ValueError):
        compare_snapshots(times, cand, ref[:1])


def test_identical_fields_give_zero():
    ref = [np.array([37.0, 39.0, 41.0])]
    report = compare_snapshots([0.5], [ref[0].copy()], ref)
    assert report.worst_normalized == 0.0
    assert report.worst_total == 0.0
    assert report.within(0.0, 0.0)


def test_nan_error_is_worst_and_never_within():
    # Python's max() keeps the first of (0.1, nan) and drops the NaN
    ref = [np.array([37.0, 40.0]), np.array([37.0, 42.0])]
    cand = [np.array([37.0, 40.3]), np.array([37.0, np.nan])]
    report = compare_snapshots([1.0, 2.0], cand, ref)
    assert np.isnan(report.worst_normalized)
    assert np.isnan(report.worst_total)
    assert not report.within(1.0, 1.0)
    assert not report.within(None, 1.0) and not report.within(1.0, None)
    assert report.within(None, None)


def test_histogram_counts_cover_all_nodes(tmp_path):
    rng = np.random.default_rng(5)
    ref = [37.0 + rng.random(100), 37.0 + rng.random(100)]
    cand = [ref[0] + 0.01 * rng.random(100), ref[1] + 0.02 * rng.random(100)]
    path = tmp_path / "hist.csv"
    write_error_histogram(path, [1.0, 2.0], cand, ref, bins=8)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    per_time = {}
    for row in rows:
        per_time.setdefault(row["time"], 0)
        per_time[row["time"]] += int(row["count"])
    assert set(per_time.values()) == {100}
    assert len(per_time) == 2
