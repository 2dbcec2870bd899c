import csv

import pytest

from fedbht.bench import (
    REFERENCE_CLASSICAL_TO_DEFORMED_RATIO,
    bench_element_kernels,
    bench_simulation,
    kernel_report,
    scaling_report,
    timings_by_variant,
    write_kernel_csv,
    write_scaling_csv,
)
from fedbht.cli import main as cli_main
from fedbht.kernels import Variant


@pytest.fixture(scope="module")
def tiny_timings():
    # rep counts far below the defaults: this checks plumbing, not speed
    return bench_element_kernels(reps=400, batch=100, warmup=50)


def test_kernel_timings_are_sane(tiny_timings):
    assert len(tiny_timings) == 5
    assert [t.variant for t in tiny_timings] == list(Variant)
    for t in tiny_timings:
        assert t.median_seconds > 0
        assert t.reps == 400


def test_checksums_differ_between_variants(tiny_timings):
    # deformed and classical operate on different geometry so their load
    # vectors, and hence accumulated checksums, must not collide
    by = timings_by_variant(tiny_timings)
    assert by[Variant.DEFORMED_ANISO_TEMP_DEP].checksum != pytest.approx(
        by[Variant.CLASSICAL_ANISO_TEMP_DEP].checksum)


def test_kernel_report_contents(tiny_timings):
    report = kernel_report(tiny_timings)
    for variant in Variant:
        assert f"{variant.roman}" in report
    assert "cached-classical to deformed ratio" in report
    assert f"(reference hardware: {REFERENCE_CLASSICAL_TO_DEFORMED_RATIO:.2f})" in report


def test_kernel_csv_roundtrip(tiny_timings, tmp_path):
    path = tmp_path / "kernels.csv"
    write_kernel_csv(path, tiny_timings)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["variant"] for r in rows] == ["i", "ii", "iii", "iv", "v"]
    assert float(rows[0]["ratio"]) == pytest.approx(1.0)  # deformed baseline
    for row, t in zip(rows, tiny_timings):
        assert float(row["median_ms"]) == pytest.approx(t.median_seconds * 1e3)
        assert float(row["ratio"]) == pytest.approx(
            t.median_seconds / tiny_timings[0].median_seconds, abs=5e-7)


def test_bench_rejects_bad_reps():
    with pytest.raises(ValueError):
        bench_element_kernels(reps=0)


def test_simulation_scaling_smoke(tmp_path):
    scaling = bench_simulation(densities=(3, 5), steps=4)
    assert scaling.element_counts == (6 * 3 ** 3, 6 * 5 ** 3)
    assert all(t > 0 for t in scaling.per_step_seconds)
    assert scaling.slope > 0
    report = scaling_report(scaling)
    assert "ms/step" in report
    assert "affine fit" in report
    path = tmp_path / "scaling.csv"
    write_scaling_csv(path, scaling)
    with open(path, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if not r["density"].startswith("#")]
    assert len(rows) == 2
    assert [int(r["elements"]) for r in rows] == [162, 750]
    with pytest.raises(ValueError):
        bench_simulation(densities=(4,))


def test_cli_bench_writes_both_tables(tmp_path, capsys):
    out = tmp_path / "bench"
    assert cli_main(["bench", "--kernels", "--reps", "200", "--batch", "100",
                     "--out", str(out)]) == 0
    assert "cached-classical to deformed ratio" in capsys.readouterr().out
    with open(out / "kernels.csv", newline="") as fh:
        assert fh.readline() == "variant,median_ms,ratio,reps,batch,checksum\n"
        rows = list(csv.reader(fh))
    assert [r[0] for r in rows] == ["i", "ii", "iii", "iv", "v"]
    assert not (out / "scaling.csv").exists()

    assert cli_main(["bench", "--simulation", "--densities", "3", "4", "--steps", "2",
                     "--out", str(out)]) == 0
    assert "affine fit" in capsys.readouterr().out
    lines = (out / "scaling.csv").read_text().splitlines()
    assert lines[0] == "density,elements,seconds_per_step"
    assert [line.split(",")[:2] for line in lines[1:3]] == [["3", "162"], ["4", "384"]]
    assert len(lines) == 4 and lines[3].startswith("# slope=")
