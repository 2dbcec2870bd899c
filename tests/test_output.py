"""Byte equality of the numpy "%.17g" formatter and the writers built on it
with Python's "%.17g" and per-line writers."""

import json
import tracemalloc

import numpy as np
import pytest

from fedbht import formatting
from fedbht.blockmesh import make_block_mesh
from fedbht.deformation import IdentityDeformation, write_trajectory
from fedbht.integrator import BoundaryConditions, FluxBC, Schedule, SimulationRecord, run
from fedbht.kernels import Variant
from fedbht.material import PerfusionParams
from fedbht.mesh import Mesh, precompute, write_mesh, write_node_set
from fedbht.metrics import normalized_error, write_error_histogram
from fedbht.output import (
    read_snapshot_csv,
    snapshot_basename,
    write_manifest,
    write_record_outputs,
)

from conftest import make_material, mixed_block, random_tet_mesh

# -0.0, a tiny value with a three-digit exponent, an exact value, a value
# with no short decimal form, one past 2^53, the two sides of the smallest
# fixed-notation value, two half-way ties of the 17th digit, the largest
# 17-digit fixed-notation value, and a negative in exponent form
AWKWARD = np.array([-0.0, 1e-300, 37.0, 0.1 + 0.2, 1e17, 1e-4, np.nextafter(1e-4, 0),
                    1e15 + 0.25, 1e15 + 0.75, 9.9999999999999998e16, -1e-5])


# -- reference: one formatted line at a time ----------------------------------

def reference_csv(path, mesh, temps):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("node_index,x,y,z,T\n")
        for i, ((x, y, z), t) in enumerate(zip(mesh.nodes, temps)):
            fh.write(f"{i},{x:.17g},{y:.17g},{z:.17g},{t:.17g}\n")


def reference_vtk(path, mesh, temps):
    blocks = mesh.element_blocks()
    size = sum(conn.shape[0] * (etype.width + 1) for etype, conn in blocks)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("temperature field\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.n_nodes} double\n")
        for x, y, z in mesh.nodes:
            fh.write(f"{x:.17g} {y:.17g} {z:.17g}\n")
        fh.write(f"CELLS {mesh.n_elements} {size}\n")
        for etype, conn in blocks:
            for row in conn:
                fh.write(f"{etype.width} " + " ".join(str(int(i)) for i in row) + "\n")
        fh.write(f"CELL_TYPES {mesh.n_elements}\n")
        for etype, conn in blocks:
            for _ in range(conn.shape[0]):
                fh.write(f"{etype.vtk_cell}\n")
        fh.write(f"POINT_DATA {mesh.n_nodes}\n")
        fh.write("SCALARS temperature double 1\n")
        fh.write("LOOKUP_TABLE default\n")
        for t in temps:
            fh.write(f"{t:.17g}\n")


def reference_probes(path, record):
    header = "time," + ",".join(f"node_{i}" for i in record.probe_indices)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for t, row in zip(record.probe_times, record.probe_values):
            fh.write(f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n")


def assert_matches_reference(tmp_path, mesh, record):
    out, ref = tmp_path / "out", tmp_path / "ref"
    ref.mkdir()
    names = write_record_outputs(out, mesh, record)
    assert names == [snapshot_basename(t) for t in record.snapshot_times]
    expected = {"probes.csv"} if record.probe_indices else set()
    for name, temps in zip(names, record.snapshots):
        reference_csv(ref / f"{name}.csv", mesh, temps)
        reference_vtk(ref / f"{name}.vtk", mesh, temps)
        expected |= {f"{name}.csv", f"{name}.vtk"}
    if record.probe_indices:
        reference_probes(ref / "probes.csv", record)
    assert {p.name for p in out.iterdir()} == expected
    for name in sorted(expected):
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name


def text_of(values, sep=b" "):
    """The whole text of formatting.text_blocks."""
    return b"".join(formatting.text_blocks(values, sep))


def reference_text(values, sep=b" "):
    """Python's "%.17g" of each value, sep between the values of a row."""
    rows = np.asarray(values, dtype=np.float64)
    rows = rows.tolist() if rows.ndim == 2 else [[v] for v in rows.tolist()]
    return b"".join(sep.join(b"%.17g" % v for v in row) + b"\n" for row in rows)


def format_corpus():
    powers = 10.0 ** np.arange(-6, 19)
    big = np.finfo(np.float64).max
    return np.concatenate([
        1e15 + np.arange(-40, 41) / 4,  # half-way ties of the 17th digit
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        [1e-4, np.nextafter(1e-4, 0), 1e17, np.nextafter(1e17, 0)],
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, big, -big],
        AWKWARD,
    ])


def test_format_matches_percent_g_on_its_edges():
    values = format_corpus()
    assert text_of(values) == reference_text(values)
    assert text_of(-values) == reference_text(-values)


def test_format_matches_percent_g_on_seeded_values():
    rng = np.random.default_rng(2025)
    n = 1_000_000
    values = rng.random(n) * 10.0 ** rng.integers(-8, 21, n) * rng.choice([-1.0, 1.0], n)
    assert text_of(values) == reference_text(values)


@pytest.mark.parametrize("sep", [b",", b" "])
@pytest.mark.parametrize("n", [0, 1, formatting.BLOCK_VALUES - 1, formatting.BLOCK_VALUES,
                               formatting.BLOCK_VALUES + 1, 2 * formatting.BLOCK_VALUES + 3])
def test_format_rows_of_any_length(sep, n):
    rng = np.random.default_rng(n)
    values = 37.0 + rng.standard_normal(n)
    values[:AWKWARD.size] = AWKWARD[:n]
    assert text_of(values, sep) == reference_text(values, sep)
    for cols in (1, 3, 7):
        rows = values[:n - n % cols].reshape(-1, cols)
        assert text_of(rows, sep) == reference_text(rows, sep)


def test_int_format_matches_percent_d():
    values = np.array([0, 7, 9, 10, 99, 100, 9999, 10_000, 12_345_678, 123_456_789,
                       10**18, np.iinfo(np.int64).max, -1, -10, -9999, -10**17])
    assert text_of(values) == b"".join(b"%d\n" % v for v in values.tolist())
    rows = values.reshape(4, 4)
    assert text_of(rows, b",") == b"".join(
        b",".join(b"%d" % v for v in row) + b"\n" for row in rows.tolist())
    assert text_of(np.zeros(0, dtype=np.intp)) == b""


# -- the other writers against their per-line forms ---------------------------

def test_file_writers_match_line_writers(tmp_path):
    base = mixed_block()
    nodes = base.nodes.copy()
    nodes.flat[:AWKWARD.size] = AWKWARD
    mesh = Mesh(nodes=nodes, tets=base.tets, hexes=base.hexes)
    write_mesh(tmp_path / "m.mesh", mesh)
    lines = [f"NODES {mesh.n_nodes}\n"]
    lines += [f"{x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in mesh.nodes]
    for etype, conn in mesh.element_blocks():
        lines.append(f"{etype.kind.upper()} {conn.shape[0]}\n")
        lines += [" ".join(str(int(i)) for i in row) + "\n" for row in conn]
    assert (tmp_path / "m.mesh").read_text() == "".join(lines)

    indices = np.array([0, 5, 9, 10, 9999, 10_000, 123_456_789])
    write_node_set(tmp_path / "s.nodes", indices)
    assert (tmp_path / "s.nodes").read_text() == "".join(f"{int(i)}\n" for i in indices)

    times = AWKWARD[2:5]
    frames = np.stack([np.roll(nodes[:, [2, 0, 1]], k, axis=0) for k in range(3)])
    write_trajectory(tmp_path / "r.traj", times, frames)
    lines = []
    for t, frame in zip(times, frames):
        lines.append(f"KEYFRAME {t:.17g}\n")
        lines += [f"{ux:.17g} {uy:.17g} {uz:.17g}\n" for ux, uy, uz in frame]
    assert (tmp_path / "r.traj").read_text() == "".join(lines)

    reference = [37.0 + np.arange(40) / 7, 40.0 + np.arange(40) / 3]
    candidate = [reference[0] + 1e-7 * np.arange(40), reference[1] - AWKWARD[3] * 1e-6]
    hist_times = [AWKWARD[3], AWKWARD[7]]
    write_error_histogram(tmp_path / "h.csv", hist_times, candidate, reference, bins=6)
    lines = ["time,bin_lo,bin_hi,count\n"]
    for t, a, b in zip(hist_times, candidate, reference):
        err = normalized_error(a, b)
        top = float(err.max())
        edges = np.linspace(0.0, top if top > 0 else 1e-16, 7)
        counts, _ = np.histogram(err, bins=edges)
        lines += [f"{t:.17g},{lo:.17g},{hi:.17g},{int(c)}\n"
                  for lo, hi, c in zip(edges[:-1], edges[1:], counts)]
    assert (tmp_path / "h.csv").read_text() == "".join(lines)


# -- meshes and records -------------------------------------------------------

# The hex8 mesh's 1728 nodes are 5184 coordinates, more than one formatting
# block (BLOCK_VALUES), and the tet4 mesh (1296 tets, 343 nodes) formats its
# connectivity in two blocks; the mixed mesh writes both families
MESHES = {
    "tet4": lambda: random_tet_mesh(n_cells=6, seed=3),
    "hex8": lambda: make_block_mesh(11, 11, 11, element="hex8", jitter=0.2, seed=4),
    "mixed": mixed_block,
}


def field_record(mesh, n_probes, n_rows=130):
    """Two snapshots holding AWKWARD values among random ones, and n_rows
    probe rows."""
    rng = np.random.default_rng(mesh.n_nodes)
    first = 37.0 + rng.standard_normal(mesh.n_nodes)
    first[:AWKWARD.size] = AWKWARD
    second = np.roll(first, 7) * 1.1
    probes = tuple(np.linspace(0, mesh.n_nodes - 1, n_probes).astype(int).tolist())
    record = SimulationRecord(dt=0.01, n_steps=n_rows - 1,
                              snapshot_times=[0.5, 1.25], snapshots=[first, second],
                              probe_indices=probes)
    if probes:
        values = 37.0 + rng.standard_normal((n_rows, n_probes))
        values[:AWKWARD.size, 0] = AWKWARD
        record.probe_times = np.arange(n_rows) * 0.01
        record.probe_values = values
    return record


@pytest.mark.parametrize("kind", sorted(MESHES))
@pytest.mark.parametrize("n_probes", [0, 1, 5])
def test_record_outputs_match_line_writers(tmp_path, kind, n_probes):
    mesh = MESHES[kind]()
    assert_matches_reference(tmp_path, mesh, field_record(mesh, n_probes))


def test_non_finite_values_format_like_line_writers(tmp_path):
    mesh = mixed_block()
    temps = np.full(mesh.n_nodes, 37.0)
    temps[:3] = [np.inf, -np.inf, np.nan]
    record = SimulationRecord(dt=1.0, n_steps=1, snapshot_times=[1.0], snapshots=[temps])
    assert_matches_reference(tmp_path, mesh, record)


def test_probes_with_no_rows_write_the_header_only(tmp_path):
    # a refused run captures no field: its probes.csv is the header alone
    record = SimulationRecord(dt=1.0, n_steps=1, probe_indices=(3, 1))
    record.finish(np.full(8, 37.0))
    assert write_record_outputs(tmp_path, mixed_block(), record) == []
    assert (tmp_path / "probes.csv").read_bytes() == b"time,node_3,node_1\n"


# tracemalloc peak, in bytes, of the first write_record_outputs call in a
# process on the 11^3 hex8 record with 5 probes below, measured with the
# writer that numpy formatting replaced, which joined "%.17g" str blocks
# and kept a list of row-prefix strings (Python 3.11.7, numpy 2.4.6)
LINE_WRITER_PEAK = 732_990


def test_writer_peak_memory_stays_within_the_line_writers(tmp_path):
    mesh = MESHES["hex8"]()
    record = field_record(mesh, 5)
    for table in (formatting._digit_tables, formatting._powers_of_ten, formatting._cell_masks):
        table.cache_clear()  # as in a fresh process, the tables are built by this call
    tracemalloc.start()
    try:
        write_record_outputs(tmp_path, mesh, record)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= LINE_WRITER_PEAK


def test_no_snapshots_no_probes_writes_nothing(tmp_path):
    record = SimulationRecord(dt=1.0, n_steps=1)
    assert write_record_outputs(tmp_path / "o", mixed_block(), record) == []
    assert list((tmp_path / "o").iterdir()) == []


def test_diverged_record_partial_outputs(tmp_path):
    mesh = random_tet_mesh(n_cells=2, seed=12, jitter=0.1, lengths=(0.03,) * 3)
    schedule = Schedule(dt=1e9, total_time=1e11, snapshot_times=(2e9, 1e11))
    # a uniform field has exactly zero conduction loads: one heated node
    # seeds the unstable mode
    kick = FluxBC(nodes=np.array([0], dtype=np.intp), watts_per_node=1.0)
    record = run(mesh, precompute(mesh), make_material(k=0.5), PerfusionParams(),
                 BoundaryConditions(dirichlet=(), fluxes=(kick,), films=()),
                 IdentityDeformation(), schedule, Variant.CLASSICAL_ISO_TEMP_INDEP,
                 probes=(0, 5), dt_override=True)
    assert record.diverged and len(record.snapshots) == 2
    assert record.probe_values.shape[0] == record.divergence_step + 1
    assert_matches_reference(tmp_path, mesh, record)


def quiet_run(schedule, **kw):
    mesh = random_tet_mesh(n_cells=1, seed=3, jitter=0.0, lengths=(0.03,) * 3)
    record = run(mesh, precompute(mesh), make_material(k=0.5), PerfusionParams(),
                 BoundaryConditions(dirichlet=(), fluxes=(), films=()),
                 IdentityDeformation(), schedule, Variant.CLASSICAL_ISO_TEMP_INDEP, **kw)
    return mesh, record


def test_snapshots_of_one_step_are_written_once(tmp_path):
    # 0.6 and 0.9 both fire at t = 1.0: the record keeps both snapshots, the
    # output directory and the manifest hold the step's field once
    mesh, record = quiet_run(Schedule(dt=0.5, total_time=2.0, snapshot_times=(0.6, 0.9)))
    assert record.snapshot_times == [1.0, 1.0]
    out = tmp_path / "o"
    names = write_record_outputs(out, mesh, record)
    assert names == ["snapshot_1000"]
    assert sorted(p.name for p in out.iterdir()) == ["snapshot_1000.csv", "snapshot_1000.vtk"]
    write_manifest(out / "manifest.json", {}, record, names)
    assert json.loads((out / "manifest.json").read_text())["snapshots"] == ["snapshot_1000"]


def test_snapshot_names_below_a_millisecond_are_distinct(tmp_path):
    # at dt = 0.4 ms, names in whole milliseconds would give the steps at
    # 0.8 and 1.2 ms one file pair, snapshot_1
    assert [snapshot_basename(t) for t in (0.0, 3 * 0.1, 0.25, 20.0)] == [
        "snapshot_0", "snapshot_300", "snapshot_250", "snapshot_20000"]
    steps = [n * 0.0004 for n in range(5000)]
    assert len({snapshot_basename(t) for t in steps}) == len(steps)
    mesh = mixed_block()
    first = 37.0 + np.arange(mesh.n_nodes) / mesh.n_nodes
    record = SimulationRecord(dt=0.0004, n_steps=3, snapshot_times=steps[2:4],
                              snapshots=[first, first + 1.0])
    names = write_record_outputs(tmp_path, mesh, record)
    assert names == ["snapshot_0.8", "snapshot_1.2"]
    for name, temps in zip(names, record.snapshots):
        assert read_snapshot_csv(tmp_path / f"{name}.csv")[1].tobytes() == temps.tobytes()
        assert (tmp_path / f"{name}.vtk").is_file()


STABILITY_KEYS = ("lambda_max", "dt_critical", "stability_iterations", "stability_converged")


def test_manifest_stability_keys_come_from_the_record(tmp_path):
    schedule = Schedule(dt=0.5, total_time=1.0)
    for dt_override in (False, True):
        _, record = quiet_run(schedule, dt_override=dt_override)
        write_manifest(tmp_path / "manifest.json", {}, record, [])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        est = record.stability
        if dt_override:
            assert est is None
            assert [manifest[key] for key in STABILITY_KEYS] == [None] * 4
        else:
            assert [manifest[key] for key in STABILITY_KEYS] == [
                est.lambda_max, est.dt_critical, est.iterations, est.converged]


def test_read_snapshot_csv_roundtrips_bitwise(tmp_path):
    mesh = mixed_block()
    record = field_record(mesh, 0)
    write_record_outputs(tmp_path, mesh, record)
    coords, temps = read_snapshot_csv(tmp_path / "snapshot_500.csv")
    assert coords.tobytes() == mesh.nodes.tobytes()
    assert temps.tobytes() == record.snapshots[0].tobytes()


def test_read_snapshot_csv_rejects_a_bad_field(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("node_index,x,y,z,T\n0,0,0,0,37\n1,1,0,0,abc\n")
    with pytest.raises(ValueError):
        read_snapshot_csv(path)
