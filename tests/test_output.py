"""Byte equality of the block-formatted snapshot writers with per-line ones."""

import json

import numpy as np
import pytest

from fedbht.blockmesh import make_block_mesh
from fedbht.deformation import IdentityDeformation
from fedbht.integrator import BoundaryConditions, FluxBC, Schedule, SimulationRecord, run
from fedbht.kernels import Variant
from fedbht.material import PerfusionParams
from fedbht.mesh import precompute
from fedbht.output import (
    read_snapshot_csv,
    snapshot_basename,
    write_manifest,
    write_record_outputs,
)

from conftest import make_material, mixed_block, random_tet_mesh

# -0.0, a tiny value with a three-digit exponent, an exact value, a value
# with no short decimal form and one past 2^53
AWKWARD = np.array([-0.0, 1e-300, 37.0, 0.1 + 0.2, 1e17])


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


# -- meshes and records -------------------------------------------------------

# The tet4 mesh (1296 tets) and the hex8 mesh (1331 hexes, 1728 nodes) cross
# the 1024-row formatting chunk; the mixed mesh writes both families
MESHES = {
    "tet4": lambda: random_tet_mesh(n_cells=6, seed=3),
    "hex8": lambda: make_block_mesh(11, 11, 11, element="hex8", jitter=0.2, seed=4),
    "mixed": mixed_block,
}


def field_record(mesh, n_probes, n_rows=130):
    """Two snapshots holding AWKWARD values among random ones; probe rows
    cross the 64-row chunk."""
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
