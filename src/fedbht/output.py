"""Snapshot, probe and manifest writers.

Snapshots are written twice per capture time: a CSV with columns
node_index,x,y,z,T (reference-configuration coordinates, full float
precision so reruns can be compared byte for byte) and a legacy ASCII VTK
unstructured grid named snapshot_<time_ms>.vtk for visualization.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .integrator import SimulationRecord
from .mesh import Mesh

def snapshot_basename(time_s: float) -> str:
    return f"snapshot_{int(round(time_s * 1000.0))}"


def write_snapshot_csv(path, mesh: Mesh, temps: np.ndarray):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("node_index,x,y,z,T\n")
        for i, ((x, y, z), t) in enumerate(zip(mesh.nodes, temps)):
            fh.write(f"{i},{x:.17g},{y:.17g},{z:.17g},{t:.17g}\n")


def read_snapshot_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Returns (coords (n,3), temps (n,)) ordered by node index."""
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    data = np.atleast_2d(data)
    order = np.argsort(data[:, 0])
    data = data[order]
    return data[:, 1:4], data[:, 4]


def write_snapshot_vtk(path, mesh: Mesh, temps: np.ndarray, title: str = "temperature field"):
    """Legacy ASCII VTK unstructured grid with one point scalar field."""
    blocks = mesh.element_blocks()
    n_cells = mesh.n_elements
    size = sum(conn.shape[0] * (etype.width + 1) for etype, conn in blocks)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(f"{title}\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.n_nodes} double\n")
        for x, y, z in mesh.nodes:
            fh.write(f"{x:.17g} {y:.17g} {z:.17g}\n")
        fh.write(f"CELLS {n_cells} {size}\n")
        for etype, conn in blocks:
            prefix = f"{etype.width} "
            for row in conn:
                fh.write(prefix + " ".join(str(int(i)) for i in row) + "\n")
        fh.write(f"CELL_TYPES {n_cells}\n")
        for etype, conn in blocks:
            for _ in range(conn.shape[0]):
                fh.write(f"{etype.vtk_cell}\n")
        fh.write(f"POINT_DATA {mesh.n_nodes}\n")
        fh.write("SCALARS temperature double 1\n")
        fh.write("LOOKUP_TABLE default\n")
        for t in temps:
            fh.write(f"{t:.17g}\n")


def write_probes_csv(path, record: SimulationRecord):
    if not record.probe_indices:
        return
    header = "time," + ",".join(f"node_{i}" for i in record.probe_indices)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for t, row in zip(record.probe_times, record.probe_values):
            fh.write(f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n")


def write_record_outputs(out_dir, mesh: Mesh, record: SimulationRecord):
    """Write every snapshot (CSV + VTK) and the probe history."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for t, temps in zip(record.snapshot_times, record.snapshots):
        base = snapshot_basename(t)
        csv_path = os.path.join(out_dir, base + ".csv")
        write_snapshot_csv(csv_path, mesh, temps)
        write_snapshot_vtk(os.path.join(out_dir, base + ".vtk"), mesh, temps)
        written.append(base)
    if record.probe_indices:
        write_probes_csv(os.path.join(out_dir, "probes.csv"), record)
    return written


def write_manifest(path, config_echo: dict, record: SimulationRecord, snapshot_names):
    """Run manifest: echoed configuration plus run facts.

    Re-running the echoed configuration must reproduce the snapshot CSVs
    byte for byte (timings are informational and naturally vary).
    """
    manifest = {
        "config": config_echo,
        "dt": record.dt,
        "n_steps": record.n_steps,
        "n_elements": record.n_elements,
        "lambda_max": record.lambda_max,
        "dt_critical": record.dt_critical,
        "stability_iterations": record.stability_iterations,
        "stability_converged": record.stability_converged,
        "diverged": record.diverged,
        "divergence_step": record.divergence_step,
        "snapshots": list(snapshot_names),
        "timings_seconds": record.timings,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
