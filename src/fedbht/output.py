"""Snapshot, probe and manifest writers.

Snapshots are written twice per capture time: a CSV with columns
node_index,x,y,z,T (reference-configuration coordinates) and a legacy ASCII
VTK unstructured grid named snapshot_<time_ms>.vtk for visualization. Every
float is written as "%.17g", which reads back to the same bits, so reruns
can be compared byte for byte. The numbers are printed by
:mod:`fedbht.formatting`, imported on the first write so that commands that
write nothing never load it.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

from . import __version__
from .integrator import SimulationRecord
from .mesh import Mesh


def snapshot_basename(time_s: float) -> str:
    """snapshot_<ms>, ms rounded to 1e-6: 3 * 0.1 s gives snapshot_300, 0.8 ms snapshot_0.8."""
    return f"snapshot_{round(time_s * 1000.0, 6):.15g}"


def read_snapshot_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Returns (coords (n,3), temps (n,)) ordered by node index.

    Raises ValueError on a field that is not a number.
    """
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    order = np.argsort(data[:, 0])
    data = data[order]
    return data[:, 1:4], data[:, 4]


def _vtk_geometry(mesh: Mesh, points: np.ndarray) -> list:
    """Legacy ASCII VTK text from the header through LOOKUP_TABLE default,
    everything but the temperature values, as a list of byte strings;
    ``points`` holds the cells of the node coordinates."""
    from .formatting import compact, text_blocks

    blocks = mesh.element_blocks()
    # the connectivity first: its temporaries then share the peak with
    # fewer live arrays
    cells = [text for etype, conn in blocks
             for text in text_blocks(np.column_stack([np.full(len(conn), etype.width), conn]))]
    return [b"# vtk DataFile Version 3.0\ntemperature field\nASCII\n"
            b"DATASET UNSTRUCTURED_GRID\nPOINTS %d double\n" % mesh.n_nodes,
            compact(points),
            b"CELLS %d %d\n" % (mesh.n_elements, sum(conn.size + len(conn) for _, conn in blocks)),
            *cells,
            b"CELL_TYPES %d\n" % mesh.n_elements,
            *(b"%d\n" % etype.vtk_cell * len(conn) for etype, conn in blocks),
            b"POINT_DATA %d\nSCALARS temperature double 1\nLOOKUP_TABLE default\n" % mesh.n_nodes]


def _write(path, *parts):
    """Write every byte string of every iterable in ``parts``, in order;
    generators are consumed one piece at a time."""
    with open(path, "wb") as fh:
        for part in parts:
            fh.writelines(part)


def _write_snapshot(base, temps, vtk_head, table):
    """Write base.vtk and base.csv; the last CELL columns of ``table`` take
    the temperature cells after each row's "i,x,y,z," cells."""
    from .formatting import CELL, compact, compact_blocks, float_cells

    column = float_cells(temps)
    _write(base + ".vtk", vtk_head, [compact(column)])
    if column.shape[1] == CELL:
        table[:, -CELL:] = column
    else:
        table = np.hstack([table[:, :-CELL], column])
    _write(base + ".csv", [b"node_index,x,y,z,T\n"], compact_blocks(table))


def _write_snapshots(out_dir, mesh: Mesh, record: SimulationRecord) -> list:
    """Write the CSV and VTK of each snapshot time; returns their names.
    The coordinates are formatted once, for the VTK points and the CSV row
    prefixes; each snapshot formats its temperature column once."""
    from .formatting import CELL, float_cells, int_cells

    points = float_cells(mesh.nodes)
    vtk_head = _vtk_geometry(mesh, points)
    # CSV rows: "i,x,y,z," (the point cells with commas), then a cell that
    # each snapshot fills with its temperature
    table = np.hstack([int_cells(np.arange(mesh.n_nodes), row_end=b","),
                       points, points[:, :CELL]])
    del points
    for sep in b" \n":
        np.copyto(table, ord(","), where=table == sep)
    written, last_time = [], None
    for t, temps in zip(record.snapshot_times, record.snapshots):
        if t != last_time:
            written.append(snapshot_basename(t))
            _write_snapshot(os.path.join(out_dir, written[-1]), temps, vtk_head, table)
        last_time = t
    return written


def write_record_outputs(out_dir, mesh: Mesh, record: SimulationRecord):
    """Write every snapshot (CSV + VTK) and the probe history; returns the
    snapshot names written.

    Snapshots taken at the same step time (two snapshot times within one
    step, or the divergence snapshot) are one field: its files are written
    once and its name listed once.
    """
    from .formatting import text_blocks

    os.makedirs(out_dir, exist_ok=True)
    written = _write_snapshots(out_dir, mesh, record) if record.snapshots else []
    if record.probe_indices:
        header = "time," + ",".join(f"node_{i}" for i in record.probe_indices) + "\n"
        _write(os.path.join(out_dir, "probes.csv"), [header.encode()],
               text_blocks(np.column_stack([record.probe_times, record.probe_values]), b","))
    return written


def write_manifest(path, config_echo: dict, record: SimulationRecord, snapshot_names):
    """Run manifest: echoed configuration plus run facts.

    Re-running the echoed configuration must reproduce the snapshot CSVs
    and VTKs and the probes byte for byte (timings are informational and
    naturally vary). provenance names what produced the run: the package,
    python and numpy versions, the resolved variant and its cache
    strategy, and whether the thermal mass was updated every step.
    """
    variant = record.variant
    estimate = record.stability  # None when the run made no estimate
    manifest = {
        "config": config_echo,
        "dt": record.dt,
        "n_steps": record.n_steps,
        "n_elements": record.n_elements,
        "lambda_max": getattr(estimate, "lambda_max", None),
        "dt_critical": getattr(estimate, "dt_critical", None),
        "stability_iterations": getattr(estimate, "iterations", None),
        "stability_converged": getattr(estimate, "converged", None),
        "diverged": record.diverged,
        "divergence_step": record.divergence_step,
        "outcome": record.outcome._asdict() if record.outcome else None,
        "snapshots": list(snapshot_names),
        "provenance": {
            "fedbht_version": __version__,
            "python_version": "%d.%d.%d" % sys.version_info[:3],
            "numpy_version": np.__version__,
            "variant": variant.roman,
            "variant_name": variant.value,
            "cache_strategy": "frozen_stiffness" if variant.full_precompute else "pullback",
            "update_thermal_mass": record.update_thermal_mass,
        },
        "timings_seconds": record.timings,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
