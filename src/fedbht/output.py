"""Snapshot, probe and manifest writers.

Snapshots are written twice per capture time: a CSV with columns
node_index,x,y,z,T (reference-configuration coordinates) and a legacy ASCII
VTK unstructured grid named snapshot_<time_ms>.vtk for visualization. Every
float is written as "%.17g", which reads back to the same bits, so reruns
can be compared byte for byte.
"""

from __future__ import annotations

import json
import operator
import os
import sys

import numpy as np

from . import __version__
from .integrator import SimulationRecord
from .mesh import Mesh

# Rows per %-block: bounds the Python numbers alive at once when points,
# cells and probe rows are formatted, and when the rows of a snapshot CSV
# are joined for one write. On a 4913-node snapshot, one write per row took
# 1.07 ms, one write of the whole file 0.89 ms with a 1.45 MB Python peak,
# and one write per block 0.64 ms with a 0.6 MB peak (2-vCPU Xeon).
GEOMETRY_CHUNK = 1024
PROBE_CHUNK = 64


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


def _format_rows(row_fmt: str, rows: np.ndarray, chunk: int):
    """Yield the text of ``row_fmt % row`` for every row of a 2-D array,
    formatted as one %-block per ``chunk`` rows so that no more than
    ``chunk`` rows of Python numbers exist at once."""
    for start in range(0, rows.shape[0], chunk):
        block = rows[start:start + chunk]
        yield (row_fmt * block.shape[0]) % tuple(block.ravel().tolist())


def _vtk_geometry(mesh: Mesh) -> str:
    """Legacy ASCII VTK text from the header through LOOKUP_TABLE default:
    everything but the temperature values."""
    blocks = mesh.element_blocks()
    n_cells = mesh.n_elements
    size = sum(conn.shape[0] * (etype.width + 1) for etype, conn in blocks)
    parts = [
        "# vtk DataFile Version 3.0\ntemperature field\nASCII\n"
        f"DATASET UNSTRUCTURED_GRID\nPOINTS {mesh.n_nodes} double\n",
        *_format_rows("%.17g %.17g %.17g\n", mesh.nodes, GEOMETRY_CHUNK),
        f"CELLS {n_cells} {size}\n",
    ]
    for etype, conn in blocks:
        row_fmt = f"{etype.width}" + " %d" * etype.width + "\n"
        parts.extend(_format_rows(row_fmt, conn, GEOMETRY_CHUNK))
    parts.append(f"CELL_TYPES {n_cells}\n")
    parts.extend(f"{etype.vtk_cell}\n" * conn.shape[0] for etype, conn in blocks)
    parts.append(f"POINT_DATA {mesh.n_nodes}\n"
                 "SCALARS temperature double 1\nLOOKUP_TABLE default\n")
    return "".join(parts)


def _write_text(path, head: str, body):
    """Write ``head``, then every string of the iterable ``body``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head)
        fh.writelines(body)


def write_record_outputs(out_dir, mesh: Mesh, record: SimulationRecord):
    """Write every snapshot (CSV + VTK) and the probe history; returns the
    snapshot names written.

    Snapshots taken at the same step time (two snapshot times within one
    step, or the divergence snapshot) are one field: its files are written
    once and its name listed once. The geometry text (CSV row prefixes, VTK
    points and cells) is formatted once per call; each snapshot formats its
    temperature column once and writes it into both files.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if record.snapshots:
        prefixes = [f"{i},{x:.17g},{y:.17g},{z:.17g},"
                    for i, (x, y, z) in enumerate(mesh.nodes.tolist())]
        vtk_head = _vtk_geometry(mesh)
    last_time = None
    for t, temps in zip(record.snapshot_times, record.snapshots):
        if t == last_time:
            continue
        last_time = t
        base = snapshot_basename(t)
        column = ("%.17g\n" * len(temps)) % tuple(temps.tolist())
        lines = column.splitlines(True)
        _write_text(os.path.join(out_dir, base + ".csv"), "node_index,x,y,z,T\n",
                    ("".join(map(operator.add, prefixes[s:s + GEOMETRY_CHUNK],
                                 lines[s:s + GEOMETRY_CHUNK]))
                     for s in range(0, len(lines), GEOMETRY_CHUNK)))
        _write_text(os.path.join(out_dir, base + ".vtk"), vtk_head, [column])
        written.append(base)
    if record.probe_indices:
        header = "time," + ",".join(f"node_{i}" for i in record.probe_indices) + "\n"
        rows = np.column_stack([record.probe_times, record.probe_values])
        row_fmt = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        _write_text(os.path.join(out_dir, "probes.csv"), header,
                    _format_rows(row_fmt, rows, PROBE_CHUNK))
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
