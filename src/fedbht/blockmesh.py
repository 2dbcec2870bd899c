"""Synthetic vascularized tissue block: the bundled desk-scale scenario.

A rectangular block is meshed with a structured grid: one hex per cell,
its corners in :data:`mesh.HEX_SIGNS` order, or the six Kuhn tets of each
cell from one constant corner table, all cells at once by broadcasting.
Node sets mark a cylindrical vessel wall (held at body temperature), a
spherical heated region next to it and the perfused bulk. A two-keyframe
trajectory applies a smooth vertical compression ramp, standing in for a
mechanical solve: the top surface moves down by the full amplitude while
the bottom stays put, with a mild lateral taper so the deformation
gradient varies from element to element.

The default parameters give roughly 3000 nodes on a 6 cm cube with
liver-like material tables; generate it with the make-mesh CLI subcommand.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .deformation import TrajectoryDeformation, write_trajectory
from .integrator import Schedule
from .material import PerfusionParams
from .mesh import HEX_SIGNS, Mesh, write_mesh, write_node_set

# The six Kuhn tets of a cell as rows of hex corners (HEX_SIGNS order).
# Each walks the cell edges from corner 0 to the opposite corner 6, one axis
# at a time; where that axis order is an odd permutation of (x, y, z), its
# middle two corners are swapped, so that every tet has positive volume.
_KUHN_TETS = np.array([
    [0, 1, 2, 6],  # x y z
    [0, 5, 1, 6],  # x z y, swapped
    [0, 2, 3, 6],  # y x z, swapped
    [0, 3, 7, 6],  # y z x
    [0, 4, 5, 6],  # z x y
    [0, 7, 4, 6],  # z y x, swapped
])


def make_block_mesh(
    nx: int,
    ny: int,
    nz: int,
    lengths=(1.0, 1.0, 1.0),
    element: str = "tet4",
    jitter: float = 0.0,
    seed: int = 0,
) -> Mesh:
    """Structured block mesh on [0, Lx] x [0, Ly] x [0, Lz].

    nx/ny/nz count cells per axis. ``jitter`` displaces interior nodes by
    a uniform fraction of the local spacing (boundary nodes stay put so
    the box shape survives); keep it below ~0.25 to preserve positive
    volumes with the six-tet cell split. The mesh is not precomputed here:
    a jitter that inverts an element is refused by the mesh's first
    :func:`mesh.precompute`, which names the element.
    """
    if element not in ("tet4", "hex8"):
        raise ValueError(f"element must be tet4 or hex8, got {element!r}")
    if min(nx, ny, nz) < 1:
        raise ValueError(f"cells per axis must be positive, got {(nx, ny, nz)}")
    lx, ly, lz = (float(v) for v in lengths)
    hx, hy, hz = lx / nx, ly / ny, lz / nz

    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    zs = np.linspace(0.0, lz, nz + 1)
    gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
    nodes = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])

    if jitter > 0.0:
        rng = np.random.default_rng(seed)
        interior = (
            (nodes[:, 0] > hx / 2) & (nodes[:, 0] < lx - hx / 2)
            & (nodes[:, 1] > hy / 2) & (nodes[:, 1] < ly - hy / 2)
            & (nodes[:, 2] > hz / 2) & (nodes[:, 2] < lz - hz / 2)
        )
        shift = rng.uniform(-jitter, jitter, size=(int(interior.sum()), 3))
        nodes[interior] += shift * np.array([hx, hy, hz])

    # each cell's hex corners: the ids of its lowest corner plus the
    # offsets of the HEX_SIGNS corners
    ids = np.arange(nodes.shape[0], dtype=np.intp).reshape(nx + 1, ny + 1, nz + 1)
    bx, by, bz = ((HEX_SIGNS.T + 1) // 2).astype(np.intp)
    hexes = ids[:-1, :-1, :-1].reshape(-1, 1) + (bx * (ny + 1) + by) * (nz + 1) + bz
    if element == "hex8":
        return Mesh(nodes=nodes, hexes=hexes)
    return Mesh(nodes=nodes, tets=hexes[:, _KUHN_TETS].reshape(-1, 4))


@dataclass
class BlockSceneParams:
    """Geometry knobs of the bundled scenario."""

    nx: int = 13
    ny: int = 13
    nz: int = 13
    lengths: tuple = (0.06, 0.06, 0.06)
    element: str = "tet4"
    vessel_center_xz: tuple = (0.024, 0.030)
    vessel_radius: float = 0.005
    source_center: tuple = (0.038, 0.030, 0.030)
    source_radius: float = 0.0055
    ramp_amplitude: float = -0.01
    ramp_time: float = 10.0
    dt: float = 0.01
    total_time: float = 20.0
    snapshot_times: tuple = (5.0, 10.0, 15.0, 20.0)
    source_off_time: float = 5.0
    heater_watts: float = 0.2
    metabolic_watts: float = 0.001263
    film_coefficient: float = 0.003595
    body_temperature: float = 37.0
    material: dict = field(default_factory=lambda: {
        "density": [[37.0, 1060.0]],
        "specific_heat": [[37.0, 3600.0], [65.0, 3800.0]],
        "conductivity": [[37.0, 0.53], [65.0, 0.57]],
    })


def block_node_sets(mesh: Mesh, params: BlockSceneParams) -> dict[str, np.ndarray]:
    """Geometric node sets: vessel_wall, heat_source, perfused."""
    nodes = mesh.nodes
    cx, cz = params.vessel_center_xz
    vessel = np.flatnonzero(
        (nodes[:, 0] - cx) ** 2 + (nodes[:, 2] - cz) ** 2 <= params.vessel_radius ** 2
    )
    sx, sy, sz = params.source_center
    source = np.flatnonzero(
        (nodes[:, 0] - sx) ** 2 + (nodes[:, 1] - sy) ** 2 + (nodes[:, 2] - sz) ** 2
        <= params.source_radius ** 2
    )
    in_vessel = np.zeros(mesh.n_nodes, dtype=bool)
    in_vessel[vessel] = True
    perfused = np.flatnonzero(~in_vessel)
    overlap = in_vessel[source]
    if np.any(overlap):
        source = source[~overlap]  # heater may not touch the Dirichlet wall
    if source.size == 0:
        raise ValueError("heat source sphere captured no nodes; enlarge it")
    if vessel.size == 0:
        raise ValueError("vessel cylinder captured no nodes; enlarge it")
    return {
        "vessel_wall": vessel.astype(np.intp),
        "heat_source": source.astype(np.intp),
        "perfused": perfused.astype(np.intp),
    }


def ramp_trajectory(mesh: Mesh, params: BlockSceneParams) -> TrajectoryDeformation:
    """Two-keyframe vertical compression: zero at t=0, full field at
    t=ramp_time, clamped afterwards (held deformation)."""
    lx = params.lengths[0]
    lz = params.lengths[2]
    full = np.zeros((mesh.n_nodes, 3))
    taper = 0.75 + 0.25 * mesh.nodes[:, 0] / lx
    full[:, 2] = params.ramp_amplitude * (mesh.nodes[:, 2] / lz) * taper
    return TrajectoryDeformation([0.0, params.ramp_time], [np.zeros_like(full), full])


def scenario_config_dict(params: BlockSceneParams, probes) -> dict:
    """The scenario configuration as a plain dict (file paths relative to
    the scenario file)."""
    return {
        "mesh_path": "block.mesh",
        "node_sets": {
            name: f"sets/{name}.nodes"
            for name in ("vessel_wall", "heat_source", "perfused")
        },
        "material": params.material,
        "perfusion": {**asdict(PerfusionParams()), "T_a": params.body_temperature},
        "initial_temperature": params.body_temperature,
        "boundary": {
            "vessel_wall": {"kind": "dirichlet", "temperature": params.body_temperature},
            "heat_source": {
                "kind": "flux",
                "watts_per_node": params.heater_watts,
                "schedulable": True,
            },
            "perfused": [
                {
                    "kind": "film",
                    "coefficient": params.film_coefficient,
                    "sink_temperature": params.body_temperature,
                    "area_per_node": 1.0,
                },
                {
                    "kind": "flux",
                    "watts_per_node": params.metabolic_watts,
                    "schedulable": False,
                },
            ],
        },
        "deformation": {"kind": "trajectory", "path": "ramp.traj"},
        "schedule": {
            "dt": params.dt,
            "total_time": params.total_time,
            "snapshot_times": list(params.snapshot_times),
            "events": [{"time": params.source_off_time, "action": "source_off"}],
        },
        "variant": "i",
        "probes": list(int(p) for p in probes),
        "update_thermal_mass": True,
        "dt_override": False,
    }


def write_desk_scenario(out_dir, params: BlockSceneParams | None = None) -> str:
    """Write mesh, node sets, trajectory and scenario JSON; returns the
    scenario path."""
    params = params or BlockSceneParams()
    Schedule(params.dt, params.total_time)  # a dt run would refuse fails before any write
    mesh = make_block_mesh(
        params.nx, params.ny, params.nz, params.lengths, element=params.element
    )
    sets = block_node_sets(mesh, params)

    os.makedirs(os.path.join(out_dir, "sets"), exist_ok=True)
    write_mesh(os.path.join(out_dir, "block.mesh"), mesh)
    for name, indices in sets.items():
        write_node_set(os.path.join(out_dir, "sets", f"{name}.nodes"), indices)
    ramp = ramp_trajectory(mesh, params)
    write_trajectory(os.path.join(out_dir, "ramp.traj"), ramp.times, ramp.frames)

    probes = [int(sets["heat_source"][0]), int(sets["vessel_wall"][0])]
    config = scenario_config_dict(params, probes)
    config_path = os.path.join(out_dir, "liver_like.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
        fh.write("\n")
    return config_path
