"""Workload table and scene generation for the layered benchmark.

Every scene is written with the public functions of ``fedbht.blockmesh``
into a scratch directory; the solver only ever sees the generated files.
Only ``hexblock_snapshots`` depends on the workload seed (through the
interior-node jitter of ``make_block_mesh``): the three demo workloads run
the fixed reference scene on purpose.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from fedbht.blockmesh import (
    BlockSceneParams,
    block_node_sets,
    make_block_mesh,
    scenario_config_dict,
    write_desk_scenario,
)
from fedbht.kernels import Variant
from fedbht.mesh import write_mesh, write_node_set

# The demo keeps make-mesh's mesh, materials, boundary, events and ramp, on a
# time axis compressed from 20 s to DEMO_TOTAL_TIME at the same dt, so that
# one repetition of `verify` (the slowest command) fits several times into a
# run. The event, ramp and snapshot times scale with it.
DEMO_TOTAL_TIME = 1.0
DEMO_FULL_TIME = 20.0

# 16 cells per axis rather than 24: a 24^3 repetition takes about 9 s, so a
# run holds only two or three of them, and the per-run medians spread by
# 0.19 and 0.30 of their median over ten and over five seeded runs. A 16^3
# repetition takes about 3.3 s, and its operator cache (3.2 MB computed)
# still exceeds a 2 MiB L2.
HEX_CELLS = 16
HEX_JITTER = 0.15
HEX_DT = 0.01
HEX_TOTAL_TIME = 20.0
HEX_SNAPSHOT_EVERY = 1.0
HEX_PROBES = 64
HEX_MESHES = 5

WORKLOAD_COMMANDS = {
    "demo_run": ("run", "demo"),
    "demo_verify": ("verify", "demo"),
    "demo_stability": ("stability", "demo"),
    "hexblock_snapshots": ("run", "hexblock"),
}


@dataclass
class Scene:
    """A generated scenario plus the facts the benchmark reports about it."""

    scenario: str
    nodes: int
    elements: int
    element_type: str
    variant: str
    steps: int
    snapshots: int
    total_time: float
    element_cache_bytes: int
    # Index of the snapshot that the once-per-run oracle check replays to.
    check_snapshot: int = -1
    jitter_seed: int | None = None


def demo_params(cells: int = 13, total_time: float = DEMO_TOTAL_TIME) -> BlockSceneParams:
    """make-mesh's defaults with the schedule scaled to ``total_time``."""
    base = BlockSceneParams(nx=cells, ny=cells, nz=cells)
    scale = total_time / DEMO_FULL_TIME
    base.total_time = total_time
    base.ramp_time = base.ramp_time * scale
    base.source_off_time = base.source_off_time * scale
    base.snapshot_times = tuple(t * scale for t in base.snapshot_times)
    return base


def write_demo(out_dir: str, cells: int = 13, total_time: float = DEMO_TOTAL_TIME) -> Scene:
    params = demo_params(cells, total_time)
    path = write_desk_scenario(out_dir, params)
    n_nodes = (cells + 1) ** 3
    n_elems = 6 * cells ** 3
    return Scene(
        scenario=path,
        nodes=n_nodes,
        elements=n_elems,
        element_type="tet4",
        variant="i",
        steps=_steps(params.total_time, params.dt),
        snapshots=len(params.snapshot_times),
        total_time=params.total_time,
        element_cache_bytes=element_cache_bytes(Variant.from_string("i"), n_elems, 4),
    )


def write_hexblock(out_dir: str, seed: int, cells: int = HEX_CELLS,
                   dt: float = HEX_DT, total_time: float = HEX_TOTAL_TIME) -> Scene:
    """Fixed hex8 block with constant tables and the fully cached variant v."""
    params = BlockSceneParams(nx=cells, ny=cells, nz=cells, element="hex8")
    params.material = {
        "density": [[37.0, 1060.0]],
        "specific_heat": [[37.0, 3600.0]],
        "conductivity": [[37.0, 0.53]],
    }
    mesh = make_block_mesh(cells, cells, cells, params.lengths, element="hex8",
                           jitter=HEX_JITTER, seed=seed)
    sets = block_node_sets(mesh, params)
    os.makedirs(os.path.join(out_dir, "sets"), exist_ok=True)
    write_mesh(os.path.join(out_dir, "block.mesh"), mesh)
    for name, indices in sets.items():
        write_node_set(os.path.join(out_dir, "sets", f"{name}.nodes"), indices)

    n_snaps = int(round(total_time / HEX_SNAPSHOT_EVERY))
    probes = np.linspace(0, mesh.n_nodes - 1, HEX_PROBES).astype(int)
    config = scenario_config_dict(params, probes)
    config["deformation"] = {"kind": "identity"}
    config["variant"] = "v"
    config["update_thermal_mass"] = False
    config["schedule"] = {
        "dt": dt,
        "total_time": total_time,
        "snapshot_times": [HEX_SNAPSHOT_EVERY * (i + 1) for i in range(n_snaps)],
        "events": [{"time": total_time / 4, "action": "source_off"}],
    }
    path = os.path.join(out_dir, "hexblock.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
        fh.write("\n")
    return Scene(
        scenario=path,
        nodes=mesh.n_nodes,
        elements=mesh.n_elements,
        element_type="hex8",
        variant="v",
        steps=_steps(total_time, dt),
        snapshots=n_snaps,
        total_time=total_time,
        element_cache_bytes=element_cache_bytes(Variant.from_string("v"), mesh.n_elements, 8),
        check_snapshot=0,
        jitter_seed=seed,
    )


def write_scenes(workload: str, out_dir: str, seed: int, tiny: bool = False) -> list[Scene]:
    """Generate the scenes of ``workload``; ``tiny`` shrinks them for self-tests.

    The demo is one fixed scene. The hex block is HEX_MESHES blocks whose
    jitter seeds derive from ``seed``, because the t = 0 power iteration
    needs 81 to 1098 iterations depending on the jitter (24 seeds measured),
    and one block per run would make set-up time follow the seed.
    """
    kind = WORKLOAD_COMMANDS[workload][1]
    if kind == "demo":
        if tiny:
            return [write_demo(out_dir, cells=6, total_time=0.1)]
        return [write_demo(out_dir)]
    scenes = []
    for k in range(HEX_MESHES):
        sub = os.path.join(out_dir, f"block{k}")
        jitter_seed = seed * HEX_MESHES + k
        if tiny:
            scenes.append(write_hexblock(sub, jitter_seed, cells=6, dt=0.1, total_time=2.0))
        else:
            scenes.append(write_hexblock(sub, jitter_seed))
    return scenes


def element_cache_bytes(variant: Variant, n_elems: int, nodes_per_elem: int) -> int:
    """Bytes the operator keeps per element, computed from array shapes.

    Connectivity (intp), reference gradients (3 x k) and integration weights
    are held by every variant; the cached factor depends on the variant.
    """
    k = nodes_per_elem
    per_elem = 8 * k + 8 * 3 * k + 8
    if variant is Variant.CLASSICAL_ANISO_TEMP_DEP:
        per_elem += 8 * k * 3
    elif variant is Variant.CLASSICAL_ISO_TEMP_DEP or variant.full_precompute:
        per_elem += 8 * k * k
    return n_elems * per_elem


def _steps(total_time: float, dt: float) -> int:
    return int(np.ceil(total_time / dt - 1e-12))
