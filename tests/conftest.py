import os

# one BLAS thread, set before numpy loads: gate 4's dense eigvalsh takes
# about three times as long with a thread per core on a small host
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from fedbht.material import MaterialModel, PerfusionParams, PropertyTable, TensorPropertyTable  # noqa: E402
from fedbht.mesh import Mesh, precompute  # noqa: E402


@pytest.fixture
def unit_tet():
    mesh = Mesh(
        nodes=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                        [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        tets=np.array([[0, 1, 2, 3]], dtype=np.intp),
        hexes=np.zeros((0, 8), dtype=np.intp),
    )
    return mesh, precompute(mesh)


@pytest.fixture
def unit_cube_hex():
    mesh = Mesh(
        nodes=np.array([
            [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0],
        ]),
        tets=np.zeros((0, 4), dtype=np.intp),
        hexes=np.arange(8, dtype=np.intp).reshape(1, 8),
    )
    return mesh, precompute(mesh)


def make_material(k=1.0, rho=1060.0, c=3600.0):
    return MaterialModel(
        density=PropertyTable.constant(rho),
        specific_heat=PropertyTable.constant(c),
        conductivity=PropertyTable.constant(k),
    )


@pytest.fixture
def simple_material():
    return make_material()


@pytest.fixture
def tissue_material():
    return temperature_dependent_material()


def temperature_dependent_material():
    """Liver-like tables: c and k rise with temperature."""
    return MaterialModel(
        density=PropertyTable([[37.0, 1060.0]]),
        specific_heat=PropertyTable([[37.0, 3600.0], [65.0, 3800.0]]),
        conductivity=PropertyTable([[37.0, 0.53], [65.0, 0.57]]),
    )


def anisotropic_material():
    """A full conductivity tensor whose entries rise with temperature."""
    return MaterialModel(
        density=PropertyTable.constant(1060.0),
        specific_heat=PropertyTable.constant(3600.0),
        conductivity=TensorPropertyTable({
            "xx": [[37.0, 0.53], [65.0, 0.61]],
            "yy": [[37.0, 0.47], [65.0, 0.52]],
            "zz": [[37.0, 0.58], [65.0, 0.66]],
            "xy": [[37.0, 0.02], [65.0, 0.05]],
            "xz": [[37.0, 0.01]],
            "yz": [[37.0, -0.015], [65.0, 0.01]],
        }),
    )


@pytest.fixture
def zero_perfusion():
    return PerfusionParams(w_b=0.0, c_b=3617.0, T_a=37.0, Q_met=0.0)


def random_tet_mesh(n_cells=2, seed=0, jitter=0.2, lengths=(1.0, 1.0, 1.0)):
    from fedbht.blockmesh import make_block_mesh

    return make_block_mesh(n_cells, n_cells, n_cells, lengths,
                           jitter=jitter, seed=seed)


def mixed_block():
    """Disjoint jittered tet4 and hex8 blocks in one mesh."""
    from fedbht.blockmesh import make_block_mesh

    tets = make_block_mesh(2, 2, 2, jitter=0.15, seed=51)
    hexes = make_block_mesh(2, 2, 2, element="hex8", jitter=0.15, seed=52)
    return Mesh(nodes=np.vstack([tets.nodes, hexes.nodes + [1.5, 0.0, 0.0]]),
                tets=tets.tets, hexes=hexes.hexes + tets.n_nodes)
