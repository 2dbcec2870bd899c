"""Explicit finite-element solver for heat transport in perfused,
deforming soft tissue.

The public surface re-exported here covers the typical workflow: load or
generate a mesh, describe the material and perfusion, pick a formulation
variant, run the transient, and check it against the assembled-matrix
reference solver.
"""

__version__ = "0.1.0"

from .config import ScenarioConfig, load_scenario
from .deformation import (
    AffineDeformation,
    DeformationState,
    IdentityDeformation,
    TrajectoryDeformation,
    load_trajectory,
)
from .errors import (
    ConfigError,
    ConflictError,
    DivergenceError,
    FedbhtError,
    GeometryError,
    MeshFormatError,
    NotSPDError,
    RangeZeroError,
    SingularDeformationError,
    StabilityError,
    TopologyError,
)
from .integrator import (
    BoundaryConditions,
    DirichletBC,
    FilmBC,
    FluxBC,
    Schedule,
    SimulationRecord,
    build_thermal_state,
    run,
)
from .kernels import ConductionOperator, Variant
from .material import (
    MaterialModel,
    PerfusionParams,
    PropertyTable,
    TensorPropertyTable,
)
from .mesh import Mesh, load_node_set, precompute, write_mesh
from .metrics import (
    MetricsReport,
    compare_snapshots,
    normalized_error,
    total_relative_error,
)
from .stability import StabilityEstimate, estimate_critical_dt, lanczos_lambda_max

__all__ = [
    "__version__",
    "AffineDeformation",
    "BoundaryConditions",
    "ConductionOperator",
    "ConfigError",
    "ConflictError",
    "DeformationState",
    "DirichletBC",
    "DivergenceError",
    "FedbhtError",
    "FilmBC",
    "FluxBC",
    "GeometryError",
    "IdentityDeformation",
    "MaterialModel",
    "Mesh",
    "MeshFormatError",
    "MetricsReport",
    "NotSPDError",
    "PerfusionParams",
    "PropertyTable",
    "RangeZeroError",
    "ScenarioConfig",
    "Schedule",
    "SimulationRecord",
    "SingularDeformationError",
    "StabilityError",
    "StabilityEstimate",
    "TensorPropertyTable",
    "TopologyError",
    "TrajectoryDeformation",
    "Variant",
    "build_thermal_state",
    "compare_snapshots",
    "estimate_critical_dt",
    "lanczos_lambda_max",
    "load_node_set",
    "load_scenario",
    "load_trajectory",
    "normalized_error",
    "precompute",
    "run",
    "total_relative_error",
    "write_mesh",
]
