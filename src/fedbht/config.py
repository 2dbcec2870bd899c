"""Scenario files: one JSON document describing a complete simulation.

Relative paths inside the file (mesh, node sets, trajectory) resolve
against the directory containing the scenario file itself, so a scenario
directory can be moved or archived as a unit.

Each value is read as one JSON kind: a number is a finite JSON number,
never a string nor true/false. A key the loader does not read is refused,
and every fault raises ConfigError naming its field.

Top-level keys:

    mesh_path            required, mesh file
    node_sets            {name: path} of node index files
    material             {density, specific_heat, conductivity}
                         each scalar table is [[T, value], ...];
                         conductivity may instead be a tensor table
                         {"xx": [[T, v], ...], "yy": ..., ...}
    perfusion            {w_b, c_b, T_a, Q_met}, defaults 0, 3617, 37, 0
                         (the fields of material.PerfusionParams)
    initial_temperature  default 37
    boundary             {set_name: condition | [condition, ...]}
                         condition kinds: dirichlet {temperature},
                         flux {watts_per_node, schedulable},
                         film {coefficient, sink_temperature, area_per_node}
    deformation          {"kind": "identity"} |
                         {"kind": "affine", "matrix": 3x3, "offset": [3]} |
                         {"kind": "trajectory", "path": ...}
    schedule             {dt, total_time, snapshot_times, events}
    variant              formulation name or roman numeral, default "i"
    probes               node indices sampled every step
    update_thermal_mass  bool or null (auto: on when tables vary)
    dt_override          run and verify even when dt exceeds the stability
                         estimate
    output_dir           default directory for snapshots and the manifest
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields

from .deformation import (
    AffineDeformation,
    IdentityDeformation,
    load_trajectory,
)
from .errors import ConfigError, FedbhtError
from .integrator import (
    SCHEDULE_ACTIONS,
    BoundaryConditions,
    DirichletBC,
    FilmBC,
    FluxBC,
    Schedule,
)
from .kernels import Variant
from .material import (
    TENSOR_COMPONENTS,
    MaterialModel,
    PerfusionParams,
    PropertyTable,
    TensorPropertyTable,
)
from .mesh import ElementFamily, Mesh, load_node_set, parse_mesh, precompute


@dataclass
class ScenarioConfig:
    """A validated scenario. precomp is the mesh's element families, made
    once while loading (``precompute`` is also the check that rejects
    inverted elements) and shared by everything that runs the scenario."""

    mesh: Mesh
    precomp: tuple[ElementFamily, ...]
    material: MaterialModel
    perfusion: PerfusionParams
    boundary: BoundaryConditions
    deformation: object
    schedule: Schedule
    variant: Variant
    initial_temperature: float = 37.0
    probes: tuple = ()
    update_thermal_mass: bool | None = None
    dt_override: bool = False
    output_dir: str = "out"
    raw: dict = field(default_factory=dict, repr=False)


_REQUIRED = object()

# the kinds _read accepts, as its messages name them
_KINDS = {float: "a number", int: "an integer node index", str: "a string",
          bool: "true or false", (bool, type(None)): "true or false, or null",
          list: "a list", dict: "an object"}


def _read(value, kind, field: str):
    """value as one JSON kind. float is a finite number, never a string nor
    a bool (JSON true loads as a Python int); int is an integer, never a
    bool; the other kinds are their Python types."""
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or kind in (float, int) and isinstance(value, bool):
        raise ConfigError(field, f"expected {_KINDS[kind]}, got {value!r}")
    if kind is float:
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(field, "must be finite")
    return value


class _Section:
    """One JSON object or list of the scenario, at its field path.

    :meth:`get` reads one key of an object as one kind, :meth:`items` every
    entry of a list; :meth:`close` refuses the keys no get asked for, so the
    reads themselves are the schema.
    """

    def __init__(self, doc, path: str = ""):
        self.doc, self.path, self._asked = doc, path, set()

    def field(self, key) -> str:
        if isinstance(key, int):
            return f"{self.path}[{key}]"
        return f"{self.path}.{key}" if self.path else key

    def get(self, key: str, kind, default=_REQUIRED):
        self._asked.add(key)
        if key not in self.doc:
            if default is _REQUIRED:
                raise ConfigError(self.field(key), "missing required key")
            return default
        return _read(self.doc[key], kind, self.field(key))

    def section(self, key: str, kind=dict, default=_REQUIRED) -> _Section:
        return _Section(self.get(key, kind, default), self.field(key))

    def items(self, kind, size: int | None = None) -> list:
        """Every entry of a list as kind, and exactly size of them if given;
        an entry read as a list or an object comes back as a _Section."""
        if size is not None and len(self.doc) != size:
            raise ConfigError(self.path, f"expected {size} entries, got {len(self.doc)}")
        values = [_read(value, kind, self.field(i)) for i, value in enumerate(self.doc)]
        if kind in (list, dict):
            return [_Section(value, self.field(i)) for i, value in enumerate(values)]
        return values

    def close(self) -> None:
        unknown = [key for key in self.doc if key not in self._asked]
        if unknown:
            raise ConfigError(self.field(unknown[0]), "unknown key")


def _scalar_table(section: _Section, key: str) -> PropertyTable:
    """section[key] as a bare number (a constant) or [[T, value], ...] rows."""
    try:
        if isinstance(section.doc.get(key), list):
            rows = section.section(key, list).items(list)
            return PropertyTable([row.items(float, 2) for row in rows])
        return PropertyTable.constant(section.get(key, float))
    except ValueError as exc:
        raise ConfigError(section.field(key), str(exc)) from None


def _load_material(entry: _Section) -> MaterialModel:
    density = _scalar_table(entry, "density")
    heat = _scalar_table(entry, "specific_heat")
    if isinstance(entry.doc.get("conductivity"), dict):
        tensor = entry.section("conductivity")
        components = {c: _scalar_table(tensor, c) for c in TENSOR_COMPONENTS if c in tensor.doc}
        tensor.close()
        try:
            cond = TensorPropertyTable(components)
        except ValueError as exc:
            raise ConfigError(tensor.path, str(exc)) from None
    else:
        cond = _scalar_table(entry, "conductivity")
    entry.close()
    try:
        return MaterialModel(density=density, specific_heat=heat, conductivity=cond)
    except (ValueError, FedbhtError) as exc:
        raise ConfigError("material", str(exc)) from None


def _load_perfusion(entry: _Section) -> PerfusionParams:
    values = {f.name: entry.get(f.name, float, f.default) for f in fields(PerfusionParams)}
    entry.close()
    try:
        return PerfusionParams(**values)
    except ValueError as exc:
        raise ConfigError("perfusion", str(exc)) from None


def _load_condition(entry: _Section, nodes, dirichlet, fluxes, films):
    kind = entry.get("kind", str)
    if kind == "dirichlet":
        dirichlet.append(DirichletBC(nodes=nodes, temperature=entry.get("temperature", float)))
    elif kind == "flux":
        fluxes.append(FluxBC(
            nodes=nodes,
            watts_per_node=entry.get("watts_per_node", float),
            schedulable=entry.get("schedulable", bool, True),
        ))
    elif kind == "film":
        films.append(FilmBC(
            nodes=nodes,
            coefficient=entry.get("coefficient", float),
            sink_temperature=entry.get("sink_temperature", float),
            area_per_node=entry.get("area_per_node", float, 1.0),
        ))
    else:
        raise ConfigError(entry.field("kind"), f"unknown condition kind {kind!r}")
    entry.close()


def _load_boundary(entry: _Section, node_sets: dict) -> BoundaryConditions:
    dirichlet, fluxes, films = [], [], []
    for set_name in entry.doc:
        if set_name not in node_sets:
            raise ConfigError(entry.field(set_name), "refers to an undeclared node set")
        if isinstance(entry.doc[set_name], list):
            conditions = entry.section(set_name, list).items(dict)
        else:
            conditions = [entry.section(set_name)]
        for condition in conditions:
            _load_condition(condition, node_sets[set_name], dirichlet, fluxes, films)
    return BoundaryConditions(
        dirichlet=tuple(dirichlet), fluxes=tuple(fluxes), films=tuple(films)
    )


def _load_deformation(entry: _Section, base_dir: str, n_nodes: int):
    kind = entry.get("kind", str, "identity")
    if kind == "identity":
        deformation = IdentityDeformation()
    elif kind == "affine":
        matrix = [row.items(float, 3) for row in entry.section("matrix", list).items(list, 3)]
        offset = entry.section("offset", list, [0.0, 0.0, 0.0]).items(float, 3)
        try:
            deformation = AffineDeformation(matrix=matrix, offset=offset)
        except FedbhtError as exc:
            raise ConfigError("deformation", str(exc)) from None
    elif kind == "trajectory":
        path = os.path.join(base_dir, entry.get("path", str))
        try:
            deformation = load_trajectory(path, n_nodes)
        except (OSError, FedbhtError) as exc:
            raise ConfigError("deformation.path", str(exc)) from None
    else:
        raise ConfigError("deformation.kind", f"unknown kind {kind!r}")
    entry.close()
    return deformation


def _load_schedule(entry: _Section) -> Schedule:
    events = []
    for event in entry.section("events", list, []).items(dict):
        action = event.get("action", str)
        if action not in SCHEDULE_ACTIONS:
            raise ConfigError(event.field("action"), f"unknown action {action!r}")
        events.append((event.get("time", float), action))
        event.close()
    try:
        schedule = Schedule(
            dt=entry.get("dt", float),
            total_time=entry.get("total_time", float),
            snapshot_times=tuple(entry.section("snapshot_times", list, []).items(float)),
            events=tuple(events),
        )
    except ValueError as exc:
        raise ConfigError("schedule", str(exc)) from None
    entry.close()
    return schedule


def load_scenario(path: str) -> ScenarioConfig:
    """Parse and validate a scenario file; raises ConfigError with the
    offending field path on any problem."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError("", f"cannot read scenario file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("", "scenario file must contain a JSON object")

    top = _Section(doc)
    base_dir = os.path.dirname(os.path.abspath(path))
    mesh_path = os.path.join(base_dir, top.get("mesh_path", str))
    try:
        mesh = parse_mesh(mesh_path)
        precomp = precompute(mesh)
    except (OSError, FedbhtError) as exc:
        raise ConfigError("mesh_path", str(exc)) from None

    sets = top.section("node_sets", dict, {})
    node_sets = {}
    for name in sets.doc:
        set_path = os.path.join(base_dir, sets.get(name, str))
        try:
            node_sets[name] = load_node_set(set_path, mesh.n_nodes)
        except (OSError, ValueError, FedbhtError) as exc:
            raise ConfigError(sets.field(name), str(exc)) from None

    material = _load_material(top.section("material"))
    perfusion = _load_perfusion(top.section("perfusion", dict, {}))
    boundary = _load_boundary(top.section("boundary", dict, {}), node_sets)
    deformation = _load_deformation(top.section("deformation", dict, {}), base_dir,
                                    mesh.n_nodes)
    schedule = _load_schedule(top.section("schedule"))

    try:
        variant = Variant.from_string(top.get("variant", str, "i"))
    except ValueError as exc:
        raise ConfigError("variant", str(exc)) from None
    refusal = variant.refusal(deformation, material)
    if refusal:
        raise ConfigError("variant", refusal)

    probes = top.section("probes", list, [])
    for i, node in enumerate(probes.items(int)):
        if not 0 <= node < mesh.n_nodes:
            raise ConfigError(probes.field(i), f"node index {node} out of range")

    output_dir = top.get("output_dir", str, "out")
    if not output_dir:
        raise ConfigError("output_dir", "expected a non-empty string")

    config = ScenarioConfig(
        mesh=mesh,
        precomp=precomp,
        material=material,
        perfusion=perfusion,
        boundary=boundary,
        deformation=deformation,
        schedule=schedule,
        variant=variant,
        initial_temperature=top.get("initial_temperature", float, 37.0),
        probes=tuple(probes.doc),
        update_thermal_mass=top.get("update_thermal_mass", (bool, type(None)), None),
        dt_override=top.get("dt_override", bool, False),
        output_dir=output_dir,
        raw=doc,
    )
    top.close()
    return config
