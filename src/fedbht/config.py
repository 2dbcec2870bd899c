"""Scenario files: one JSON document describing a complete simulation.

Relative paths inside the file (mesh, node sets, trajectory) resolve
against the directory containing the scenario file itself, so a scenario
directory can be moved or archived as a unit.

Top-level keys:

    mesh_path            required, mesh file
    node_sets            {name: path} of node index files
    material             {density, specific_heat, conductivity}
                         each scalar table is [[T, value], ...];
                         conductivity may instead be a tensor table
                         {"xx": [[T, v], ...], "yy": ..., ...}
    perfusion            {w_b, c_b, T_a, Q_met}
    initial_temperature  default 37
    boundary             {set_name: condition | [condition, ...]}
                         condition kinds: dirichlet {temperature},
                         flux {watts_per_node, schedulable},
                         film {coefficient, sink_temperature, area_per_node}
    deformation          {"kind": "identity"} |
                         {"kind": "affine", "matrix": 3x3, "offset": [3]} |
                         {"kind": "trajectory", "path": ...}
    schedule             {dt, total_time, snapshot_times, events,
                          initial_source_on}
    variant              formulation name or roman numeral, default "i"
    probes               node indices sampled every step
    update_thermal_mass  bool or null (auto: on when tables vary)
    dt_override          run even when dt exceeds the stability estimate
    output_dir           default directory for snapshots and the manifest
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .deformation import (
    AffineDeformation,
    IdentityDeformation,
    TrajectoryDeformation,
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
    MaterialModel,
    PerfusionParams,
    PropertyTable,
    TensorPropertyTable,
)
from .mesh import ElementPrecomp, Mesh, load_node_set, parse_mesh, precompute


@dataclass
class ScenarioConfig:
    """A validated scenario. precomp is the mesh's reference precompute,
    made once while loading (it is also the check that rejects inverted
    elements) and shared by everything that runs the scenario."""

    mesh: Mesh
    precomp: ElementPrecomp
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


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required key")
    return doc[key]


def _as_float(value, path: str) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigError(path, f"expected a number, got {value!r}") from None
    if not np.isfinite(out):
        raise ConfigError(path, "must be finite")
    return out


def _finite_array(value, shape: tuple, path: str, what: str) -> np.ndarray:
    try:
        out = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(path, f"expected {what} of numbers") from None
    if out.shape != shape:
        raise ConfigError(path, f"expected {what}")
    if not np.all(np.isfinite(out)):
        raise ConfigError(path, "must be finite")
    return out


def _as_bool(value, path: str) -> bool:
    # bool("false") is True: accept JSON true/false only
    if not isinstance(value, bool):
        raise ConfigError(path, f"expected true or false, got {value!r}")
    return value


def _scalar_table(entry, path: str) -> PropertyTable:
    # JSON true is a Python int: only a real number is a constant table
    number = isinstance(entry, (int, float)) and not isinstance(entry, bool)
    if not number and (not isinstance(entry, list) or not entry):
        raise ConfigError(path, "expected a number or [[T, value], ...] list")
    rows = []
    for i, row in enumerate([] if number else entry):
        if not isinstance(row, list) or len(row) != 2:
            raise ConfigError(f"{path}[{i}]", "expected a [T, value] pair")
        rows.append((_as_float(row[0], f"{path}[{i}][0]"),
                     _as_float(row[1], f"{path}[{i}][1]")))
    try:
        return PropertyTable.constant(entry) if number else PropertyTable(rows)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _conductivity_table(entry, path: str):
    if isinstance(entry, dict):
        components = {}
        for comp, rows in entry.items():
            components[comp] = _scalar_table(rows, f"{path}.{comp}")
        try:
            return TensorPropertyTable(components)
        except (ValueError, KeyError) as exc:
            raise ConfigError(path, str(exc)) from None
    return _scalar_table(entry, path)


def _load_material(doc: dict) -> MaterialModel:
    entry = _require(doc, "material", "")
    if not isinstance(entry, dict):
        raise ConfigError("material", "expected an object")
    density = _scalar_table(_require(entry, "density", "material"), "material.density")
    heat = _scalar_table(
        _require(entry, "specific_heat", "material"), "material.specific_heat"
    )
    cond = _conductivity_table(
        _require(entry, "conductivity", "material"), "material.conductivity"
    )
    try:
        return MaterialModel(density=density, specific_heat=heat, conductivity=cond)
    except Exception as exc:
        raise ConfigError("material", str(exc)) from None


def _load_perfusion(doc: dict) -> PerfusionParams:
    entry = doc.get("perfusion", {})
    if not isinstance(entry, dict):
        raise ConfigError("perfusion", "expected an object")
    try:
        return PerfusionParams(
            w_b=_as_float(entry.get("w_b", 0.0), "perfusion.w_b"),
            c_b=_as_float(entry.get("c_b", 3617.0), "perfusion.c_b"),
            T_a=_as_float(entry.get("T_a", 37.0), "perfusion.T_a"),
            Q_met=_as_float(entry.get("Q_met", 0.0), "perfusion.Q_met"),
        )
    except ValueError as exc:
        raise ConfigError("perfusion", str(exc)) from None


def _load_condition(entry, nodes, path: str, dirichlet, fluxes, films):
    if not isinstance(entry, dict):
        raise ConfigError(path, "expected a condition object")
    kind = entry.get("kind")
    if kind == "dirichlet":
        dirichlet.append(DirichletBC(
            nodes=nodes,
            temperature=_as_float(
                _require(entry, "temperature", path), f"{path}.temperature"
            ),
        ))
    elif kind == "flux":
        fluxes.append(FluxBC(
            nodes=nodes,
            watts_per_node=_as_float(
                _require(entry, "watts_per_node", path), f"{path}.watts_per_node"
            ),
            schedulable=_as_bool(entry.get("schedulable", True), f"{path}.schedulable"),
        ))
    elif kind == "film":
        films.append(FilmBC(
            nodes=nodes,
            coefficient=_as_float(
                _require(entry, "coefficient", path), f"{path}.coefficient"
            ),
            sink_temperature=_as_float(
                _require(entry, "sink_temperature", path), f"{path}.sink_temperature"
            ),
            area_per_node=_as_float(
                entry.get("area_per_node", 1.0), f"{path}.area_per_node"
            ),
        ))
    else:
        raise ConfigError(
            f"{path}.kind", f"unknown condition kind {kind!r}"
        )


def _load_boundary(doc: dict, node_sets: dict) -> BoundaryConditions:
    entry = doc.get("boundary", {})
    if not isinstance(entry, dict):
        raise ConfigError("boundary", "expected an object keyed by node set name")
    dirichlet, fluxes, films = [], [], []
    for set_name, condition in entry.items():
        path = f"boundary.{set_name}"
        if set_name not in node_sets:
            raise ConfigError(path, "refers to an undeclared node set")
        nodes = node_sets[set_name]
        items = condition if isinstance(condition, list) else [condition]
        for i, item in enumerate(items):
            sub = f"{path}[{i}]" if isinstance(condition, list) else path
            _load_condition(item, nodes, sub, dirichlet, fluxes, films)
    return BoundaryConditions(
        dirichlet=tuple(dirichlet), fluxes=tuple(fluxes), films=tuple(films)
    )


def _load_deformation(doc: dict, base_dir: str, n_nodes: int):
    entry = doc.get("deformation", {"kind": "identity"})
    if not isinstance(entry, dict):
        raise ConfigError("deformation", "expected an object")
    kind = entry.get("kind", "identity")
    if kind == "identity":
        return IdentityDeformation()
    if kind == "affine":
        matrix = _finite_array(_require(entry, "matrix", "deformation"), (3, 3),
                               "deformation.matrix", "a 3x3 matrix")
        offset = _finite_array(entry.get("offset", [0.0, 0.0, 0.0]), (3,),
                               "deformation.offset", "a length-3 vector")
        try:
            return AffineDeformation(matrix=matrix, offset=offset)
        except Exception as exc:
            raise ConfigError("deformation", str(exc)) from None
    if kind == "trajectory":
        rel = _require(entry, "path", "deformation")
        path = os.path.join(base_dir, rel)
        try:
            return load_trajectory(path, n_nodes)
        except (OSError, FedbhtError) as exc:
            raise ConfigError("deformation.path", str(exc)) from None
    raise ConfigError("deformation.kind", f"unknown kind {kind!r}")


def _load_schedule(doc: dict) -> Schedule:
    entry = _require(doc, "schedule", "")
    if not isinstance(entry, dict):
        raise ConfigError("schedule", "expected an object")
    events = []
    for i, ev in enumerate(entry.get("events", [])):
        if not isinstance(ev, dict):
            raise ConfigError(f"schedule.events[{i}]", "expected an object")
        action = ev.get("action")
        if action not in SCHEDULE_ACTIONS:
            raise ConfigError(
                f"schedule.events[{i}].action", f"unknown action {action!r}"
            )
        events.append((
            _as_float(_require(ev, "time", f"schedule.events[{i}]"),
                      f"schedule.events[{i}].time"),
            action,
        ))
    try:
        return Schedule(
            dt=_as_float(_require(entry, "dt", "schedule"), "schedule.dt"),
            total_time=_as_float(
                _require(entry, "total_time", "schedule"), "schedule.total_time"
            ),
            snapshot_times=tuple(
                _as_float(t, f"schedule.snapshot_times[{i}]")
                for i, t in enumerate(entry.get("snapshot_times", []))
            ),
            events=tuple(events),
            initial_source_on=_as_bool(
                entry.get("initial_source_on", True), "schedule.initial_source_on"
            ),
        )
    except ValueError as exc:
        raise ConfigError("schedule", str(exc)) from None


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

    base_dir = os.path.dirname(os.path.abspath(path))
    mesh_rel = _require(doc, "mesh_path", "")
    try:
        mesh = parse_mesh(os.path.join(base_dir, mesh_rel))
        precomp = precompute(mesh)
    except (OSError, FedbhtError) as exc:
        raise ConfigError("mesh_path", str(exc)) from None

    node_sets = {}
    sets_entry = doc.get("node_sets", {})
    if not isinstance(sets_entry, dict):
        raise ConfigError("node_sets", "expected an object of name -> path")
    for name, rel in sets_entry.items():
        try:
            node_sets[name] = load_node_set(os.path.join(base_dir, rel), mesh.n_nodes)
        except (OSError, ValueError, FedbhtError) as exc:
            raise ConfigError(f"node_sets.{name}", str(exc)) from None

    material = _load_material(doc)
    perfusion = _load_perfusion(doc)
    boundary = _load_boundary(doc, node_sets)
    deformation = _load_deformation(doc, base_dir, mesh.n_nodes)
    schedule = _load_schedule(doc)

    variant_name = doc.get("variant", "i")
    try:
        variant = Variant.from_string(str(variant_name))
    except ValueError as exc:
        raise ConfigError("variant", str(exc)) from None

    probes = []
    for i, p in enumerate(doc.get("probes", [])):
        if not isinstance(p, int) or isinstance(p, bool):
            raise ConfigError(f"probes[{i}]", "expected an integer node index")
        if not 0 <= p < mesh.n_nodes:
            raise ConfigError(f"probes[{i}]", f"node index {p} out of range")
        probes.append(p)

    utm = doc.get("update_thermal_mass", None)
    if utm is not None:
        utm = _as_bool(utm, "update_thermal_mass")

    initial = _as_float(doc.get("initial_temperature", 37.0), "initial_temperature")
    output_dir = doc.get("output_dir", "out")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output_dir", "expected a non-empty string")

    return ScenarioConfig(
        mesh=mesh,
        precomp=precomp,
        material=material,
        perfusion=perfusion,
        boundary=boundary,
        deformation=deformation,
        schedule=schedule,
        variant=variant,
        initial_temperature=initial,
        probes=tuple(probes),
        update_thermal_mass=utm,
        dt_override=_as_bool(doc.get("dt_override", False), "dt_override"),
        output_dir=output_dir,
        raw=doc,
    )
