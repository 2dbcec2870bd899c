"""Explicit transient integration of the bio-heat equation.

The semi-discrete balance at node i is

    C_i dT_i/dt = -Fhat_i - Kb_i T_i + Gb_i + Q_i + H_i

with C the lumped thermal mass, Fhat the conduction loads from
:mod:`fedbht.kernels`, Kb/Gb the perfusion and film exchange terms, Q the
metabolic sources and H the external heating. Forward Euler advances the
field; Dirichlet nodes are reset to their prescribed values after every
update, which takes priority over any exchange term on the same node. A
run stopped early (:data:`STOP_KINDS`) returns its record with an outcome.

Lumping distributes each element's rho*c*V equally to its nodes (row-sum
lumping, exact for linear tets). Perfusion uses the same equal split of
w_b*c_b*V; concentrated film conditions add coefficient*area directly to
the node they sit on.

The t = 0 mass is lumped from the uniform initial temperature T0, before
the Dirichlet values are applied, so each element carries rho(T0) c(T0) V;
a run that does not update the mass keeps that one. When the run updates
it, the conduction operator, the only lumping of a general field, lumps it
anew in every step from the element means of the same gather that feeds
the conduction loads (its ``mass`` output). The update then adds the
sources precombined once per heater state and allocates only the new field.
:func:`run` computes dt/C once when the mass is frozen, and again after
every operator call that updates the mass.
"""

from __future__ import annotations

import math
import time as _time
from collections import deque, namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import stability
from .deformation import IdentityDeformation
from .errors import (ConflictError, DivergenceError, SingularDeformationError,
                     StabilityError, TopologyError)
from .kernels import ConductionOperator, Variant
from .material import MaterialModel, PerfusionParams
from .mesh import ElementFamily, Mesh
from .stability import StabilityEstimate

# Fire events/snapshots whose time is within this of the current step time.
TIME_EPS = 1e-12

# the schedule event actions: switch the schedulable heaters on or off
SCHEDULE_ACTIONS = ("source_on", "source_off")

# the errors that stop a run, by the kind of Outcome each records; an Outcome
# also holds the step that failed and its start time, the message, and a
# divergence's first non-finite node and its last finite temperature
STOP_KINDS = {StabilityError: "refused", DivergenceError: "diverged",
              SingularDeformationError: "inverted"}
Outcome = namedtuple("Outcome", "kind step time message node last_finite")


@dataclass
class DirichletBC:
    nodes: np.ndarray
    temperature: float


@dataclass
class FluxBC:
    """Concentrated nodal heating in watts per node.

    schedulable entries respond to source_on/source_off schedule events;
    non-schedulable entries stay on for the whole run (metabolic-type
    loads).
    """

    nodes: np.ndarray
    watts_per_node: float
    schedulable: bool = True


@dataclass
class FilmBC:
    """Concentrated exchange q_i = coefficient * area * (sink - T_i)."""

    nodes: np.ndarray
    coefficient: float
    sink_temperature: float
    area_per_node: float = 1.0


@dataclass
class BoundaryConditions:
    dirichlet: list[DirichletBC] = field(default_factory=list)
    fluxes: list[FluxBC] = field(default_factory=list)
    films: list[FilmBC] = field(default_factory=list)


@dataclass
class Schedule:
    """Time stepping plan. Events are (time, action) with action one of
    SCHEDULE_ACTIONS.

    The run takes n_steps = ceil(total_time / dt) steps of dt from t = 0
    and ends at n_steps * dt. An event or snapshot at time t fires at the
    first step time at or after t, within TIME_EPS = 1e-12 s; a snapshot
    time after the end is dropped, and two snapshot times within one step
    give two snapshots of the same field. Probes record t = 0 and every
    step after it. :meth:`walk` is the one implementation of these rules.
    """

    dt: float
    total_time: float
    snapshot_times: tuple = ()
    events: tuple = ()

    def __post_init__(self):
        if not self.dt > 0:  # NaN fails too
            raise ValueError("dt must be positive")
        if not self.dt <= self.total_time < math.inf:
            raise ValueError("total_time must be finite and cover at least one step")
        self.snapshot_times = tuple(sorted(float(t) for t in self.snapshot_times))
        self.events = tuple(sorted((float(t), str(a)) for t, a in self.events))
        for _, action in self.events:
            if action not in SCHEDULE_ACTIONS:
                raise ValueError(f"unknown schedule action {action!r}")

    @property
    def n_steps(self) -> int:
        return int(math.ceil(self.total_time / self.dt - TIME_EPS))

    def walk(self):
        """Yield (n, t, source_on, snapshots_due) for n = 0 .. n_steps.

        t = n * dt. source_on is the heater state for the step from t, on
        until an event turns it off (a source_off at t = 0 acts on the
        first step), and snapshots_due lists the snapshot times that fire
        at t, to be taken from the field at t. The last item ends the run
        and takes no step.
        """
        pending = deque(sorted([(t, "snapshot") for t in self.snapshot_times]
                               + list(self.events)))
        source_on = True
        for n in range(self.n_steps + 1):
            t = n * self.dt
            due = []
            while pending and t >= pending[0][0] - TIME_EPS:
                when, action = pending.popleft()
                if action == "snapshot":
                    due.append(when)
                else:
                    source_on = action == "source_on"
            yield n, t, source_on, due


@dataclass
class ThermalState:
    """Per-node vectors of the discrete balance plus Dirichlet bookkeeping.

    Construction indexes the Dirichlet nodes and their values once, for the
    reset in :func:`step`, and allocates the update's scratch row.
    """

    T: np.ndarray
    lumped_mass: np.ndarray
    perfusion_diag: np.ndarray
    perfusion_source: np.ndarray
    metabolic: np.ndarray
    external_heat: np.ndarray
    dirichlet_mask: np.ndarray
    dirichlet_values: np.ndarray  # full length; zero where the mask is unset

    def __post_init__(self):
        self._dirichlet_nodes = np.flatnonzero(self.dirichlet_mask)
        self._dirichlet_fixed = self.dirichlet_values[self._dirichlet_nodes]
        self._work = np.empty(len(self.dirichlet_mask))

    def sources(self, source_on: bool = True) -> np.ndarray:
        """perfusion_source + metabolic + external_heat, added in that
        order; the external heating counts as zero with the heater off."""
        return self.perfusion_source + self.metabolic + (self.external_heat if source_on else 0.0)


@dataclass
class SimulationRecord:
    """Everything a run produced, in memory.

    A driver calls :meth:`capture` at every time of :meth:`Schedule.walk`
    and :meth:`finish` once at the end.
    """

    dt: float
    n_steps: int
    snapshot_times: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    probe_indices: tuple = ()
    probe_times: np.ndarray | None = None
    probe_values: np.ndarray | None = None
    timings: dict = field(default_factory=dict)
    final_temps: np.ndarray | None = None
    outcome: Outcome | None = None  # None when the run finished
    stability: StabilityEstimate | None = None  # None when run made no estimate
    n_elements: int = 0
    variant: Variant | None = None
    update_thermal_mass: bool | None = None  # as resolved by the driver

    def __post_init__(self):
        self.probe_indices = tuple(int(p) for p in self.probe_indices)
        self._probe_index = np.array(self.probe_indices, dtype=np.intp)
        self._probe_rows = []

    def capture(self, t: float, temps: np.ndarray, snapshots_due):
        """Record the field at step time t: one snapshot per due snapshot
        time, and the probe row."""
        for _ in snapshots_due:
            self.snapshot_times.append(t)
            self.snapshots.append(temps.copy())
        if self.probe_indices:
            self._probe_rows.append(temps[self._probe_index])

    @property
    def diverged(self) -> bool:
        return self.outcome is not None and self.outcome.kind == "diverged"

    @property
    def divergence_step(self) -> int | None:
        return self.outcome.step if self.diverged else None

    def finish(self, temps: np.ndarray):
        """Store the last field and the probe history captured so far."""
        self.final_temps = temps.copy()
        if self.probe_indices:
            self.probe_values = np.array(self._probe_rows)
            self.probe_times = np.arange(len(self._probe_rows)) * self.dt
            # freed so that the output writers reuse their memory: kept,
            # they raise the peak RSS of a 2000-step run with 64 probes
            self._probe_rows.clear()


def resolve_update_thermal_mass(material: MaterialModel,
                                update_thermal_mass: bool | None) -> bool:
    """The thermal-mass update as requested, or, for None, on exactly when
    density or specific heat varies with temperature."""
    if update_thermal_mass is None:
        return not (material.density.is_constant and material.specific_heat.is_constant)
    return update_thermal_mass


def node_volumes(mesh: Mesh, families: tuple[ElementFamily, ...]) -> np.ndarray:
    """Equal-split nodal volumes: tet V/4 per node, hex 8 det(J0)/8."""
    return _equal_split(mesh, families, 1.0)


def _equal_split(mesh: Mesh, families: tuple, factor: float) -> np.ndarray:
    """Nodal sums of factor times each element's weight, shared equally
    among the element's nodes."""
    out = np.zeros(mesh.n_nodes)
    for family in families:
        npe = family.conn.shape[1]
        share = np.repeat((factor * family.weights) / npe, npe)
        out += np.bincount(family.conn.ravel(), weights=share, minlength=mesh.n_nodes)
    return out


def build_thermal_state(
    mesh: Mesh,
    families: tuple[ElementFamily, ...],
    material: MaterialModel,
    perfusion: PerfusionParams,
    bc: BoundaryConditions,
    initial_temperature: float = 37.0,
) -> ThermalState:
    """Assemble the per-node vectors of the discrete balance on the
    production lumping: :func:`thermal_state_from_volumes` on
    :func:`node_volumes` and the t = 0 mass, rho(T0) c(T0) w split equally,
    since every element mean of the uniform initial field T0 is T0.
    """
    t0 = float(initial_temperature)
    rho_c = material.density.evaluate(t0) * material.specific_heat.evaluate(t0)
    return thermal_state_from_volumes(
        node_volumes(mesh, families), _equal_split(mesh, families, rho_c),
        perfusion, bc, initial_temperature,
    )


def thermal_state_from_volumes(
    vols: np.ndarray,
    mass: np.ndarray,
    perfusion: PerfusionParams,
    bc: BoundaryConditions,
    initial_temperature: float = 37.0,
) -> ThermalState:
    """The per-node vectors of the discrete balance from nodal volumes and
    the t = 0 thermal mass, which the caller lumps: perfusion and Q_met on
    the volumes, then the Dirichlet, flux and film bookkeeping.

    Raises ConflictError when a node is both Dirichlet and flux-loaded, and
    TopologyError when a node has zero thermal mass (referenced by no
    element).
    """
    if np.any(mass <= 0.0):
        node = int(np.argmax(mass <= 0.0))
        raise TopologyError(
            f"node {node} has zero thermal mass (not referenced by any element)"
        )

    n = len(vols)
    temps = np.full(n, float(initial_temperature))
    diag = perfusion.w_b * perfusion.c_b * vols
    source = diag * perfusion.T_a
    metabolic = perfusion.Q_met * vols
    external = np.zeros(n)

    dirichlet_mask = np.zeros(n, dtype=bool)
    dirichlet_values = np.zeros(n)
    for entry in bc.dirichlet:
        idx = np.asarray(entry.nodes, dtype=np.intp)
        clash = dirichlet_mask[idx] & (dirichlet_values[idx] != entry.temperature)
        if np.any(clash):
            node = int(idx[np.argmax(clash)])
            raise ConflictError(
                f"node {node} prescribed two different Dirichlet temperatures"
            )
        dirichlet_mask[idx] = True
        dirichlet_values[idx] = entry.temperature

    flux_nodes = np.zeros(n, dtype=bool)
    for entry in bc.fluxes:
        idx = np.asarray(entry.nodes, dtype=np.intp)
        flux_nodes[idx] = True
        if entry.schedulable:
            external[idx] += entry.watts_per_node
        else:
            metabolic[idx] += entry.watts_per_node

    overlap = dirichlet_mask & flux_nodes
    if np.any(overlap):
        node = int(np.argmax(overlap))
        raise ConflictError(f"node {node} is both Dirichlet and flux-loaded")

    for entry in bc.films:
        idx = np.asarray(entry.nodes, dtype=np.intp)
        exchange = entry.coefficient * entry.area_per_node
        diag[idx] += exchange
        source[idx] += exchange * entry.sink_temperature

    temps[dirichlet_mask] = dirichlet_values[dirichlet_mask]

    return ThermalState(
        T=temps,
        lumped_mass=mass,
        perfusion_diag=diag,
        perfusion_source=source,
        metabolic=metabolic,
        external_heat=external,
        dirichlet_mask=dirichlet_mask,
        dirichlet_values=dirichlet_values,
    )


def step(state: ThermalState, loads: np.ndarray, dt_over_mass: np.ndarray,
         sources: np.ndarray, step_index: int = 0, time: float | None = None) -> np.ndarray:
    """One forward-Euler update; returns the new temperature vector, the
    only array it allocates.

    dt_over_mass is dt / C and sources is ``state.sources(on)``, as the
    caller holds them. The conduction loads enter with a minus sign
    (dissipative). Dirichlet nodes are reset after the update and therefore
    win over any exchange term. Raises DivergenceError on non-finite
    output, naming its first non-finite node.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        # T + (dt / C) * ((sources - loads) - Kb T), rounded as written
        t_new = np.multiply(state.perfusion_diag, state.T)
        np.subtract(np.subtract(sources, loads, out=state._work), t_new, out=t_new)
        t_new *= dt_over_mass
        t_new += state.T
    t_new[state._dirichlet_nodes] = state._dirichlet_fixed
    if not np.isfinite(t_new).all():
        node = int(np.argmin(np.isfinite(t_new)))
        when = "" if time is None else f" (t = {time:.6g} s)"
        raise DivergenceError(
            f"non-finite temperature at step {step_index}{when}: node {node}, "
            f"last finite temperature {state.T[node]:.6g}", node, float(state.T[node]))
    return t_new


def run(
    mesh: Mesh,
    families: tuple[ElementFamily, ...],
    material: MaterialModel,
    perfusion: PerfusionParams,
    bc: BoundaryConditions,
    provider,
    schedule: Schedule,
    variant: Variant,
    initial_temperature: float = 37.0,
    probes=(),
    update_thermal_mass: bool | None = None,
    dt_override: bool = False,
) -> SimulationRecord:
    """Drive the explicit transient and collect snapshots and probes.

    Unless dt_override is set (from a scenario, its ``dt_override`` key),
    the Lanczos critical step is estimated at t = 0, kept as
    ``record.stability`` and judged by :func:`stability.guard_time_step`. The record is returned also when
    one of STOP_KINDS stops the run: ``record.outcome`` then says how,
    where and why, and a mid-run stop keeps the last good field as a
    snapshot.
    """
    state = build_thermal_state(mesh, families, material, perfusion, bc, initial_temperature)
    operator = ConductionOperator(
        mesh, families, material, variant, reference_temperature=initial_temperature,
    )
    if provider is None:
        provider = IdentityDeformation()

    timings = {"stability": 0.0, "deformation": 0.0, "thermal": 0.0,
               "conduction": 0.0, "bookkeeping": 0.0}
    moving = variant.uses_deformation and provider.time_varying
    deformation = None
    if variant.uses_deformation:
        t0 = _time.perf_counter()
        deformation = provider.displacements_at(0.0, mesh)
        timings["deformation"] += _time.perf_counter() - t0
    update_thermal_mass = resolve_update_thermal_mass(material, update_thermal_mass)
    record = SimulationRecord(
        dt=schedule.dt,
        n_steps=schedule.n_steps,
        probe_indices=probes,
        timings=timings,
        n_elements=mesh.n_elements,
        variant=variant,
        update_thermal_mass=update_thermal_mass,
    )

    sources = {on: state.sources(on) for on in (False, True)}
    mass = state.lumped_mass if update_thermal_mass else None  # updated by the operator
    dt_over_mass = np.divide(schedule.dt, state.lumped_mass)  # redivided after each update

    n, t_now = 0, 0.0  # where a stop before the first step is recorded
    try:
        if not dt_override:
            t0 = _time.perf_counter()
            record.stability = stability.estimate_critical_dt(operator, state, deformation)
            timings["stability"] = _time.perf_counter() - t0
            stability.guard_time_step(schedule.dt, record.stability)
        for n, t_now, source_on, snapshots_due in schedule.walk():
            t0 = _time.perf_counter()
            record.capture(t_now, state.T, snapshots_due)
            timings["bookkeeping"] += _time.perf_counter() - t0
            if n == record.n_steps:
                break

            if moving and n:  # the field at t = 0 was fetched above
                t0 = _time.perf_counter()
                deformation = provider.displacements_at(t_now, mesh)
                timings["deformation"] += _time.perf_counter() - t0

            t0 = _time.perf_counter()
            loads = operator.apply(state.T, deformation=deformation, mass=mass)
            timings["conduction"] += _time.perf_counter() - t0
            if mass is not None:
                np.divide(schedule.dt, mass, out=dt_over_mass)
            state.T = step(state, loads, dt_over_mass, sources[source_on], step_index=n,
                           time=t_now)
            timings["thermal"] += _time.perf_counter() - t0
    except tuple(STOP_KINDS) as err:
        kind = STOP_KINDS[type(err)]
        where = f" at step {n} (t = {t_now:g} s)" if kind == "inverted" else ""  # apply knows no step
        record.outcome = Outcome(kind, n, t_now, f"{err}{where}", getattr(err, "node", None),
                                 getattr(err, "last_finite", None))
        if kind != "refused":
            record.snapshot_times.append(t_now)
            record.snapshots.append(state.T.copy())  # the last good field
    record.finish(state.T)
    return record
