"""Microbenchmarks for the element kernels and whole-simulation scaling.

Kernel timings run every formulation variant over a single representative
tetrahedron, with a warmup phase and batched wall-clock sampling, and
report each variant's median time per call over the batches. The variants
take turns batch by batch, so a change of the machine's speed while the
benchmark runs lands on all of them alike instead of flipping the ordering
of two variants that cost the same. Every call's first load component is
folded into a checksum to make sure the work is real. Each closure keeps
the cache its formulation names in the paper's cost study (w B^T for ii,
the Gram matrix for iv); the operator runs ii and iv through the pullback
at rest instead, so these timings order the formulations, not the operator.

The scaling benchmark runs short transient simulations over a ladder of
block-mesh densities and fits thermal-phase seconds per step against
element count with a straight line. Each density is timed as its median
over rounds that visit every density in turn, so a slow spell of the host
does not bend the fit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import stability
from .blockmesh import BlockSceneParams, make_block_mesh, ramp_trajectory
from .deformation import inverse_and_det
from .errors import FedbhtError
from .integrator import BoundaryConditions, Schedule, build_thermal_state, run
from .kernels import ConductionOperator, Variant
from .material import (
    MaterialModel,
    PerfusionParams,
    PropertyTable,
    TensorPropertyTable,
)
from .mesh import Mesh, precompute

DEFAULT_REPS = 100_000
DEFAULT_BATCH = 1000
DEFAULT_WARMUP = 2000
# seed of the benchmark element's random displacement
FIXTURE_SEED = 7

# rounds of runs in the scaling benchmark; each density's cost is its
# median over the rounds. A run of the memoised pullback lasts only 10-40 ms,
# shorter than the spells in which a shared host runs slow, so it takes this
# many rounds for the median to settle
SCALING_RUNS = 25

# measured on the machine the cost model was calibrated on
REFERENCE_CLASSICAL_TO_DEFORMED_RATIO = 0.89

_RUN_ORDER = (
    Variant.CLASSICAL_ANISO_TEMP_INDEP,
    Variant.CLASSICAL_ISO_TEMP_INDEP,
    Variant.CLASSICAL_ISO_TEMP_DEP,
    Variant.CLASSICAL_ANISO_TEMP_DEP,
    Variant.DEFORMED_ANISO_TEMP_DEP,
)


@dataclass
class KernelTiming:
    variant: Variant
    reps: int
    batch: int
    # per call, the median over the interleaved batches: a batch slowed by
    # the host moves the mean of a ~2 us call but not the median
    median_seconds: float
    checksum: float


@dataclass
class SimulationScaling:
    densities: tuple
    element_counts: tuple
    per_step_seconds: tuple
    slope: float
    intercept: float
    r_squared: float


def _bench_fixture():
    """One mildly deformed 5 mm tetrahedron plus material tables."""
    scale = 0.005
    coords = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    ) * scale
    (tets,) = precompute(Mesh(nodes=coords, tets=[[0, 1, 2, 3]]))
    grads = tets.grads[0]
    volume = float(tets.weights[0])

    rng = np.random.default_rng(FIXTURE_SEED)
    disp = rng.uniform(-0.1, 0.1, size=(4, 3)) * scale
    temps = np.array([37.2, 38.5, 41.0, 39.3])

    tensor = TensorPropertyTable({
        "xx": [[37.0, 0.53], [65.0, 0.57]],
        "yy": [[37.0, 0.50], [65.0, 0.55]],
        "zz": [[37.0, 0.55], [65.0, 0.60]],
        "xy": [[37.0, 0.02]],
        "xz": [[37.0, 0.01]],
        "yz": [[37.0, 0.015]],
    })
    scalar = PropertyTable([[37.0, 0.53], [65.0, 0.57]])
    return grads, volume, disp, temps, tensor, scalar


def _build_closures() -> dict:
    grads, volume, disp, temps, tensor, scalar = _bench_fixture()
    identity = np.eye(3)
    d0 = tensor.evaluate(37.0)
    k0 = float(scalar.evaluate(37.0))
    vbt = volume * grads.T
    geo = volume * (grads.T @ grads)
    k_aniso = vbt @ d0 @ grads
    k_iso = k0 * geo

    def deformed_aniso_temp_dep():
        tbar = float(temps.mean())
        d = tensor.evaluate(tbar)
        f = identity + (grads @ disp).T
        inv, det = inverse_and_det(f)
        w = inv.T @ grads  # spatial gradients on the deformed element
        loads = (volume * det) * (w.T @ (d @ (w @ temps)))
        return loads[0]

    def classical_aniso_temp_dep():
        tbar = float(temps.mean())
        d = tensor.evaluate(tbar)
        loads = vbt @ (d @ (grads @ temps))
        return loads[0]

    def classical_aniso_temp_indep():
        loads = k_aniso @ temps
        return loads[0]

    def classical_iso_temp_dep():
        tbar = float(temps.mean())
        k = float(scalar.evaluate(tbar))
        loads = k * (geo @ temps)
        return loads[0]

    def classical_iso_temp_indep():
        loads = k_iso @ temps
        return loads[0]

    return {
        Variant.DEFORMED_ANISO_TEMP_DEP: deformed_aniso_temp_dep,
        Variant.CLASSICAL_ANISO_TEMP_DEP: classical_aniso_temp_dep,
        Variant.CLASSICAL_ANISO_TEMP_INDEP: classical_aniso_temp_indep,
        Variant.CLASSICAL_ISO_TEMP_DEP: classical_iso_temp_dep,
        Variant.CLASSICAL_ISO_TEMP_INDEP: classical_iso_temp_indep,
    }


def _time_batch(call, batch: int):
    checksum = 0.0
    start = time.perf_counter()
    for _ in range(batch):
        checksum += call()
    return time.perf_counter() - start, checksum


def bench_element_kernels(
    reps: int = DEFAULT_REPS,
    batch: int = DEFAULT_BATCH,
    warmup: int = DEFAULT_WARMUP,
) -> list[KernelTiming]:
    """Time one element-load evaluation per variant; returns timings in
    the declaration order of Variant (deformed variant first)."""
    if reps < 1 or batch < 1:
        raise ValueError("reps and batch must be positive")
    closures = _build_closures()
    calls = [closures[variant] for variant in _RUN_ORDER]
    for call in calls:
        for _ in range(warmup):
            call()
    n_batches = max(1, reps // batch)
    samples = np.empty((len(calls), n_batches))
    checksums = np.zeros(len(calls))
    # the variants take turns batch by batch, so a change of the host's
    # speed lands on all of them alike
    for bi in range(n_batches):
        for vi, call in enumerate(calls):
            samples[vi, bi], checksum = _time_batch(call, batch)
            checksums[vi] += checksum
    by = {variant: KernelTiming(variant, reps, batch, float(np.median(per_batch / batch)),
                                float(checksum))
          for variant, per_batch, checksum in zip(_RUN_ORDER, samples, checksums)}
    return [by[v] for v in Variant]


def timings_by_variant(timings) -> dict:
    return {t.variant: t for t in timings}


def kernel_report(timings) -> str:
    by = timings_by_variant(timings)
    lines = ["element kernel timings (median per call)"]
    for variant in Variant:
        lines.append(
            f"  {variant.roman:>3}  {variant.name.lower():<27}"
            f" {by[variant].median_seconds * 1e6:9.3f} us"
        )
    ratio = (
        by[Variant.CLASSICAL_ANISO_TEMP_DEP].median_seconds
        / by[Variant.DEFORMED_ANISO_TEMP_DEP].median_seconds
    )
    lines.append(
        f"  cached-classical to deformed ratio: {ratio:.3f}"
        f" (reference hardware: {REFERENCE_CLASSICAL_TO_DEFORMED_RATIO:.2f})"
    )
    return "\n".join(lines)


def write_kernel_csv(path, timings):
    """Per-variant median timings; ratio is relative to the deformed variant."""
    base = timings_by_variant(timings)[Variant.DEFORMED_ANISO_TEMP_DEP].median_seconds
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("variant,median_ms,ratio,reps,batch,checksum\n")
        for t in timings:
            fh.write(
                f"{t.variant.roman},{t.median_seconds * 1e3:.9e},"
                f"{t.median_seconds / base:.6f},{t.reps},{t.batch},{t.checksum:.9e}\n"
            )


def bench_simulation(
    densities=(6, 8, 10, 12),
    steps: int = 40,
    variant: Variant = Variant.DEFORMED_ANISO_TEMP_DEP,
) -> SimulationScaling:
    """Per-step thermal cost over a ladder of block meshes, with an
    affine fit against element count. Each density's cost is its median
    over SCALING_RUNS rounds."""
    if len(densities) < 2:
        raise ValueError("need at least two mesh densities to fit a line")
    material = MaterialModel(
        density=PropertyTable.constant(1060.0),
        specific_heat=PropertyTable.constant(3600.0),
        conductivity=PropertyTable.constant(0.53),
    )
    perfusion = PerfusionParams()
    bc = BoundaryConditions(dirichlet=(), fluxes=(), films=())

    scenes = []
    for n in densities:
        params = BlockSceneParams(nx=n, ny=n, nz=n)
        mesh = make_block_mesh(n, n, n, params.lengths)
        pre = precompute(mesh)
        operator = ConductionOperator(mesh, pre, material, variant)
        state = build_thermal_state(mesh, pre, material, perfusion, bc)
        estimate = stability.estimate_critical_dt(operator, state)
        dt = 0.4 * estimate.dt_critical
        schedule = Schedule(dt=dt, total_time=steps * dt, snapshot_times=(), events=())
        scenes.append((mesh, pre, ramp_trajectory(mesh, params), schedule))

    # rounds visit every density in turn, so a slow spell of the host lands
    # on all densities alike instead of bending the line at one of them
    per_run = np.empty((SCALING_RUNS, len(scenes)))
    for row in per_run:
        for i, (mesh, pre, provider, schedule) in enumerate(scenes):
            # dt is 0.4 of the critical step estimated above
            record = run(
                mesh, pre, material, perfusion, bc, provider, schedule, variant,
                update_thermal_mass=False, dt_override=True,
            )
            if record.outcome:  # a partial run is no timing
                raise FedbhtError(f"scaling run stopped: {record.outcome.message}")
            row[i] = record.timings["thermal"] / record.n_steps
    counts = [mesh.n_elements for mesh, *_ in scenes]
    per_step = np.median(per_run, axis=0)

    counts_arr = np.asarray(counts, dtype=float)
    per_step_arr = np.asarray(per_step)
    slope, intercept = np.polyfit(counts_arr, per_step_arr, 1)
    predicted = slope * counts_arr + intercept
    ss_res = float(np.sum((per_step_arr - predicted) ** 2))
    ss_tot = float(np.sum((per_step_arr - per_step_arr.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return SimulationScaling(
        densities=tuple(int(n) for n in densities),
        element_counts=tuple(int(c) for c in counts),
        per_step_seconds=tuple(float(v) for v in per_step),
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
    )


def scaling_report(scaling: SimulationScaling) -> str:
    lines = ["simulation scaling (thermal phase)"]
    for n, count, sec in zip(
        scaling.densities, scaling.element_counts, scaling.per_step_seconds
    ):
        lines.append(f"  {n:>3}^3 cells  {count:>8} elements  {sec * 1e3:9.4f} ms/step")
    lines.append(
        f"  affine fit: {scaling.slope * 1e6:.4f} us/element"
        f" + {scaling.intercept * 1e3:.4f} ms, R^2 = {scaling.r_squared:.5f}"
    )
    return "\n".join(lines)


def write_scaling_csv(path, scaling: SimulationScaling):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("density,elements,seconds_per_step\n")
        for n, count, sec in zip(
            scaling.densities, scaling.element_counts, scaling.per_step_seconds
        ):
            fh.write(f"{n},{count},{sec:.9e}\n")
        fh.write(f"# slope={scaling.slope:.9e} intercept={scaling.intercept:.9e}"
                 f" r_squared={scaling.r_squared:.6f}\n")
