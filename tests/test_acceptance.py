"""End-to-end acceptance gates.

Each test prints exactly one [acceptance] PASS/FAIL verdict on the real
stdout (bypassing capture) so the gate results stay visible in any run.
The timing budgets are generous on purpose; they catch order-of-magnitude
regressions, not scheduler jitter.
"""

import time

import numpy as np
import pytest

from fedbht.blockmesh import BlockSceneParams, write_desk_scenario
from fedbht.bench import (
    REFERENCE_CLASSICAL_TO_DEFORMED_RATIO,
    bench_element_kernels,
    bench_simulation,
    timings_by_variant,
)
from fedbht.config import load_scenario
from fedbht.deformation import DeformationState, IdentityDeformation
from fedbht.errors import DivergenceError
from fedbht.integrator import (
    BoundaryConditions,
    FilmBC,
    PerfusionParams,
    Schedule,
    build_thermal_state,
    run,
    step,
)
from fedbht.kernels import ConductionOperator, Variant
from fedbht.metrics import compare_snapshots
from fedbht.mesh import precompute
from fedbht.oracle import (
    OracleAssembler,
    brute_force_element_load,
    dense_lambda_max,
    reference_transient,
)
from fedbht.stability import estimate_critical_dt

from conftest import make_material, random_tet_mesh

NO_BC = BoundaryConditions(dirichlet=(), fluxes=(), films=())
NO_PERFUSION = PerfusionParams()


@pytest.fixture
def verdict(capsys):
    """One visible PASS/FAIL line per gate, bypassing output capture."""

    def announce(label: str, ok: bool, detail: str = "") -> None:
        line = f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return announce


def rel_gap(candidate: np.ndarray, reference: np.ndarray) -> float:
    scale = float(np.abs(reference).max())
    if scale == 0.0:
        return float(np.abs(candidate).max())
    return float(np.abs(candidate - reference).max() / scale)


def test_pullback_matches_assembled_reference_on_deformed_geometry(verdict):
    """Five affinely mapped meshes plus a random displacement field: the
    matrix-free pullback loads must agree with a stiffness assembled
    directly on the displaced coordinates."""
    t0 = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(101)
    mat = make_material(k=0.52)
    for trial in range(5):
        mesh = random_tet_mesh(n_cells=2, seed=200 + trial, jitter=0.2,
                               lengths=(0.05,) * 3)
        pre = precompute(mesh)
        while True:
            a = np.eye(3) + 0.25 * rng.uniform(-1.0, 1.0, size=(3, 3))
            if np.linalg.det(a) > 0.3:
                break
        disp = mesh.nodes @ a.T - mesh.nodes
        temps = 37.0 + 3.0 * rng.random(mesh.n_nodes)
        op = ConductionOperator(mesh, pre, mat, Variant.DEFORMED_ANISO_TEMP_DEP)
        loads = op.apply(temps, deformation=DeformationState(disp))
        k = OracleAssembler(mesh, mat).stiffness(coords=mesh.nodes + disp)
        worst = max(worst, rel_gap(loads, k @ temps))

    mesh = random_tet_mesh(n_cells=3, seed=300, jitter=0.15, lengths=(0.05,) * 3)
    pre = precompute(mesh)
    disp = 0.002 * rng.normal(size=(mesh.n_nodes, 3))
    temps = 37.0 + 3.0 * rng.random(mesh.n_nodes)
    op = ConductionOperator(mesh, pre, mat, Variant.DEFORMED_ANISO_TEMP_DEP)
    loads = op.apply(temps, deformation=DeformationState(disp))
    k = OracleAssembler(mesh, mat).stiffness(coords=mesh.nodes + disp)
    worst = max(worst, rel_gap(loads, k @ temps))

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    verdict("deformed-geometry pullback vs assembled reference", ok,
             f"worst relative gap {worst:.2e} <= 1e-10, {elapsed:.1f} s")


def test_variants_agree_for_constant_isotropic_conductivity(verdict):
    """With a constant isotropic conductivity and resting geometry all five
    formulation variants are the same operator."""
    t0 = time.perf_counter()
    mesh = random_tet_mesh(n_cells=3, seed=11, jitter=0.2)
    pre = precompute(mesh)
    mat = make_material(k=0.49)
    rng = np.random.default_rng(7)
    temps = 37.0 + 4.0 * rng.random(mesh.n_nodes)

    reference = None
    worst = 0.0
    for variant in Variant:
        op = ConductionOperator(mesh, pre, mat, variant)
        loads = op.apply(temps)
        if reference is None:
            reference = loads
        else:
            worst = max(worst, rel_gap(loads, reference))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    verdict("five-variant coherence on constant isotropic tissue", ok,
             f"worst spread {worst:.2e} <= 1e-12, {elapsed:.2f} s")


def test_bundled_scenario_matches_implicit_reference_within_tolerance(verdict, tmp_path):
    """The bundled heated-and-compressed block: explicit production run
    against the assembled backward-Euler reference at every snapshot."""
    t0 = time.perf_counter()
    scenario = write_desk_scenario(tmp_path, BlockSceneParams())
    cfg = load_scenario(scenario)
    pre = precompute(cfg.mesh)
    record = run(cfg.mesh, pre, cfg.material, cfg.perfusion, cfg.boundary,
                 cfg.deformation, cfg.schedule, cfg.variant,
                 initial_temperature=cfg.initial_temperature,
                 probes=cfg.probes,
                 update_thermal_mass=cfg.update_thermal_mass)
    reference = reference_transient(cfg.mesh, cfg.material, cfg.perfusion,
                                    cfg.boundary, cfg.deformation, cfg.schedule,
                                    scheme="backward",
                                    initial_temperature=cfg.initial_temperature,
                                    update_thermal_mass=cfg.update_thermal_mass)
    report = compare_snapshots(record.snapshot_times, record.snapshots,
                               reference.snapshots)
    elapsed = time.perf_counter() - t0
    ok = (len(report.comparisons) == 4
          and report.worst_normalized <= 1e-3
          and report.worst_total <= 5e-4
          and elapsed < 300.0)
    verdict("bundled scenario vs implicit reference", ok,
             f"max node error {report.worst_normalized:.2e} <= 1e-3, "
             f"total {report.worst_total:.2e} <= 5e-4, {elapsed:.0f} s")


def test_spectral_estimate_matches_dense_and_brackets_stability(verdict):
    """The Lanczos estimate agrees with a dense eigensolve within 1 percent and
    the estimated critical step separates bounded from divergent runs."""
    t0 = time.perf_counter()
    mesh = random_tet_mesh(n_cells=4, seed=31, jitter=0.15, lengths=(0.04,) * 3)
    pre = precompute(mesh)
    mat = make_material(k=0.53)
    perf = PerfusionParams(w_b=0.5, c_b=3617.0, T_a=37.0)
    from fedbht.integrator import DirichletBC

    bc = BoundaryConditions(
        dirichlet=(DirichletBC(nodes=np.array([0, 7, 19], dtype=np.intp),
                               temperature=37.0),),
        fluxes=(), films=())
    state = build_thermal_state(mesh, pre, mat, perf, bc, 37.0)
    op = ConductionOperator(mesh, pre, mat, Variant.CLASSICAL_ISO_TEMP_INDEP)

    est = estimate_critical_dt(op, state, tol=1e-9)
    k = OracleAssembler(mesh, mat).stiffness()
    lam_dense = dense_lambda_max(k, state.lumped_mass, state.perfusion_diag,
                                 dirichlet_mask=state.dirichlet_mask)
    spectral_gap = abs(est.lambda_max - lam_dense) / lam_dense

    # the stress test itself is pure conduction: no sinks to lean on
    pure = build_thermal_state(mesh, pre, mat, NO_PERFUSION, NO_BC, 37.0)
    est_pure = estimate_critical_dt(op, pure, tol=1e-9)
    rng = np.random.default_rng(5)
    initial = 36.0 + 6.0 * rng.random(mesh.n_nodes)

    initial_amplitude = float(np.abs(initial).max())

    def march(dt, n_steps):
        """Returns (steps survived, peak amplitude); stops on non-finite
        values or a tenfold amplitude growth."""
        state_run = build_thermal_state(mesh, pre, mat, NO_PERFUSION, NO_BC, 37.0)
        state_run.T = initial.copy()
        peak = initial_amplitude
        dt_over_mass, sources = dt / state_run.lumped_mass, state_run.sources()
        for n in range(n_steps):
            loads = op.apply(state_run.T)
            try:
                state_run.T = step(state_run, loads, dt_over_mass, sources, step_index=n)
            except DivergenceError:
                return n, np.inf
            peak = max(peak, float(np.abs(state_run.T).max()))
            if peak > 10.0 * initial_amplitude:
                return n, peak
        return n_steps, peak

    survived, peak = march(0.5 * est_pure.dt_critical, 10_000)
    bounded = survived == 10_000 and peak <= initial_amplitude + 1e-6

    diverged_at, _ = march(4.0 * est_pure.dt_critical, 10_000)
    diverged = diverged_at < 10_000

    elapsed = time.perf_counter() - t0
    ok = (est.converged and spectral_gap <= 0.01 and bounded and diverged
          and elapsed < 120.0)
    verdict("spectral bound vs dense solve and stability bracket", ok,
             f"rel gap {spectral_gap:.2e} <= 1e-2, bounded for 10000 steps "
             f"at dt_cr/2, diverged at 4 dt_cr after {diverged_at} steps, "
             f"{elapsed:.0f} s")


def test_kernel_invariants_hold(verdict):
    """Conservation, positive semidefiniteness, frame indifference, exact
    volumetric-scaling response, equilibrium preservation, a discrete
    maximum principle, the table-evaluation contract, reduced-integration
    exactness and bitwise determinism."""
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(77)

    mesh = random_tet_mesh(n_cells=3, seed=41, jitter=0.2)
    pre = precompute(mesh)
    mat = make_material(k=0.5)
    temps = 37.0 + 5.0 * rng.random(mesh.n_nodes)
    scale = float(np.abs(temps).max())

    uniform = np.full(mesh.n_nodes, 37.0)
    probe_a = rng.normal(size=mesh.n_nodes)
    probe_b = rng.normal(size=mesh.n_nodes)
    for variant in Variant:
        op = ConductionOperator(mesh, pre, mat, variant)
        loads = op.apply(temps)
        if abs(loads.sum()) > 1e-12 * scale:
            failures.append(f"{variant.roman} load sum {loads.sum():.1e}")
        if temps @ loads < -1e-12 * scale:
            failures.append(f"{variant.roman} not PSD")
        if np.abs(op.apply(uniform)).max() > 1e-12:
            failures.append(f"{variant.roman} nonzero loads on a uniform field")
        # symmetry of the linearized operator (properties frozen at temps)
        ab = probe_a @ op.apply(probe_b, property_temps=temps)
        ba = probe_b @ op.apply(probe_a, property_temps=temps)
        if abs(ab - ba) > 1e-12 * abs(ab) + 1e-14:
            failures.append(f"{variant.roman} operator not symmetric")

    op_def = ConductionOperator(mesh, pre, mat, Variant.DEFORMED_ANISO_TEMP_DEP)
    rest = op_def.apply(temps, deformation=DeformationState(
        np.zeros((mesh.n_nodes, 3))))
    theta = 0.83
    rot = np.array([[np.cos(theta), -np.sin(theta), 0.0],
                    [np.sin(theta), np.cos(theta), 0.0],
                    [0.0, 0.0, 1.0]])
    rotated = op_def.apply(temps, deformation=DeformationState(
        mesh.nodes @ rot.T - mesh.nodes))
    if rel_gap(rotated, rest) > 1e-12:
        failures.append("rigid rotation changed isotropic loads")

    for s in (0.6, 2.5):
        scaled = op_def.apply(temps, deformation=DeformationState(
            (s - 1.0) * mesh.nodes))
        if rel_gap(scaled, s * rest) > 1e-12:
            failures.append(f"volumetric scaling {s} inexact")

    from fedbht.integrator import DirichletBC, FluxBC, build_thermal_state

    mass = build_thermal_state(mesh, pre, mat, PerfusionParams(), BoundaryConditions(),
                               37.0).lumped_mass
    expected_mass = 1060.0 * 3600.0 * float(sum(f.weights.sum() for f in pre))
    if abs(mass.sum() - expected_mass) > 1e-10 * expected_mass:
        failures.append("lumped mass total differs from rho c V")

    perf = PerfusionParams(w_b=1.2, c_b=3617.0, T_a=37.0)
    bc = BoundaryConditions(dirichlet=(), fluxes=(), films=(
        FilmBC(nodes=np.arange(4, dtype=np.intp), coefficient=0.01,
               sink_temperature=37.0),))
    sched = Schedule(dt=0.5, total_time=25.0)
    rec = run(mesh, pre, mat, perf, bc, IdentityDeformation(), sched,
              Variant.CLASSICAL_ISO_TEMP_INDEP)
    if not np.allclose(rec.final_temps, 37.0, rtol=0.0, atol=1e-9):
        failures.append("uniform body-temperature equilibrium drifted")

    pinned = np.array([2, 9], dtype=np.intp)
    bc_pin = BoundaryConditions(
        dirichlet=(DirichletBC(nodes=pinned, temperature=36.5),),
        fluxes=(FluxBC(nodes=np.array([0], dtype=np.intp), watts_per_node=0.05),),
        films=())
    rec_pin = run(mesh, pre, mat, perf, bc_pin, IdentityDeformation(),
                  Schedule(dt=0.5, total_time=10.0),
                  Variant.CLASSICAL_ISO_TEMP_INDEP)
    if not np.all(rec_pin.final_temps[pinned] == 36.5):
        failures.append("Dirichlet nodes not held exactly")

    flat = random_tet_mesh(n_cells=4, seed=0, jitter=0.0, lengths=(0.04,) * 3)
    flat_pre = precompute(flat)
    flat_op = ConductionOperator(flat, flat_pre, mat, Variant.CLASSICAL_ISO_TEMP_INDEP)
    flat_state = build_thermal_state(flat, flat_pre, mat, NO_PERFUSION, NO_BC, 37.0)
    est = estimate_critical_dt(flat_op, flat_state, tol=1e-9)
    flat_state.T = 36.0 + 6.0 * rng.random(flat.n_nodes)
    lo, hi = flat_state.T.min(), flat_state.T.max()
    dt = 0.9 / est.lambda_max
    violated = False
    dt_over_mass, sources = dt / flat_state.lumped_mass, flat_state.sources()
    for n in range(200):
        flat_state.T = step(flat_state, flat_op.apply(flat_state.T), dt_over_mass, sources,
                            step_index=n)
        if flat_state.T.min() < lo - 1e-12 or flat_state.T.max() > hi + 1e-12:
            violated = True
            break
    if violated:
        failures.append("discrete maximum principle violated")
    if flat_state.T.max() - flat_state.T.min() >= hi - lo:
        failures.append("conduction failed to contract the field range")

    expected_evals = {
        Variant.CLASSICAL_ANISO_TEMP_INDEP: (0, 0),
        Variant.CLASSICAL_ISO_TEMP_INDEP: (0, 0),
        Variant.CLASSICAL_ISO_TEMP_DEP: (3, 3),
        Variant.CLASSICAL_ANISO_TEMP_DEP: (1, 100),
        Variant.DEFORMED_ANISO_TEMP_DEP: (1, 100),
    }
    for variant, (lo_n, hi_n) in expected_evals.items():
        fresh = make_material(k=0.5)
        op = ConductionOperator(mesh, pre, fresh, variant)
        before = fresh.conductivity.evaluations
        for _ in range(3):
            op.apply(temps)
        delta = fresh.conductivity.evaluations - before
        if not lo_n <= delta <= hi_n:
            failures.append(f"{variant.roman} made {delta} table evaluations")

    from fedbht.mesh import Mesh

    cube = np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0, 1, 0], [0.0, 1, 0],
                     [0.0, 0, 1], [1.0, 0, 1], [1.0, 1, 1], [0.0, 1, 1]])
    affine = np.eye(3) + np.array([[0.0, 0.2, 0.1], [0.0, 0.0, 0.15], [0.05, 0.0, 0.0]])
    hex_nodes = cube @ affine.T
    hex_mesh = Mesh(nodes=hex_nodes, tets=np.zeros((0, 4), dtype=np.intp),
                    hexes=np.arange(8, dtype=np.intp).reshape(1, 8))
    hex_temps = 37.0 + hex_nodes @ np.array([1.3, -0.4, 0.7])
    hex_op = ConductionOperator(hex_mesh, precompute(hex_mesh), mat,
                                Variant.CLASSICAL_ISO_TEMP_INDEP)
    exact = brute_force_element_load(hex_nodes, 0.5 * np.eye(3), hex_temps,
                                     n_points=27)
    if rel_gap(hex_op.apply(hex_temps), exact) > 1e-12:
        failures.append("reduced integration inexact on affine hexahedron")

    big = random_tet_mesh(n_cells=5, seed=55, jitter=0.2)
    big_pre = precompute(big)
    big_temps = 37.0 + rng.random(big.n_nodes)
    first = ConductionOperator(big, big_pre, mat, Variant.CLASSICAL_ISO_TEMP_INDEP)
    second = ConductionOperator(big, big_pre, mat, Variant.CLASSICAL_ISO_TEMP_INDEP)
    a = first.apply(big_temps)
    if not (np.array_equal(a, second.apply(big_temps))
            and np.array_equal(a, first.apply(big_temps))):
        failures.append("results are not bitwise deterministic")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    verdict("operator invariants bundle", ok,
             "; ".join(failures) if failures else f"14 invariants, {elapsed:.0f} s")


def test_kernel_cost_ordering_and_linear_scaling(verdict):
    """More caching must never cost more: per-call medians follow the
    formulation hierarchy, and whole-mesh stepping scales affinely in the
    element count."""
    t0 = time.perf_counter()
    timings = bench_element_kernels(reps=40_000, batch=500, warmup=4000)
    by = {t.variant.roman: t.median_seconds for t in timings}
    ordering_ok = (by["iii"] < by["iv"] < by["ii"] < by["i"]
                   and by["iii"] <= 1.1 * by["v"])
    ratio = by["ii"] / by["i"]

    scaling = bench_simulation(densities=(6, 8, 10, 12), steps=40)
    fit_ok = scaling.r_squared > 0.98 and scaling.slope > 0

    elapsed = time.perf_counter() - t0
    ok = ordering_ok and fit_ok and elapsed < 300.0
    verdict("kernel cost ordering and linear scaling", ok,
             f"cached-classical/deformed ratio {ratio:.2f} "
             f"(reference hardware {REFERENCE_CLASSICAL_TO_DEFORMED_RATIO:.2f}), "
             f"scaling R^2 {scaling.r_squared:.4f} > 0.98, {elapsed:.0f} s")


def test_time_stepping_converges_at_first_order(verdict):
    """Pure perfusion relaxation with unit time constant: halving dt must
    halve the global error at a fixed final time."""
    t0 = time.perf_counter()
    mesh = random_tet_mesh(n_cells=2, seed=61, jitter=0.0, lengths=(0.05,) * 3)
    pre = precompute(mesh)
    # negligible conduction keeps the uniform field an exact ODE per node
    mat = make_material(k=1e-12, rho=1.0, c=1.0)
    perf = PerfusionParams(w_b=1.0, c_b=1.0, T_a=37.0)
    exact = 37.0 + np.exp(-1.0)

    errors = []
    for dt in (0.04, 0.02, 0.01):
        rec = run(mesh, pre, mat, perf, NO_BC, IdentityDeformation(),
                  Schedule(dt=dt, total_time=1.0),
                  Variant.CLASSICAL_ISO_TEMP_INDEP, initial_temperature=38.0)
        errors.append(abs(float(rec.final_temps.mean()) - exact))

    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    elapsed = time.perf_counter() - t0
    ok = (all(e > 0 for e in errors)
          and all(1.8 <= r <= 2.2 for r in ratios)
          and elapsed < 60.0)
    verdict("first-order convergence of the explicit update", ok,
             f"error ratios {ratios[0]:.3f}, {ratios[1]:.3f} in [1.8, 2.2], "
             f"{elapsed:.1f} s")
