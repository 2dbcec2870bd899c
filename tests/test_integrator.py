import numpy as np
import pytest

from fedbht.deformation import IdentityDeformation, TrajectoryDeformation
from fedbht.errors import ConflictError, DivergenceError, TopologyError
from fedbht.integrator import (
    BoundaryConditions,
    DirichletBC,
    FilmBC,
    FluxBC,
    Schedule,
    ThermalState,
    build_thermal_state,
    node_volumes,
    run,
    step,
)
from fedbht.kernels import ConductionOperator, Variant
from fedbht.material import MaterialModel, PerfusionParams, PropertyTable
from fedbht.mesh import precompute
from fedbht.oracle import reference_transient

from conftest import make_material, mixed_block, random_tet_mesh

NO_BC = BoundaryConditions(dirichlet=(), fluxes=(), films=())


def initial_mass(mesh, pre, material, temperature=37.0):
    """The lumped thermal mass of a run starting uniform at temperature."""
    return build_thermal_state(mesh, pre, material, PerfusionParams(), NO_BC,
                               temperature).lumped_mass


def make_state(**overrides):
    """Single fictitious node, unit thermal mass."""
    fields = dict(
        T=np.array([38.0]),
        lumped_mass=np.array([1.0]),
        perfusion_diag=np.array([0.0]),
        perfusion_source=np.array([0.0]),
        metabolic=np.array([0.0]),
        external_heat=np.array([0.0]),
        dirichlet_mask=np.array([False]),
        dirichlet_values=np.array([0.0]),
    )
    fields.update(overrides)
    return ThermalState(**fields)


def test_single_node_relaxation_step():
    # T' = T + dt * (G - K_b T) / C = 38 + 0.1 * (18.5 - 19) = 37.95
    state = make_state(perfusion_diag=np.array([0.5]),
                       perfusion_source=np.array([18.5]))
    t_new = step(state, np.zeros(1), 0.1 / state.lumped_mass, state.sources())
    assert t_new[0] == pytest.approx(37.95, abs=1e-14)


def test_step_subtracts_conduction_loads():
    state = make_state()
    t_new = step(state, np.array([2.0]), 0.25 / state.lumped_mass, state.sources())
    assert t_new[0] == pytest.approx(38.0 - 0.5, abs=1e-14)


def test_step_flags_divergence():
    state = make_state(T=np.array([1e308]))
    with pytest.raises(DivergenceError):
        step(state, np.array([-1e308]), 10.0 / state.lumped_mass, state.sources(),
             step_index=7, time=3.5)


def test_divergence_names_first_non_finite_node():
    # node 1 overflows, node 3 turns NaN; node 1 is the first to go
    n = 4
    state = make_state(T=np.array([38.0, 1e308, 38.0, 40.0]), lumped_mass=np.ones(n),
                       perfusion_diag=np.zeros(n), perfusion_source=np.zeros(n),
                       metabolic=np.zeros(n), external_heat=np.zeros(n),
                       dirichlet_mask=np.zeros(n, dtype=bool), dirichlet_values=np.zeros(n))
    loads = np.array([0.0, -1e308, 0.0, np.nan])
    with pytest.raises(DivergenceError, match=r"step 7 \(t = 3\.5 s\): node 1, "
                                              r"last finite temperature 1e\+308") as err:
        step(state, loads, 10.0 / state.lumped_mass, state.sources(), step_index=7, time=3.5)
    assert err.value.node == 1 and err.value.last_finite == 1e308


def test_unit_tet_lumped_mass(unit_tet, simple_material):
    mesh, pre = unit_tet
    mass = initial_mass(mesh, pre, simple_material)
    # rho c V / 4 = 1060 * 3600 * (1/6) / 4
    np.testing.assert_allclose(mass, 159000.0, rtol=1e-13)


def test_node_volumes_tile_mesh():
    mesh = random_tet_mesh(n_cells=2, seed=6, jitter=0.2)
    pre = precompute(mesh)
    vols = node_volumes(mesh, pre)
    assert vols.sum() == pytest.approx(float(sum(f.weights.sum() for f in pre)), rel=1e-12)
    assert np.all(vols > 0)


def test_lumped_mass_splits_like_node_volumes():
    # rho c = 2^22 scales without rounding, so the two equal splits must
    # agree bit for bit; tissue values differ from it by rounding only
    mesh = mixed_block()
    pre = precompute(mesh)
    vols = node_volumes(mesh, pre)
    assert vols.sum() == pytest.approx(float(sum(f.weights.sum() for f in pre)), rel=1e-12)
    mass = initial_mass(mesh, pre, make_material(rho=1024.0, c=4096.0))
    np.testing.assert_array_equal(mass, 1024.0 * 4096.0 * vols)
    mass = initial_mass(mesh, pre, make_material())
    np.testing.assert_allclose(mass, 1060.0 * 3600.0 * vols, rtol=1e-15, atol=0)


def test_build_state_perfusion_terms():
    mesh = random_tet_mesh(n_cells=2, seed=8, jitter=0.0)
    pre = precompute(mesh)
    mat = make_material()
    perf = PerfusionParams(w_b=2.0, c_b=3617.0, T_a=37.0, Q_met=420.0)
    # a pinned node and a schedulable heater leave the perfusion terms alone
    bc = BoundaryConditions(
        dirichlet=(DirichletBC(nodes=np.array([5], dtype=np.intp), temperature=37.0),),
        fluxes=(FluxBC(nodes=np.array([0, 1], dtype=np.intp), watts_per_node=0.5),),
        films=())
    state = build_thermal_state(mesh, pre, mat, perf, bc, 37.0)
    vols = node_volumes(mesh, pre)
    np.testing.assert_allclose(state.perfusion_diag, 2.0 * 3617.0 * vols, rtol=1e-13)
    np.testing.assert_allclose(state.perfusion_source,
                               2.0 * 3617.0 * 37.0 * vols, rtol=1e-13)
    np.testing.assert_allclose(state.metabolic, 420.0 * vols, rtol=1e-13)
    assert np.flatnonzero(state.dirichlet_mask).tolist() == [5]
    assert state.external_heat[0] == 0.5 and state.external_heat[2] == 0.0
    assert np.all(state.lumped_mass > 0) and np.all(state.perfusion_diag > 0)


def test_perfusion_equilibrium_is_exact():
    # uniform arterial temperature is a fixed point of the discrete update
    mesh = random_tet_mesh(n_cells=2, seed=10, jitter=0.1)
    pre = precompute(mesh)
    perf = PerfusionParams(w_b=1.5, c_b=3617.0, T_a=37.0, Q_met=0.0)
    state = build_thermal_state(mesh, pre, make_material(), perf, NO_BC, 37.0)
    t = state.T
    dt_over_mass, sources = 5.0 / state.lumped_mass, state.sources()
    for n in range(50):
        state.T = step(state, np.zeros(mesh.n_nodes), dt_over_mass, sources, step_index=n)
    np.testing.assert_array_equal(state.T, t)


def test_film_and_flux_enter_balance():
    mesh = random_tet_mesh(n_cells=1, seed=0, jitter=0.0)
    pre = precompute(mesh)
    all_nodes = np.arange(mesh.n_nodes, dtype=np.intp)
    bc = BoundaryConditions(
        dirichlet=(),
        fluxes=(FluxBC(nodes=all_nodes[:2], watts_per_node=0.5, schedulable=False),),
        films=(FilmBC(nodes=all_nodes, coefficient=0.01, sink_temperature=30.0),),
    )
    state = build_thermal_state(mesh, pre, make_material(),
                                PerfusionParams(), bc, 37.0)
    np.testing.assert_allclose(state.perfusion_diag, 0.01)
    np.testing.assert_allclose(state.perfusion_source, 0.01 * 30.0)
    assert state.metabolic[0] == pytest.approx(0.5)
    assert state.metabolic[2] == 0.0


def test_dirichlet_conflicts_rejected():
    mesh = random_tet_mesh(n_cells=1, seed=0, jitter=0.0)
    pre = precompute(mesh)
    nodes = np.array([0, 1], dtype=np.intp)
    with pytest.raises(ConflictError):
        build_thermal_state(
            mesh, pre, make_material(), PerfusionParams(),
            BoundaryConditions(
                dirichlet=(DirichletBC(nodes=nodes, temperature=37.0),
                           DirichletBC(nodes=nodes[:1], temperature=40.0)),
                fluxes=(), films=()),
            37.0)
    with pytest.raises(ConflictError):
        build_thermal_state(
            mesh, pre, make_material(), PerfusionParams(),
            BoundaryConditions(
                dirichlet=(DirichletBC(nodes=nodes, temperature=37.0),),
                fluxes=(FluxBC(nodes=nodes[1:], watts_per_node=1.0),),
                films=()),
            37.0)


def test_zero_mass_node_rejected():
    # an unreferenced node has no thermal mass and cannot be stepped
    mesh = random_tet_mesh(n_cells=1, seed=0, jitter=0.0)
    mesh.nodes = np.vstack([mesh.nodes, [9.0, 9.0, 9.0]])
    pre = precompute(mesh)
    with pytest.raises(TopologyError):
        build_thermal_state(mesh, pre, make_material(), PerfusionParams(),
                            NO_BC, 37.0)


def test_schedule_validation_and_step_count():
    s = Schedule(dt=0.1, total_time=1.0, snapshot_times=(0.5,), events=())
    assert s.n_steps == 10
    assert Schedule(dt=0.3, total_time=1.0).n_steps == 4
    with pytest.raises(ValueError):
        Schedule(dt=-0.1, total_time=1.0)
    with pytest.raises(ValueError):
        Schedule(dt=0.1, total_time=0.0)
    with pytest.raises(ValueError):
        Schedule(dt=0.1, total_time=1.0, events=((0.5, "explode"),))


def run_small(schedule, bc=NO_BC, perf=None, initial=37.0, probes=(),
              variant=Variant.CLASSICAL_ISO_TEMP_INDEP, **kw):
    mesh = random_tet_mesh(n_cells=2, seed=12, jitter=0.1, lengths=(0.03,) * 3)
    pre = precompute(mesh)
    record = run(mesh, pre, make_material(k=0.5), perf or PerfusionParams(),
                 bc, IdentityDeformation(), schedule, variant,
                 initial_temperature=initial, probes=probes, **kw)
    return mesh, record


def test_snapshots_at_exact_times():
    sched = Schedule(dt=0.5, total_time=10.0, snapshot_times=(2.0, 7.6, 10.0))
    _, rec = run_small(sched)
    # 7.6 is not a step time; the snapshot fires at the first step >= 7.6
    np.testing.assert_allclose(rec.snapshot_times, [2.0, 8.0, 10.0], atol=1e-9)
    assert len(rec.snapshots) == 3


def test_probe_traces_cover_every_step():
    sched = Schedule(dt=0.5, total_time=5.0)
    _, rec = run_small(sched, probes=(0, 3))
    assert rec.probe_values.shape == (11, 2)
    np.testing.assert_allclose(rec.probe_times, np.arange(11) * 0.5, atol=1e-12)
    np.testing.assert_allclose(rec.probe_values[0], 37.0)


def test_source_events_toggle_external_heat():
    mesh = random_tet_mesh(n_cells=1, seed=3, jitter=0.0, lengths=(0.03,) * 3)
    pre = precompute(mesh)
    heater = np.array([0], dtype=np.intp)
    bc = BoundaryConditions(
        dirichlet=(), films=(),
        fluxes=(FluxBC(nodes=heater, watts_per_node=1.0, schedulable=True),))
    mat = make_material(k=1e-9)  # conduction off, pure integration
    sched = Schedule(dt=1.0, total_time=4.0, events=((2.0, "source_off"),))
    rec = run(mesh, pre, mat, PerfusionParams(), bc, IdentityDeformation(),
              sched, Variant.CLASSICAL_ISO_TEMP_INDEP, probes=(0,))
    mass = initial_mass(mesh, pre, mat)[0]
    trace = rec.probe_values[:, 0]
    # heater active for steps over [0,1) and [1,2) only
    np.testing.assert_allclose(np.diff(trace), [1.0 / mass, 1.0 / mass, 0.0, 0.0],
                               rtol=1e-10, atol=1e-9)


def test_initially_off_source_enabled_by_event():
    mesh = random_tet_mesh(n_cells=1, seed=3, jitter=0.0, lengths=(0.03,) * 3)
    pre = precompute(mesh)
    bc = BoundaryConditions(
        dirichlet=(), films=(),
        fluxes=(FluxBC(nodes=np.array([0], dtype=np.intp), watts_per_node=1.0),))
    mat = make_material(k=1e-9)
    sched = Schedule(dt=1.0, total_time=2.0,
                     events=((0.0, "source_off"), (1.0, "source_on")))
    rec = run(mesh, pre, mat, PerfusionParams(), bc, IdentityDeformation(),
              sched, Variant.CLASSICAL_ISO_TEMP_INDEP, probes=(0,))
    trace = rec.probe_values[:, 0]
    assert trace[1] == trace[0]
    assert trace[2] > trace[1]


def test_time_line_is_the_same_in_both_drivers():
    """Two snapshot times in one step give two snapshots, a snapshot time
    past the end is dropped, an event at t = 0 acts on the first step, and
    probes record t = 0 and every step."""
    mesh = random_tet_mesh(n_cells=1, seed=3, jitter=0.0, lengths=(0.03,) * 3)
    pre = precompute(mesh)
    bc = BoundaryConditions(
        dirichlet=(), films=(),
        fluxes=(FluxBC(nodes=np.array([0], dtype=np.intp), watts_per_node=1.0),))
    mat = make_material(k=1e-9)
    sched = Schedule(dt=0.5, total_time=2.2, snapshot_times=(0.0, 0.6, 0.9, 2.2, 9.0),
                     events=((0.0, "source_off"), (1.0, "source_on")))
    ours = run(mesh, pre, mat, PerfusionParams(), bc, IdentityDeformation(),
               sched, Variant.CLASSICAL_ISO_TEMP_INDEP, probes=(0,))
    theirs = reference_transient(mesh, mat, PerfusionParams(), bc,
                                 IdentityDeformation(), sched, scheme="forward",
                                 probes=(0,))
    mass = initial_mass(mesh, pre, mat)[0]
    for rec in (ours, theirs):
        assert rec.snapshot_times == [0.0, 1.0, 1.0, 2.5]
        np.testing.assert_array_equal(rec.snapshots[1], rec.snapshots[2])
        np.testing.assert_array_equal(rec.snapshots[3], rec.final_temps)
        np.testing.assert_array_equal(rec.probe_times, np.arange(6) * 0.5)
        assert rec.probe_values.shape == (6, 1)
        # the heater is off from the first step on and warms node 0 from t = 1
        np.testing.assert_allclose(np.diff(rec.probe_values[:, 0]),
                                   [0.0, 0.0, 0.5 / mass, 0.5 / mass, 0.5 / mass],
                                   rtol=1e-6, atol=1e-9 / mass)


def test_dirichlet_wins_over_film():
    mesh = random_tet_mesh(n_cells=1, seed=1, jitter=0.0, lengths=(0.03,) * 3)
    pre = precompute(mesh)
    pinned = np.array([0], dtype=np.intp)
    everyone = np.arange(mesh.n_nodes, dtype=np.intp)
    film_only = np.setdiff1d(everyone, pinned)
    bc = BoundaryConditions(
        dirichlet=(DirichletBC(nodes=pinned, temperature=42.0),),
        films=(FilmBC(nodes=film_only, coefficient=0.05, sink_temperature=20.0),),
        fluxes=())
    sched = Schedule(dt=1.0, total_time=50.0)
    rec = run(mesh, pre, make_material(k=0.5), PerfusionParams(), bc,
              IdentityDeformation(), sched, Variant.CLASSICAL_ISO_TEMP_INDEP,
              probes=(0,))
    np.testing.assert_array_equal(rec.probe_values[1:, 0], 42.0)
    assert rec.final_temps[0] == 42.0


def test_stability_refusal_and_override_path():
    _, refused = run_small(Schedule(dt=1e9, total_time=4e9))
    assert refused.outcome.kind == "refused"
    # overriding lets the unstable amplification run until it overflows; a
    # uniform field has exactly zero conduction loads, so one heated node
    # seeds the growing mode
    kick = BoundaryConditions(
        dirichlet=(), films=(),
        fluxes=(FluxBC(nodes=np.array([0], dtype=np.intp), watts_per_node=1.0),))
    _, rec = run_small(Schedule(dt=1e9, total_time=1e11), bc=kick, dt_override=True)
    assert rec.diverged and rec.divergence_step is not None
    assert len(rec.snapshots) >= 1
    assert np.all(np.isfinite(rec.snapshots[-1]))


def test_nan_keyframe_stops_the_run_at_the_inverted_element():
    # a keyframe built through the API is not checked for finiteness: the
    # pullback's det floor stops the run at the first step that reads it
    mesh = random_tet_mesh(n_cells=2, seed=12, jitter=0.1, lengths=(0.03,) * 3)
    frames = np.zeros((2, mesh.n_nodes, 3))
    frames[1, 9, 2] = np.nan
    deformation = TrajectoryDeformation([0.0, 10.0], frames)
    sched = Schedule(dt=1.0, total_time=5.0, snapshot_times=(5.0,))
    rec = run(mesh, precompute(mesh), make_material(k=0.5), PerfusionParams(), NO_BC,
              deformation, sched, Variant.DEFORMED_ANISO_TEMP_DEP, probes=(0,))
    first_bad = int(np.argmax((mesh.tets == 9).any(axis=1)))
    assert rec.outcome.kind == "inverted" and (rec.outcome.step, rec.outcome.time) == (1, 1.0)
    assert rec.outcome.message.startswith(f"tet4 element {first_bad}: ")
    assert rec.outcome.message.endswith(" at step 1 (t = 1 s)")
    assert not rec.diverged and rec.divergence_step is None
    assert rec.snapshot_times == [1.0] and np.all(rec.snapshots[0] == 37.0)
    assert rec.probe_values.shape == (2, 1)


def test_update_thermal_mass_follows_tables(tissue_material):
    mesh = random_tet_mesh(n_cells=2, seed=14, jitter=0.0, lengths=(0.03,) * 3)
    pre = precompute(mesh)
    heater = np.array([0], dtype=np.intp)
    bc = BoundaryConditions(
        dirichlet=(), films=(),
        fluxes=(FluxBC(nodes=heater, watts_per_node=0.05),))
    sched = Schedule(dt=2.0, total_time=60.0)
    base = run(mesh, pre, tissue_material, PerfusionParams(), bc,
               IdentityDeformation(), sched, Variant.CLASSICAL_ISO_TEMP_DEP)
    frozen = run(mesh, pre, tissue_material, PerfusionParams(), bc,
                 IdentityDeformation(), sched, Variant.CLASSICAL_ISO_TEMP_DEP,
                 update_thermal_mass=False)
    # c grows with T, so the frozen-mass run overheats slightly
    assert frozen.final_temps.max() > base.final_temps.max()


def test_thermal_mass_is_rewritten_only_when_updated(tissue_material, monkeypatch):
    import fedbht.integrator as integrator

    mesh = random_tet_mesh(n_cells=2, seed=14, jitter=0.1, lengths=(0.03,) * 3)
    pre = precompute(mesh)
    bc = BoundaryConditions(
        dirichlet=(), films=(),
        fluxes=(FluxBC(nodes=np.array([0], dtype=np.intp), watts_per_node=0.05),))
    states = []

    def keep_state(*args, **kwargs):
        states.append(build_thermal_state(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(integrator, "build_thermal_state", keep_state)
    sched = Schedule(dt=2.0, total_time=20.0, snapshot_times=(18.0,))
    for update in (False, True):
        rec = run(mesh, pre, tissue_material, PerfusionParams(), bc, IdentityDeformation(),
                  sched, Variant.CLASSICAL_ISO_TEMP_DEP, update_thermal_mass=update)
        assert rec.final_temps.max() > 37.1
    frozen, updated = states
    initial = initial_mass(mesh, pre, tissue_material)
    assert np.array_equal(frozen.lumped_mass, initial)
    # the last step used the operator's mass of the field it stepped from, t = 18 s
    fused = np.empty(mesh.n_nodes)
    ConductionOperator(mesh, pre, tissue_material,
                       Variant.CLASSICAL_ISO_TEMP_DEP).apply(rec.snapshots[0], mass=fused)
    assert np.array_equal(updated.lumped_mass, fused)
    assert not np.allclose(updated.lumped_mass, initial, rtol=1e-9, atol=0.0)


def test_frozen_mass_run_is_the_hand_loop_bit_for_bit():
    # run divides dt by the frozen mass once; the hand loop applies the
    # operator and divides in every step, rounded as step writes it
    from fedbht.blockmesh import make_block_mesh

    mesh = make_block_mesh(3, 3, 3, (0.03,) * 3, element="hex8", jitter=0.2, seed=24)
    pre = precompute(mesh)
    material = make_material(k=0.5)
    bc = BoundaryConditions(
        dirichlet=(DirichletBC(nodes=np.array([5, 17]), temperature=33.0),),
        fluxes=(FluxBC(nodes=np.array([30]), watts_per_node=0.4),),
        films=(FilmBC(nodes=np.array([2, 40]), coefficient=20.0,
                      sink_temperature=25.0, area_per_node=1e-4),))
    sched = Schedule(dt=1.0, total_time=30.0, snapshot_times=(7.0, 19.0, 30.0),
                     events=((12.0, "source_off"),))
    variant = Variant.CLASSICAL_ISO_TEMP_INDEP
    rec = run(mesh, pre, material, PerfusionParams(), bc, IdentityDeformation(),
              sched, variant)
    assert rec.outcome is None and rec.update_thermal_mass is False

    state = build_thermal_state(mesh, pre, material, PerfusionParams(), bc)
    op = ConductionOperator(mesh, pre, material, variant)
    temps, expected = state.T, []
    for n, _, source_on, due in sched.walk():
        expected += [temps] * len(due)
        if n == sched.n_steps:
            break
        change = (state.sources(source_on) - op.apply(temps)) - state.perfusion_diag * temps
        temps = change * np.divide(sched.dt, state.lumped_mass) + temps
        temps[state.dirichlet_mask] = state.dirichlet_values[state.dirichlet_mask]
    assert len(rec.snapshots) == len(expected) == 3
    for got, want in zip(rec.snapshots, expected):
        assert got.tobytes() == want.tobytes()
    assert rec.final_temps.tobytes() == temps.tobytes()


def test_mixed_mesh_transient_runs(unit_tet, unit_cube_hex):
    import numpy as np
    from fedbht.mesh import Mesh

    nodes = np.vstack([unit_tet[0].nodes * 0.01,
                       unit_cube_hex[0].nodes * 0.01 + [0.05, 0.0, 0.0]])
    mesh = Mesh(nodes=nodes,
                tets=np.array([[0, 1, 2, 3]], dtype=np.intp),
                hexes=(np.arange(8, dtype=np.intp) + 4).reshape(1, 8))
    pre = precompute(mesh)
    sched = Schedule(dt=1.0, total_time=5.0)
    rec = run(mesh, pre, make_material(k=0.5), PerfusionParams(), NO_BC,
              IdentityDeformation(), sched, Variant.DEFORMED_ANISO_TEMP_DEP,
              initial_temperature=37.0)
    assert rec.n_elements == 2
    np.testing.assert_allclose(rec.final_temps, 37.0, atol=1e-9)


def test_deformed_variant_at_rest_matches_classical(tissue_material):
    mesh = random_tet_mesh(n_cells=2, seed=33, jitter=0.15, lengths=(0.03,) * 3)
    pre = precompute(mesh)
    bc = BoundaryConditions(
        dirichlet=(), films=(),
        fluxes=(FluxBC(nodes=np.array([0], dtype=np.intp), watts_per_node=0.02),))
    sched = Schedule(dt=1.0, total_time=30.0)
    args = (mesh, pre, tissue_material, PerfusionParams(), bc,
            IdentityDeformation(), sched)
    moving = run(*args, Variant.DEFORMED_ANISO_TEMP_DEP)
    classical = run(*args, Variant.CLASSICAL_ANISO_TEMP_DEP)
    assert np.array_equal(moving.final_temps, classical.final_temps)
