import logging

import numpy as np
import pytest

from fedbht.blockmesh import make_block_mesh
from fedbht.deformation import AffineDeformation, DeformationState
from fedbht.errors import StabilityError
from fedbht.integrator import BoundaryConditions, DirichletBC, ThermalState, build_thermal_state
from fedbht.kernels import ConductionOperator, Variant
from fedbht.material import PerfusionParams
from fedbht.mesh import precompute
from fedbht.oracle import OracleAssembler, dense_lambda_max
from fedbht.stability import (
    StabilityEstimate,
    estimate_critical_dt,
    guard_time_step,
    lanczos_lambda_max,
)

from conftest import make_material, random_tet_mesh


class DiagonalOperator:
    """Stand-in conduction operator with a known spectrum."""

    def __init__(self, diag):
        self.diag = np.asarray(diag, dtype=float)
        self.n_nodes = self.diag.size

    def apply(self, temps, deformation=None, property_temps=None):
        return self.diag * temps


def test_lanczos_known_matrix():
    diag = np.array([0.5, 3.0, 1.2, 2.9])
    lam, iters, converged = lanczos_lambda_max(lambda v: diag * v, 4,
                                               tol=1e-12, max_iterations=5000)
    assert converged
    assert lam == pytest.approx(3.0, rel=1e-8)


def test_lanczos_respects_mask():
    diag = np.array([0.5, 3.0, 1.2, 2.9])
    mask = np.array([False, True, False, False])  # hide the dominant mode
    lam, _, converged = lanczos_lambda_max(lambda v: diag * v, 4,
                                           tol=1e-12, max_iterations=5000,
                                           mask=mask)
    assert converged
    assert lam == pytest.approx(2.9, rel=1e-8)


def test_lanczos_zero_operator():
    lam, _, converged = lanczos_lambda_max(lambda v: np.zeros_like(v), 3,
                                           tol=1e-10, max_iterations=100)
    assert lam == 0.0 and converged


def test_lanczos_exhausts_a_four_node_krylov_space():
    # four distinct eigenvalues span a 4-dimensional Krylov space: the
    # fourth beta is zero up to round-off and theta is then exact, so even
    # a tolerance near machine precision ends there
    diag = np.array([0.5, 3.0, 1.2, 2.9])
    lam, iters, converged = lanczos_lambda_max(lambda v: diag * v, 4, tol=1e-13)
    assert (iters, converged) == (4, True)
    assert lam == pytest.approx(3.0, rel=1e-14)


def test_lanczos_all_masked_start():
    calls = []

    def apply_op(v):
        calls.append(v)
        return v

    assert lanczos_lambda_max(apply_op, 3, mask=np.ones(3, dtype=bool)) == (0.0, 0, True)
    assert calls == []


def test_single_node_perfusion_rate():
    # C = 1, K_b = 2: lambda = 2 and the critical step is 2/lambda = 1
    op = DiagonalOperator([0.0])
    one, zero = np.ones(1), np.zeros(1)
    state = ThermalState(T=37.0 * one, lumped_mass=one, perfusion_diag=2.0 * one,
                         perfusion_source=zero, metabolic=zero, external_heat=zero,
                         dirichlet_mask=np.zeros(1, dtype=bool), dirichlet_values=zero)
    est = estimate_critical_dt(op, state)
    assert est.lambda_max == pytest.approx(2.0, rel=1e-9)
    assert est.dt_critical == pytest.approx(1.0, rel=1e-9)
    assert est.converged


def test_two_estimates_are_bitwise_equal():
    mesh = random_tet_mesh(n_cells=3, seed=19, jitter=0.2, lengths=(0.05,) * 3)
    pre = precompute(mesh)
    mat = make_material(k=0.5)
    op = ConductionOperator(mesh, pre, mat, Variant.CLASSICAL_ISO_TEMP_INDEP)
    state = build_thermal_state(mesh, pre, mat, PerfusionParams(),
                                BoundaryConditions((), (), ()), 37.0)
    a = estimate_critical_dt(op, state)
    b = estimate_critical_dt(op, state)
    assert a == b
    assert a.lambda_max.hex() == b.lambda_max.hex()


def test_matches_dense_eigensolve():
    mesh = random_tet_mesh(n_cells=3, seed=2, jitter=0.2, lengths=(0.05,) * 3)
    pre = precompute(mesh)
    mat = make_material(k=0.5)
    perf = PerfusionParams(w_b=0.8, c_b=3617.0, T_a=37.0, Q_met=0.0)
    pinned = np.array([0, 5, 11], dtype=np.intp)
    bc = BoundaryConditions(
        dirichlet=(DirichletBC(nodes=pinned, temperature=37.0),),
        fluxes=(), films=())
    state = build_thermal_state(mesh, pre, mat, perf, bc, 37.0)
    op = ConductionOperator(mesh, pre, mat, Variant.CLASSICAL_ISO_TEMP_INDEP)
    est = estimate_critical_dt(op, state)
    k = OracleAssembler(mesh, mat).stiffness()
    lam_ref = dense_lambda_max(k, state.lumped_mass, state.perfusion_diag,
                               state.dirichlet_mask)
    assert est.lambda_max == pytest.approx(lam_ref, rel=1e-4)


# name -> (mesh, variant, deformation): a jittered 6^3 hex8 block at rest,
# and a jittered tet4 block sheared and moved. At the default tolerance the
# power iteration this estimator replaced stopped 1.5e-4 and 2.3e-5 low on
# them, after 466 and 205 iterations.
_MOVE = AffineDeformation(matrix=np.array([[1.1, 0.3, 0.0], [0.0, 0.8, 0.1],
                                           [0.05, 0.0, 1.2]]),
                          offset=np.array([0.01, -0.02, 0.0]))
_DENSE_SCENES = {
    "hex8_at_rest": (lambda: make_block_mesh(6, 6, 6, (0.05,) * 3, element="hex8",
                                             jitter=0.2, seed=3),
                     Variant.CLASSICAL_ISO_TEMP_INDEP, None),
    "tet4_moved": (lambda: make_block_mesh(4, 4, 4, (0.05,) * 3, jitter=0.2, seed=3),
                   Variant.DEFORMED_ANISO_TEMP_DEP, _MOVE),
}


@pytest.mark.parametrize("scene", sorted(_DENSE_SCENES))
def test_default_tolerance_matches_dense_eigensolve_in_few_iterations(scene):
    make_mesh, variant, move = _DENSE_SCENES[scene]
    mesh = make_mesh()
    pre = precompute(mesh)
    mat = make_material(k=0.5)
    perf = PerfusionParams(w_b=0.8, c_b=3617.0, T_a=37.0, Q_met=0.0)
    bc = BoundaryConditions(
        dirichlet=(DirichletBC(nodes=np.array([0, 5, 11], dtype=np.intp), temperature=37.0),),
        fluxes=(), films=())
    state = build_thermal_state(mesh, pre, mat, perf, bc, 37.0)
    op = ConductionOperator(mesh, pre, mat, variant)
    coords = mesh.nodes
    deformation = None
    if move is not None:
        deformation = move.displacements_at(0.0, mesh)
        coords = mesh.nodes @ move.matrix.T + move.offset
    est = estimate_critical_dt(op, state, deformation)
    k = OracleAssembler(mesh, mat).stiffness(coords=coords)
    lam_ref = dense_lambda_max(k, state.lumped_mass, state.perfusion_diag,
                               state.dirichlet_mask)
    assert est.converged
    assert est.lambda_max == pytest.approx(lam_ref, rel=1e-9)
    assert est.iterations <= 60


def test_deformation_shifts_spectral_bound_with_oracle_agreement():
    """The estimate must track the deformed geometry the same way a dense
    eigensolve on the displaced coordinates does.

    Uniform volumetric squeeze by s scales every element conductance by s
    (area shrinks faster than length) while the thermal mass stays with
    the material, so lambda drops by exactly s. Uniaxial thinning instead
    multiplies the through-thickness stiffness by 1/s and tightens the
    critical step.
    """
    mesh = random_tet_mesh(n_cells=3, seed=4, jitter=0.1, lengths=(0.05,) * 3)
    pre = precompute(mesh)
    mat = make_material(k=0.5)
    state = build_thermal_state(mesh, pre, mat, PerfusionParams(),
                                BoundaryConditions((), (), ()), 37.0)
    op = ConductionOperator(mesh, pre, mat, Variant.DEFORMED_ANISO_TEMP_DEP)
    none_mask = np.zeros(mesh.n_nodes, dtype=bool)
    assembler = OracleAssembler(mesh, mat)

    def dense(coords):
        k = assembler.stiffness(coords=coords)
        return dense_lambda_max(k, state.lumped_mass, state.perfusion_diag,
                                none_mask)

    rest = estimate_critical_dt(op, state, tol=1e-9)
    assert rest.lambda_max == pytest.approx(dense(mesh.nodes), rel=5e-4)

    squeeze = AffineDeformation(matrix=0.7 * np.eye(3), offset=np.zeros(3))
    squeezed = estimate_critical_dt(op, state, squeeze.displacements_at(0.0, mesh),
                                    tol=1e-9)
    assert squeezed.lambda_max == pytest.approx(0.7 * rest.lambda_max, rel=1e-5)
    assert squeezed.lambda_max == pytest.approx(dense(0.7 * mesh.nodes), rel=5e-4)

    thin_f = np.diag([1.0, 1.0, 0.4])
    thin = AffineDeformation(matrix=thin_f, offset=np.zeros(3))
    thinned = estimate_critical_dt(op, state, thin.displacements_at(0.0, mesh),
                                   tol=1e-9)
    assert thinned.lambda_max > rest.lambda_max
    assert thinned.dt_critical < rest.dt_critical
    assert thinned.lambda_max == pytest.approx(dense(mesh.nodes @ thin_f.T), rel=5e-4)


def test_property_temps_freeze_material_state(tissue_material):
    # the estimator probes with eigenvector iterates; property lookups
    # must use the state's field, not the probe vector
    mesh = random_tet_mesh(n_cells=2, seed=9, jitter=0.1, lengths=(0.05,) * 3)
    pre = precompute(mesh)
    op = ConductionOperator(mesh, pre, tissue_material, Variant.CLASSICAL_ISO_TEMP_DEP)
    state = build_thermal_state(mesh, pre, tissue_material, PerfusionParams(),
                                BoundaryConditions((), (), ()), 37.0)
    est_37 = estimate_critical_dt(op, state)
    state.T = np.full(mesh.n_nodes, 65.0)
    est_65 = estimate_critical_dt(op, state)
    # conductivity is higher at 65 C, so the bound tightens
    assert est_65.lambda_max > est_37.lambda_max
    ratio = est_65.lambda_max / est_37.lambda_max
    assert ratio == pytest.approx(0.57 / 0.53, rel=1e-6)


def test_guard_admits_the_critical_step_and_refuses_the_next_float(caplog):
    est = StabilityEstimate(lambda_max=8.0, dt_critical=0.25, iterations=5, converged=True)
    above = np.nextafter(0.25, 1.0)
    assert est.admits(0.25) and not est.admits(above)
    with caplog.at_level(logging.WARNING, logger="fedbht"):
        guard_time_step(0.225, est)  # exactly 90 %: silent
        assert caplog.text == ""
        guard_time_step(0.25, est)
        assert "above 90% of the critical step" in caplog.text
        with pytest.raises(StabilityError, match="exceeds estimated critical step"):
            guard_time_step(above, est)


def test_guard_warns_on_an_unconverged_estimate(caplog):
    est = StabilityEstimate(lambda_max=8.0, dt_critical=0.25, iterations=3, converged=False)
    with caplog.at_level(logging.WARNING, logger="fedbht"):
        guard_time_step(0.1, est)
    assert "did not converge in 3 iterations" in caplog.text
    assert "above 90%" not in caplog.text
