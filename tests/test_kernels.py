import ast
from pathlib import Path

import numpy as np
import pytest

import fedbht.kernels
from fedbht.blockmesh import make_block_mesh
from fedbht.deformation import DeformationState
from fedbht.errors import SingularDeformationError
from fedbht.integrator import BoundaryConditions, build_thermal_state
from fedbht.kernels import ConductionOperator, Variant
from fedbht.material import MaterialModel, PerfusionParams, PropertyTable, TensorPropertyTable
from fedbht.mesh import Mesh, precompute
from fedbht.oracle import OracleAssembler, brute_force_element_load
from fedbht.stability import estimate_critical_dt

from conftest import anisotropic_material, make_material, mixed_block, random_tet_mesh

ALL_VARIANTS = list(Variant)


def test_variant_roman_aliases():
    assert Variant.from_string("i") is Variant.DEFORMED_ANISO_TEMP_DEP
    assert Variant.from_string("III") is Variant.CLASSICAL_ANISO_TEMP_INDEP
    assert Variant.from_string("classical_iso_temp_indep") is Variant.CLASSICAL_ISO_TEMP_INDEP
    assert Variant.from_string("v").roman == "v"
    with pytest.raises(ValueError):
        Variant.from_string("vi")


def test_unit_tet_frozen_loads(unit_tet, simple_material):
    mesh, pre = unit_tet
    op = ConductionOperator(mesh, pre, simple_material, Variant.CLASSICAL_ISO_TEMP_INDEP)
    loads = op.apply(np.array([0.0, 1.0, 0.0, 0.0]))
    np.testing.assert_allclose(loads, [-1.0 / 6.0, 1.0 / 6.0, 0.0, 0.0], atol=1e-15)


def test_loads_vanish_on_uniform_field():
    mesh = random_tet_mesh(n_cells=2, seed=4, jitter=0.2)
    pre = precompute(mesh)
    op = ConductionOperator(mesh, pre, make_material(k=0.6), Variant.CLASSICAL_ISO_TEMP_INDEP)
    loads = op.apply(np.full(mesh.n_nodes, 41.3))
    np.testing.assert_allclose(loads, 0.0, atol=1e-12)


def _test_meshes():
    return (random_tet_mesh(n_cells=2, seed=4, jitter=0.2),
            make_block_mesh(2, 3, 2, element="hex8", jitter=0.15, seed=4),
            mixed_block())


def _materials_for(variant, tissue):
    return (tissue,) if variant.requires_isotropic else (tissue, anisotropic_material())


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.roman)
def test_uniform_field_loads_are_exactly_zero(variant, tissue_material):
    # the gather takes differences to each element's first node, so a
    # uniform field has an exactly zero gradient whatever its value
    rng = np.random.default_rng(10)
    for mesh in _test_meshes():
        pre = precompute(mesh)
        moved = DeformationState(0.03 * rng.normal(size=(mesh.n_nodes, 3)))
        for mat in _materials_for(variant, tissue_material):
            op = ConductionOperator(mesh, pre, mat, variant)
            for value in (37.0, 41.3, 20.0 + 40.0 * rng.random()):
                temps = np.full(mesh.n_nodes, value)
                assert np.all(op.apply(temps) == 0.0), (mesh.n_elements, value)
                if variant.uses_deformation:
                    assert np.all(op.apply(temps, deformation=moved) == 0.0)
                    assert np.all(op.apply(temps, deformation=moved) == 0.0)  # memoised


def _reference_loads(mesh, pre, material, temps, property_temp=None, disp=None):
    """sum over elements of w G^T D G x from family.grads (G = J^-T dn^T),
    on the displaced geometry W = F^-T G with weight w det F when disp is
    given; D at property_temp, or at each element's mean temperature."""
    out = np.zeros(mesh.n_nodes)
    for family in pre:
        x = temps[family.conn]
        tmean = x.mean(axis=1) if property_temp is None else np.full(len(x), property_temp)
        k = material.conductivity.evaluate(tmean)
        d = k[:, None, None] * np.eye(3) if material.isotropic else k
        grads, weights = family.grads, family.weights
        if disp is not None:
            f = np.eye(3) + np.einsum("eak,ekj->eja", grads, disp[family.conn])
            weights = weights * np.linalg.det(f)
            grads = np.linalg.solve(np.transpose(f, (0, 2, 1)), grads)
        loads = weights[:, None] * np.einsum("eia,eij,ejb,eb->ea", grads, d, grads, x)
        out += np.bincount(family.conn.ravel(), weights=loads.ravel(), minlength=mesh.n_nodes)
    return out


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.roman)
def test_factored_loads_match_element_matrices(variant, tissue_material):
    # dn A_e dn^T (frozen) and dn Q^T (w det F k) Q dn^T (pullback) against
    # w G^T D G formed from the precompute's shape-function gradients
    rng = np.random.default_rng(11)
    for mesh in _test_meshes():
        pre = precompute(mesh)
        temps = 37.0 + 20.0 * rng.random(mesh.n_nodes)
        disp = 0.03 * rng.normal(size=(mesh.n_nodes, 3))
        for mat in _materials_for(variant, tissue_material):
            op = ConductionOperator(mesh, pre, mat, variant)
            t_ref = 37.0 if variant.full_precompute else None
            cases = [(op.apply(temps), _reference_loads(mesh, pre, mat, temps, t_ref))]
            if variant.uses_deformation:
                cases.append((op.apply(temps, deformation=DeformationState(disp)),
                              _reference_loads(mesh, pre, mat, temps, disp=disp)))
            for loads, expected in cases:
                np.testing.assert_allclose(loads, expected, rtol=0,
                                           atol=1e-13 * np.abs(expected).max())


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.roman)
def test_operator_geometry_comes_from_the_precompute(variant, tissue_material):
    # the mesh gives the operator its node count only: with the same
    # precompute, other node coordinates must give the same loads
    rng = np.random.default_rng(12)
    for mesh in _test_meshes():
        pre = precompute(mesh)
        other = Mesh(nodes=1.5 * mesh.nodes, tets=mesh.tets, hexes=mesh.hexes)
        temps = 37.0 + 20.0 * rng.random(mesh.n_nodes)
        moved = DeformationState(0.02 * rng.normal(size=(mesh.n_nodes, 3)))
        for mat in _materials_for(variant, tissue_material):
            ops = [ConductionOperator(m, pre, mat, variant) for m in (mesh, other)]
            for state in (None, moved):
                loads, other_loads = (op.apply(temps, deformation=state) for op in ops)
                assert np.array_equal(loads, other_loads), mesh.n_elements


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.roman)
def test_loads_sum_to_zero(variant):
    # conduction redistributes heat, it must not create or destroy it
    mesh = random_tet_mesh(n_cells=2, seed=7, jitter=0.2)
    pre = precompute(mesh)
    op = ConductionOperator(mesh, pre, make_material(k=0.53), variant)
    rng = np.random.default_rng(1)
    temps = 37.0 + 5.0 * rng.random(mesh.n_nodes)
    loads = op.apply(temps)
    assert abs(loads.sum()) < 1e-10 * np.abs(loads).sum()


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.roman)
def test_operator_is_positive_semidefinite(variant):
    mesh = random_tet_mesh(n_cells=2, seed=9, jitter=0.2)
    pre = precompute(mesh)
    op = ConductionOperator(mesh, pre, make_material(k=0.53), variant)
    rng = np.random.default_rng(2)
    for _ in range(10):
        t = rng.normal(size=mesh.n_nodes)
        assert t @ op.apply(t) >= -1e-12


def test_rotation_invariance_isotropic(simple_material):
    rng = np.random.default_rng(3)
    coords = rng.random((4, 3))
    while np.linalg.det(coords[1:] - coords[0]) < 0.05:
        coords = rng.random((4, 3))
    temps = rng.random(4)

    def loads_for(c, variant=Variant.CLASSICAL_ISO_TEMP_INDEP, disp=None):
        mesh = Mesh(nodes=c, tets=np.array([[0, 1, 2, 3]], dtype=np.intp),
                    hexes=np.zeros((0, 8), dtype=np.intp))
        op = ConductionOperator(mesh, precompute(mesh), simple_material, variant)
        return op.apply(temps, deformation=None if disp is None else DeformationState(disp))

    theta = 0.83
    rot = np.array([[np.cos(theta), -np.sin(theta), 0.0],
                    [np.sin(theta), np.cos(theta), 0.0],
                    [0.0, 0.0, 1.0]])
    shift = np.array([0.7, -0.3, 1.9])
    reference = loads_for(coords)
    for moved in (loads_for(coords @ rot.T), loads_for(coords + shift),
                  # a rigid translation as a displacement field: F = I
                  loads_for(coords, Variant.DEFORMED_ANISO_TEMP_DEP, np.tile(shift, (4, 1)))):
        np.testing.assert_allclose(moved, reference, rtol=1e-11, atol=1e-13)


@pytest.mark.parametrize("scale", [0.5, 2.0, 3.7])
def test_uniform_scaling_of_deformation_scales_loads(unit_tet, simple_material, scale):
    # with F = s I the pulled-back conductance scales linearly in s
    mesh, pre = unit_tet
    op = ConductionOperator(mesh, pre, simple_material, Variant.DEFORMED_ANISO_TEMP_DEP)
    temps = np.array([0.0, 1.0, 0.0, 0.0])
    base = op.apply(temps)
    disp = (scale - 1.0) * mesh.nodes
    scaled = op.apply(temps, deformation=DeformationState(disp))
    np.testing.assert_allclose(scaled, scale * base, rtol=1e-12)


def test_uniform_scaling_hex(unit_cube_hex, simple_material):
    mesh, pre = unit_cube_hex
    op = ConductionOperator(mesh, pre, simple_material, Variant.DEFORMED_ANISO_TEMP_DEP)
    temps = mesh.nodes[:, 0] + 0.5 * mesh.nodes[:, 1]
    base = op.apply(temps)
    disp = 1.5 * mesh.nodes  # F = 2.5 I
    scaled = op.apply(temps, deformation=DeformationState(disp))
    np.testing.assert_allclose(scaled, 2.5 * base, rtol=1e-12)


def test_pullback_matches_assembly_on_deformed_coordinates():
    """Reference-configuration loads with per-element F equal a direct
    evaluation on the displaced coordinates (exact for tets)."""
    rng = np.random.default_rng(17)
    mesh = random_tet_mesh(n_cells=2, seed=17, jitter=0.2)
    pre = precompute(mesh)
    mat = make_material(k=0.61)
    op = ConductionOperator(mesh, pre, mat, Variant.DEFORMED_ANISO_TEMP_DEP)
    temps = 37.0 + 3.0 * rng.random(mesh.n_nodes)

    a = np.eye(3) + 0.2 * rng.normal(size=(3, 3))
    assert np.linalg.det(a) > 0.3
    disp = mesh.nodes @ (a - np.eye(3)).T
    loads = op.apply(temps, deformation=DeformationState(disp))

    deformed = mesh.nodes + disp
    expected = np.zeros(mesh.n_nodes)
    d = 0.61 * np.eye(3)
    for conn in mesh.tets:
        le = brute_force_element_load(deformed[conn], d, temps[conn], n_points=1)
        np.add.at(expected, conn, le)
    np.testing.assert_allclose(loads, expected, rtol=1e-11, atol=1e-13)


def test_variant_coherence_constant_isotropic():
    # constant isotropic conductivity and a resting mesh make all five
    # formulations the same operator
    mesh = random_tet_mesh(n_cells=2, seed=21, jitter=0.15)
    pre = precompute(mesh)
    mat = make_material(k=0.52)
    rng = np.random.default_rng(5)
    temps = 37.0 + 4.0 * rng.random(mesh.n_nodes)
    reference = None
    for variant in ALL_VARIANTS:
        op = ConductionOperator(mesh, pre, mat, variant)
        loads = op.apply(temps)
        if reference is None:
            reference = loads
        else:
            np.testing.assert_allclose(loads, reference, rtol=1e-12, atol=1e-14)


def test_anisotropic_matches_isotropic_when_tensor_is_spherical():
    mesh = random_tet_mesh(n_cells=2, seed=23, jitter=0.1)
    pre = precompute(mesh)
    iso = MaterialModel(
        density=PropertyTable.constant(1060.0),
        specific_heat=PropertyTable.constant(3600.0),
        conductivity=PropertyTable([[37.0, 0.5], [65.0, 0.6]]),
    )
    spherical = MaterialModel(
        density=PropertyTable.constant(1060.0),
        specific_heat=PropertyTable.constant(3600.0),
        conductivity=TensorPropertyTable({
            "xx": [[37.0, 0.5], [65.0, 0.6]],
            "yy": [[37.0, 0.5], [65.0, 0.6]],
            "zz": [[37.0, 0.5], [65.0, 0.6]],
            "xy": [[37.0, 0.0]], "xz": [[37.0, 0.0]], "yz": [[37.0, 0.0]],
        }),
    )
    rng = np.random.default_rng(8)
    temps = 37.0 + 20.0 * rng.random(mesh.n_nodes)
    op_iso = ConductionOperator(mesh, pre, iso, Variant.CLASSICAL_ISO_TEMP_DEP)
    op_tensor = ConductionOperator(mesh, pre, spherical, Variant.CLASSICAL_ANISO_TEMP_DEP)
    np.testing.assert_allclose(op_iso.apply(temps), op_tensor.apply(temps),
                               rtol=1e-12, atol=1e-13)


def test_precomputed_variants_skip_table_lookups():
    mesh = random_tet_mesh(n_cells=2, seed=2, jitter=0.1)
    pre = precompute(mesh)
    mat = make_material(k=0.53)
    temps = np.full(mesh.n_nodes, 40.0)
    for variant, expected_calls in [
        (Variant.CLASSICAL_ISO_TEMP_INDEP, 0),
        (Variant.CLASSICAL_ANISO_TEMP_INDEP, 0),
        (Variant.CLASSICAL_ISO_TEMP_DEP, 3),
    ]:
        op = ConductionOperator(mesh, pre, mat, variant)
        before = mat.conductivity.evaluations
        for _ in range(3):
            op.apply(temps)
        assert mat.conductivity.evaluations - before == expected_calls, variant


def test_variants_iv_v_require_isotropic():
    mesh = random_tet_mesh(n_cells=1, seed=0, jitter=0.0)
    pre = precompute(mesh)
    aniso = MaterialModel(
        density=PropertyTable.constant(1060.0),
        specific_heat=PropertyTable.constant(3600.0),
        conductivity=TensorPropertyTable({
            "xx": [[37.0, 0.6]], "yy": [[37.0, 0.5]], "zz": [[37.0, 0.4]],
            "xy": [[37.0, 0.0]], "xz": [[37.0, 0.0]], "yz": [[37.0, 0.0]],
        }),
    )
    with pytest.raises(Exception):
        ConductionOperator(mesh, pre, aniso, Variant.CLASSICAL_ISO_TEMP_DEP)


def test_resting_fallback_bitwise_equals_identity_deformation(tissue_material):
    # F built from zero displacements is exactly I, and ii and iv are the
    # pullback at rest, so all of them must produce the same bits
    rng = np.random.default_rng(9)
    for mesh in (random_tet_mesh(n_cells=2, seed=31, jitter=0.2),
                 make_block_mesh(3, 2, 2, element="hex8", jitter=0.15, seed=31),
                 mixed_block()):
        pre = precompute(mesh)
        temps = 37.0 + 20.0 * rng.random(mesh.n_nodes)
        rest = DeformationState(np.zeros((mesh.n_nodes, 3)))
        moved = DeformationState(0.02 * rng.normal(size=(mesh.n_nodes, 3)))
        for mat, classical in (
            (tissue_material, (Variant.CLASSICAL_ANISO_TEMP_DEP, Variant.CLASSICAL_ISO_TEMP_DEP)),
            (anisotropic_material(), (Variant.CLASSICAL_ANISO_TEMP_DEP,)),
        ):
            op = ConductionOperator(mesh, pre, mat, Variant.DEFORMED_ANISO_TEMP_DEP)
            a = op.apply(temps)
            assert np.array_equal(a, op.apply(temps, deformation=rest))
            op.apply(temps, deformation=moved)
            assert np.array_equal(a, op.apply(temps, deformation=rest))  # rebuilt at rest
            for variant in classical:
                other = ConductionOperator(mesh, pre, mat, variant)
                assert np.array_equal(a, other.apply(temps, deformation=moved)), variant.roman


def test_geometry_memo_matches_fresh_operator():
    # A -> B -> A (and back through rest): a memoised operator must give the
    # bits of one that has never seen another deformation; the rebuild at
    # zero displacement gives the constructor's memo
    mat = make_material(k=0.5)
    rng = np.random.default_rng(41)
    for mesh in (random_tet_mesh(n_cells=3, seed=41, jitter=0.2),
                 make_block_mesh(3, 2, 2, element="hex8", jitter=0.15, seed=41),
                 mixed_block()):
        pre = precompute(mesh)
        temps = 37.0 + 2.0 * rng.random(mesh.n_nodes)
        a = DeformationState(0.02 * rng.normal(size=(mesh.n_nodes, 3)))
        b = DeformationState(0.02 * rng.normal(size=(mesh.n_nodes, 3)))
        rest = DeformationState(np.zeros((mesh.n_nodes, 3)))
        op = ConductionOperator(mesh, pre, mat, Variant.DEFORMED_ANISO_TEMP_DEP)
        results = []
        for state in (a, b, a, a, None, a, rest):
            fresh = ConductionOperator(mesh, pre, mat, Variant.DEFORMED_ANISO_TEMP_DEP)
            loads = op.apply(temps, deformation=state)
            assert np.array_equal(loads, fresh.apply(temps, deformation=state))
            results.append(loads)
        assert not np.array_equal(results[0], results[1])
        assert np.array_equal(results[-1], results[4])

        # a rebuild that fails on a collapsed element must not leave a stale memo
        with pytest.raises(SingularDeformationError):
            op.apply(temps, deformation=DeformationState(-mesh.nodes))
        assert np.array_equal(op.apply(temps, deformation=a), results[0])


def test_geometry_memo_sees_in_place_changes():
    mesh = random_tet_mesh(n_cells=3, seed=42, jitter=0.2)
    pre = precompute(mesh)
    mat = make_material(k=0.5)
    rng = np.random.default_rng(42)
    temps = 37.0 + 2.0 * rng.random(mesh.n_nodes)
    disp = 0.02 * rng.normal(size=(mesh.n_nodes, 3))
    state = DeformationState(disp)
    op = ConductionOperator(mesh, pre, mat, Variant.DEFORMED_ANISO_TEMP_DEP)
    before = op.apply(temps, deformation=state)
    disp[7] += 0.01  # the caller edits its own array between calls
    assert state.displacements is disp
    after = op.apply(temps, deformation=state)
    fresh = ConductionOperator(mesh, pre, mat, Variant.DEFORMED_ANISO_TEMP_DEP)
    assert np.array_equal(after, fresh.apply(temps, deformation=state))
    assert not np.array_equal(before, after)


@pytest.mark.parametrize("element", ["tet4", "hex8"])
def test_anisotropic_pullback_matches_oracle_on_deformed_coordinates(element):
    mesh = make_block_mesh(2, 2, 2, element=element, jitter=0.15, seed=43)
    pre = precompute(mesh)
    mat = anisotropic_material()
    rng = np.random.default_rng(43)
    temps = 37.0 + 20.0 * rng.random(mesh.n_nodes)
    disp = 0.03 * rng.normal(size=(mesh.n_nodes, 3))
    op = ConductionOperator(mesh, pre, mat, Variant.DEFORMED_ANISO_TEMP_DEP)
    loads = op.apply(temps, deformation=DeformationState(disp))
    stiffness = OracleAssembler(mesh, mat).stiffness(coords=mesh.nodes + disp, temps=temps)
    expected = stiffness @ temps
    np.testing.assert_allclose(loads, expected, rtol=0, atol=1e-10 * np.abs(expected).max())


def test_deformed_hex_batch_matches_single_element_kernel(tissue_material):
    # each element against the oracle's one-point rule on the displaced
    # coordinates, with k(T) at the element mean temperature
    mesh = make_block_mesh(3, 2, 2, element="hex8", jitter=0.15, seed=44)
    pre = precompute(mesh)
    rng = np.random.default_rng(44)
    temps = 37.0 + 10.0 * rng.random(mesh.n_nodes)
    disp = 0.03 * rng.normal(size=(mesh.n_nodes, 3))
    op = ConductionOperator(mesh, pre, tissue_material, Variant.DEFORMED_ANISO_TEMP_DEP)
    loads = op.apply(temps, deformation=DeformationState(disp))

    deformed = mesh.nodes + disp
    expected = np.zeros(mesh.n_nodes)
    for conn in mesh.hexes:
        d = tissue_material.conductivity_matrix(float(temps[conn].mean()))
        le = brute_force_element_load(deformed[conn], d, temps[conn], n_points=1)
        np.add.at(expected, conn, le)
    np.testing.assert_allclose(loads, expected, rtol=1e-12,
                               atol=1e-13 * np.abs(expected).max())


def test_singular_deformation_names_global_element():
    mesh = random_tet_mesh(n_cells=5, seed=13, jitter=0.2)  # 750 tets
    pre = precompute(mesh)
    last = mesh.tets[-1]
    node = last.max()
    face = mesh.nodes[last[last != node]]
    normal = np.cross(face[1] - face[0], face[2] - face[0])
    normal /= np.linalg.norm(normal)
    disp = np.zeros((mesh.n_nodes, 3))
    disp[node] = -2.0 * ((mesh.nodes[node] - face[0]) @ normal) * normal  # mirror it

    def signed_volumes(x):
        e = x[mesh.tets[:, 1:]] - x[mesh.tets[:, :1]]
        return np.linalg.det(e)

    ratio = signed_volumes(mesh.nodes + disp) / signed_volumes(mesh.nodes)
    first_bad = int(np.argmax(ratio <= 1e-9))
    assert ratio[first_bad] <= 1e-9 and first_bad >= mesh.n_elements // 2

    op = ConductionOperator(mesh, pre, make_material(k=0.5), Variant.DEFORMED_ANISO_TEMP_DEP)
    with pytest.raises(SingularDeformationError, match=f"tet4 element {first_bad}:"):
        op.apply(np.zeros(mesh.n_nodes), deformation=DeformationState(disp))


def test_nan_written_into_displacements_names_global_element():
    # DeformationState does not check its values, and keeps the caller's
    # array: a NaN written into it reaches the pullback, whose det floor
    # must catch it
    mesh = random_tet_mesh(n_cells=5, seed=13, jitter=0.2)  # 750 tets
    pre = precompute(mesh)
    first_use = np.full(mesh.n_nodes, mesh.n_elements)
    np.minimum.at(first_use, mesh.tets.ravel(), np.repeat(np.arange(mesh.n_elements), 4))
    node = int(np.argmax(first_use))
    first_bad = int(first_use[node])
    assert first_bad >= mesh.n_elements // 2

    temps = 37.0 + np.arange(mesh.n_nodes) % 5
    op = ConductionOperator(mesh, pre, make_material(k=0.5), Variant.DEFORMED_ANISO_TEMP_DEP)
    disp = np.zeros((mesh.n_nodes, 3))
    state = DeformationState(disp)
    assert np.all(np.isfinite(op.apply(temps, deformation=state)))
    disp[node, 1] = np.nan
    with pytest.raises(SingularDeformationError, match=f"tet4 element {first_bad}:"):
        op.apply(temps, deformation=state)


def test_singular_deformation_reports_element(unit_tet, simple_material):
    mesh, pre = unit_tet
    op = ConductionOperator(mesh, pre, simple_material, Variant.DEFORMED_ANISO_TEMP_DEP)
    disp = -mesh.nodes  # collapses everything to the origin
    with pytest.raises(SingularDeformationError, match="element 0"):
        op.apply(np.zeros(4), deformation=DeformationState(disp))


def test_hex_one_point_exact_for_linear_fields(unit_cube_hex, simple_material):
    mesh, pre = unit_cube_hex
    op = ConductionOperator(mesh, pre, simple_material, Variant.CLASSICAL_ISO_TEMP_INDEP)
    temps = 2.0 * mesh.nodes[:, 0] - mesh.nodes[:, 1] + 0.3 * mesh.nodes[:, 2]
    full = brute_force_element_load(mesh.nodes, np.eye(3), temps, n_points=8)
    np.testing.assert_allclose(op.apply(temps), full, rtol=1e-12, atol=1e-14)


def test_single_element_kernels_agree_with_operator(unit_tet, unit_cube_hex, simple_material):
    # one stretched element through the operator against the oracle's
    # one-point rule on the displaced coordinates
    f = np.diag([1.2, 0.9, 1.05])
    for (mesh, pre), temps in ((unit_tet, np.array([1.0, 2.0, 0.5, 3.0])),
                               (unit_cube_hex, unit_cube_hex[0].nodes[:, 2].copy())):
        disp = mesh.nodes @ (f - np.eye(3)).T
        direct = brute_force_element_load(mesh.nodes + disp, np.eye(3), temps, n_points=1)
        op = ConductionOperator(mesh, pre, simple_material, Variant.DEFORMED_ANISO_TEMP_DEP)
        np.testing.assert_allclose(direct, op.apply(temps, deformation=DeformationState(disp)),
                                   rtol=1e-13)


# the fused mass sums each node's element shares in component-major order
# on production's weights and takes the kernel's element mean, so it may
# differ from the oracle's element-major lumping by a few rounding steps
MASS_RTOL = 8 * np.finfo(np.float64).eps


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.roman)
def test_fused_mass_matches_lumped_thermal_mass(variant, tissue_material):
    rng = np.random.default_rng(61)
    for mesh in (random_tet_mesh(n_cells=2, seed=61, jitter=0.2),
                 make_block_mesh(3, 2, 2, element="hex8", jitter=0.15, seed=61),
                 mixed_block()):
        pre = precompute(mesh)
        temps = 37.0 + 25.0 * rng.random(mesh.n_nodes)
        moved = DeformationState(0.01 * rng.normal(size=(mesh.n_nodes, 3)))
        op = ConductionOperator(mesh, pre, tissue_material, variant)
        mass = np.full(mesh.n_nodes, np.nan)
        loads = op.apply(temps, deformation=moved, mass=mass)
        assembler = OracleAssembler(mesh, tissue_material)
        reference = assembler.lumped_mass(assembler.mean_temperatures(temps))
        np.testing.assert_allclose(mass, reference, rtol=MASS_RTOL, atol=0.0)
        assert np.array_equal(loads, op.apply(temps, deformation=moved))


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.roman)
def test_fused_mass_follows_temps_not_property_temps(variant, tissue_material):
    mesh = mixed_block()
    pre = precompute(mesh)
    rng = np.random.default_rng(62)
    temps = 37.0 + 25.0 * rng.random(mesh.n_nodes)
    frozen = np.full(mesh.n_nodes, 60.0)
    op = ConductionOperator(mesh, pre, tissue_material, variant)
    mass, own = np.empty(mesh.n_nodes), np.empty(mesh.n_nodes)
    loads = op.apply(temps, property_temps=frozen, mass=mass)
    op.apply(temps, mass=own)
    assert np.array_equal(mass, own)
    assert np.array_equal(loads, op.apply(temps, property_temps=frozen))
    at_frozen = build_thermal_state(mesh, pre, tissue_material, PerfusionParams(),
                                    BoundaryConditions(), 60.0).lumped_mass
    assert not np.allclose(mass, at_frozen)


def test_apply_validates_shapes(unit_tet, simple_material):
    mesh, pre = unit_tet
    op = ConductionOperator(mesh, pre, simple_material, Variant.CLASSICAL_ISO_TEMP_INDEP)
    with pytest.raises(ValueError):
        op.apply(np.zeros(7))


@pytest.mark.parametrize("variant", [Variant.DEFORMED_ANISO_TEMP_DEP,
                                     Variant.CLASSICAL_ANISO_TEMP_DEP,
                                     Variant.CLASSICAL_ISO_TEMP_DEP], ids=lambda v: v.roman)
def test_property_temps_shape_is_validated(tissue_material, variant):
    # a property field of the wrong length must not be read through
    # clipped indices
    mesh = random_tet_mesh(n_cells=2, seed=6, jitter=0.2)
    pre = precompute(mesh)
    op = ConductionOperator(mesh, pre, tissue_material, variant)
    n = mesh.n_nodes
    temps = np.full(n, 37.0)
    for bad in (np.full(5, 40.0), np.full(n + 3, 40.0), np.full((n, 1), 40.0)):
        with pytest.raises(ValueError, match="property temperature"):
            op.apply(temps, property_temps=bad)
    state = build_thermal_state(mesh, pre, tissue_material, PerfusionParams(),
                                BoundaryConditions(), 37.0)
    state.T = np.full(3, 40.0)
    with pytest.raises(ValueError, match="property temperature"):
        estimate_critical_dt(op, state)


@pytest.mark.parametrize("transpose", [False, True])
def test_mat3_is_the_three_term_sum(transpose):
    # einsum starts each sum from +0.0 where the written sum starts from its
    # first product, so only the sign of a zero result can differ: results
    # compare by value, and bit for bit where they are not zero
    rng = np.random.default_rng(72)
    n = 1001  # rows padded to the cache line
    m = fedbht.kernels._aligned_rows((3, 3), n)
    m[...] = rng.normal(size=(3, 3, n))
    vecs = fedbht.kernels._aligned_rows((3,), n)
    vecs[...] = rng.normal(size=(3, n))
    vecs[:, :5] = -0.0  # zero results
    mm = m.transpose(1, 0, 2) if transpose else m
    expected = np.array([mm[i, 0] * vecs[0] + mm[i, 1] * vecs[1] + mm[i, 2] * vecs[2]
                         for i in range(3)])
    out = fedbht.kernels._aligned_rows((3,), n)
    assert fedbht.kernels._mat3(m, vecs, out, transpose=transpose) is out
    assert np.array_equal(out, expected)
    nonzero = expected != 0.0
    assert nonzero[:, 5:].all()
    assert out[nonzero].tobytes() == expected[nonzero].tobytes()


def test_kernels_import_no_thread_pool_or_os():
    """The operator has one serial code path: kernels.py may not import
    concurrent.futures, nor os to read a setting from the environment."""
    tree = ast.parse(Path(fedbht.kernels.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imported.add(node.module)
    roots = {name.split(".")[0] for name in imported}
    assert not roots & {"os", "concurrent"}, sorted(imported)
