import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

import fedbht.integrator
import fedbht.oracle
from fedbht.blockmesh import make_block_mesh
from fedbht.deformation import (
    AffineDeformation,
    DeformationState,
    IdentityDeformation,
    TrajectoryDeformation,
)
from fedbht.errors import GeometryError
from fedbht.integrator import (
    BoundaryConditions,
    DirichletBC,
    FilmBC,
    FluxBC,
    Schedule,
    build_thermal_state,
    node_volumes,
    run,
)
from fedbht.kernels import ConductionOperator, Variant
from fedbht.material import MaterialModel, PerfusionParams, PropertyTable
from fedbht.mesh import Mesh, precompute
from fedbht.metrics import normalized_error
from fedbht.oracle import (
    SOLVER_RTOL,
    OracleAssembler,
    dense_lambda_max,
    brute_force_element_load,
    hex_gauss_rule,
    quadrature_volume,
    reference_transient,
)

from conftest import (
    anisotropic_material,
    make_material,
    mixed_block,
    random_tet_mesh,
    temperature_dependent_material,
)

NO_BC = BoundaryConditions(dirichlet=(), fluxes=(), films=())


def assert_bitwise(ours, theirs):
    """Equal shape, dtype and bytes; unlike np.array_equal this tells -0.0
    from +0.0."""
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    assert ours.shape == theirs.shape and ours.dtype == theirs.dtype
    assert ours.tobytes() == theirs.tobytes()


def distorted_hex(amplitude=0.3):
    cube = np.array([
        [0.0, 0, 0], [1.0, 0, 0], [1.0, 1, 0], [0.0, 1, 0],
        [0.0, 0, 1], [1.0, 0, 1], [1.0, 1, 1], [0.0, 1, 1],
    ])
    rng = np.random.default_rng(6)
    return cube + amplitude * rng.uniform(-0.25, 0.25, size=(8, 3))


def test_quadrature_volume_matches_precompute():
    mesh = random_tet_mesh(n_cells=3, seed=3, jitter=0.2)
    volume = float(sum(f.weights.sum() for f in precompute(mesh)))
    np.testing.assert_allclose(quadrature_volume(mesh), volume, rtol=1e-12)


def test_quadrature_volume_hex():
    nodes = distorted_hex(0.2)
    mesh = Mesh(nodes=nodes, tets=np.zeros((0, 4), dtype=np.intp),
                hexes=np.arange(8, dtype=np.intp).reshape(1, 8))
    v_quad = quadrature_volume(mesh)
    # centre-point volume underestimates a distorted cell; the 8-point
    # rule integrates the trilinear Jacobian exactly
    assert v_quad == pytest.approx(1.0, rel=0.25)


def test_gauss_rules_reject_unknown_counts():
    for n in (1, 8, 27):
        points, weights = hex_gauss_rule(n)
        assert points.shape == (n, 3)
        assert weights.sum() == pytest.approx(8.0, rel=1e-13)
    with pytest.raises(ValueError):
        hex_gauss_rule(5)


def test_tet_rules_agree_on_constant_gradient():
    rng = np.random.default_rng(12)
    coords = rng.random((4, 3))
    if np.linalg.det(coords[1:] - coords[0]) < 0:
        coords[[1, 2]] = coords[[2, 1]]
    temps = rng.random(4)
    d = np.diag([0.5, 0.6, 0.7])
    ref = brute_force_element_load(coords, d, temps, n_points=1)
    for n in (2, 4):
        np.testing.assert_allclose(
            brute_force_element_load(coords, d, temps, n_points=n),
            ref, rtol=1e-12)


def test_hex_rules_agree_on_affine_cell(unit_cube_hex):
    mesh, _ = unit_cube_hex
    rng = np.random.default_rng(1)
    temps = rng.random(8)
    d = 0.5 * np.eye(3)
    r8 = brute_force_element_load(mesh.nodes, d, temps, n_points=8)
    r27 = brute_force_element_load(mesh.nodes, d, temps, n_points=27)
    np.testing.assert_allclose(r8, r27, rtol=1e-12, atol=1e-15)


def test_one_point_hex_defect_shrinks_under_refinement():
    """Reduced integration differs from the full rule on a distorted cell;
    splitting the cell through its trilinear map must shrink the gap."""
    corners = distorted_hex(0.5)

    def trilinear(xi):
        s = np.array([[-1, -1, -1], [1, -1, -1], [1, 1, -1], [-1, 1, -1],
                      [-1, -1, 1], [1, -1, 1], [1, 1, 1], [-1, 1, 1]])
        shapes = np.prod(1.0 + s * xi, axis=1) / 8.0
        return shapes @ corners

    def energy_gap(level):
        ticks = np.linspace(-1.0, 1.0, level + 1)
        nodes = np.array([trilinear(np.array([x, y, z]))
                          for z in ticks for y in ticks for x in ticks])
        nid = lambda i, j, k: (k * (level + 1) + j) * (level + 1) + i
        hexes = []
        for k in range(level):
            for j in range(level):
                for i in range(level):
                    hexes.append([nid(i, j, k), nid(i + 1, j, k),
                                  nid(i + 1, j + 1, k), nid(i, j + 1, k),
                                  nid(i, j, k + 1), nid(i + 1, j, k + 1),
                                  nid(i + 1, j + 1, k + 1), nid(i, j + 1, k + 1)])
        mesh = Mesh(nodes=nodes, tets=np.zeros((0, 4), dtype=np.intp),
                    hexes=np.array(hexes, dtype=np.intp))
        temps = nodes[:, 0] ** 2 + 0.5 * nodes[:, 1] * nodes[:, 2]
        op = ConductionOperator(mesh, precompute(mesh), make_material(k=1.0),
                                Variant.CLASSICAL_ISO_TEMP_INDEP)
        reduced = temps @ op.apply(temps)
        full = 0.0
        d = np.eye(3)
        for conn in mesh.hexes:
            full += temps[conn] @ brute_force_element_load(
                nodes[conn], d, temps[conn], n_points=27)
        return abs(reduced - full) / abs(full)

    coarse, fine = energy_gap(1), energy_gap(2)
    assert coarse > 1e-4  # the defect is visible on the unrefined cell
    assert fine < coarse


def test_assembled_stiffness_properties():
    mesh = random_tet_mesh(n_cells=2, seed=15, jitter=0.2)
    mat = make_material(k=0.54)
    k = OracleAssembler(mesh, mat).stiffness()
    assert k.shape == (mesh.n_nodes, mesh.n_nodes)
    dense = k.toarray()
    np.testing.assert_allclose(dense, dense.T, atol=1e-14)
    np.testing.assert_allclose(dense.sum(axis=1), 0.0, atol=1e-13)
    eigs = np.linalg.eigvalsh(dense)
    assert eigs.min() > -1e-12


def test_assembly_matches_matrix_free_classical():
    # two independent shape-gradient derivations must produce the same
    # operator; the mixed mesh takes ii's tensor path through hex8 too
    rng = np.random.default_rng(2)
    for mesh, mat, spread, variants in (
        (random_tet_mesh(n_cells=3, seed=16, jitter=0.2), make_material(k=0.61), 1.0,
         (Variant.CLASSICAL_ISO_TEMP_INDEP, Variant.CLASSICAL_ANISO_TEMP_DEP)),
        (mixed_block(), anisotropic_material(), 20.0, (Variant.CLASSICAL_ANISO_TEMP_DEP,)),
    ):
        pre = precompute(mesh)
        temps = 37.0 + spread * rng.random(mesh.n_nodes)
        k = OracleAssembler(mesh, mat).stiffness(temps=temps)
        for variant in variants:
            op = ConductionOperator(mesh, pre, mat, variant)
            np.testing.assert_allclose(op.apply(temps), k @ temps,
                                       rtol=1e-11, atol=1e-13)


def test_assembly_on_displaced_coordinates_matches_pullback():
    mesh = random_tet_mesh(n_cells=2, seed=18, jitter=0.15)
    pre = precompute(mesh)
    mat = make_material(k=0.5)
    rng = np.random.default_rng(3)
    disp = 0.04 * rng.normal(size=(mesh.n_nodes, 3))
    temps = 37.0 + rng.random(mesh.n_nodes)
    op = ConductionOperator(mesh, pre, mat, Variant.DEFORMED_ANISO_TEMP_DEP)
    loads = op.apply(temps, deformation=DeformationState(disp))
    k = OracleAssembler(mesh, mat).stiffness(coords=mesh.nodes + disp)
    np.testing.assert_allclose(loads, k @ temps, rtol=1e-11, atol=1e-13)


def test_deformed_mixed_anisotropic_stiffness_matches_quadrature():
    mesh = mixed_block()
    mat = anisotropic_material()
    rng = np.random.default_rng(53)
    temps = 37.0 + 20.0 * rng.random(mesh.n_nodes)
    coords = mesh.nodes + 0.03 * rng.normal(size=(mesh.n_nodes, 3))
    k = OracleAssembler(mesh, mat).stiffness(coords=coords, temps=temps)

    expected = np.zeros(mesh.n_nodes)
    for conn in [*mesh.tets, *mesh.hexes]:
        d = mat.conductivity_matrix(float(temps[conn].mean()))
        expected[conn] += brute_force_element_load(coords[conn], d, temps[conn], n_points=1)
    scale = np.abs(expected).max()
    np.testing.assert_allclose(k @ temps, expected, rtol=1e-11, atol=1e-11 * scale)

    dense = k.toarray()
    np.testing.assert_allclose(dense, dense.T, rtol=0, atol=1e-14 * np.abs(dense).max())
    np.testing.assert_allclose(dense.sum(axis=1), 0.0, atol=1e-14 * np.abs(dense).max())


@pytest.mark.parametrize("element", ["tet4", "hex8"])
def test_non_finite_coordinates_are_rejected(element):
    mesh = make_block_mesh(2, 2, 2, element=element, jitter=0.1, seed=54)
    coords = mesh.nodes.copy()
    coords[mesh.n_nodes // 2, 2] = np.nan
    with pytest.raises(GeometryError, match=f"{element} element"):
        OracleAssembler(mesh, make_material(k=0.5)).stiffness(coords=coords)


MEMO_MESHES = {
    "tet4": lambda: make_block_mesh(2, 2, 2, jitter=0.15, seed=55),
    "hex8": lambda: make_block_mesh(2, 2, 2, element="hex8", jitter=0.15, seed=56),
    "mixed": mixed_block,
}
MEMO_MATERIALS = {"isotropic": temperature_dependent_material, "tensor": anisotropic_material}


@pytest.mark.parametrize("material", MEMO_MATERIALS)
@pytest.mark.parametrize("mesh", MEMO_MESHES)
def test_memo_hit_matches_fresh_assembly_bitwise(mesh, material):
    mesh, mat = MEMO_MESHES[mesh](), MEMO_MATERIALS[material]()
    rng = np.random.default_rng(57)
    coords = mesh.nodes + 0.02 * rng.normal(size=mesh.nodes.shape)
    assembler = OracleAssembler(mesh, mat)
    assembler.stiffness(coords=coords, temps=37.0 + 20.0 * rng.random(mesh.n_nodes))
    temps = 37.0 + 20.0 * rng.random(mesh.n_nodes)
    held = assembler.stiffness(coords=coords.copy(), temps=temps)
    fresh = OracleAssembler(mesh, mat).stiffness(coords=coords, temps=temps)
    assert_bitwise(held.toarray(), fresh.toarray())


def test_memo_sees_coordinates_changed_in_place():
    mesh = mixed_block()
    mat = make_material(k=0.5)
    coords = mesh.nodes.copy()
    assembler = OracleAssembler(mesh, mat)
    before = assembler.stiffness(coords=coords)
    coords *= 1.1  # the caller's own array, moved after the first call
    after = assembler.stiffness(coords=coords)
    assert not np.array_equal(after.toarray(), before.toarray())
    assert_bitwise(after.toarray(),
                   OracleAssembler(mesh, mat).stiffness(coords=coords).toarray())


@pytest.mark.parametrize("element", ["tet4", "hex8"])
@pytest.mark.parametrize("fault", ["nan", "inverted"])
def test_bad_coordinates_after_a_memo_hit_are_rejected(element, fault):
    mesh = make_block_mesh(2, 2, 2, element=element, jitter=0.1, seed=54)
    mat = temperature_dependent_material()
    assembler = OracleAssembler(mesh, mat)
    assembler.stiffness(coords=mesh.nodes)
    assembler.stiffness(coords=mesh.nodes)  # a hit
    coords = mesh.nodes.copy()
    if fault == "nan":
        coords[mesh.n_nodes // 2, 2] = np.nan
    else:
        coords[:, 0] *= -1.0  # a mirror turns every element inside out
    with pytest.raises(GeometryError, match=f"{element} element"):
        assembler.stiffness(coords=coords)
    # the failed derivation left no memo behind
    temps = np.linspace(37.0, 60.0, mesh.n_nodes)
    expected = OracleAssembler(mesh, mat).stiffness(coords=mesh.nodes, temps=temps)
    assert_bitwise(assembler.stiffness(coords=mesh.nodes, temps=temps).toarray(),
                   expected.toarray())


@pytest.mark.parametrize("hold", [0.0, 3.0])
def test_geometry_is_derived_once_while_the_mesh_holds(monkeypatch, hold):
    """Six backward steps on geometry held from the start (identity) or
    moving up to t = 3 s and held after it: each family derives its
    geometry once per distinct node position."""
    calls = {"cross": 0, "hex": 0}
    cross, hex_geometry = fedbht.oracle._cross, fedbht.oracle._hex_geometry

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(fedbht.oracle, "_cross", counted("cross", cross))
    monkeypatch.setattr(fedbht.oracle, "_hex_geometry", counted("hex", hex_geometry))
    mesh = mixed_block()
    provider = IdentityDeformation()
    if hold:
        moved = 0.02 * np.random.default_rng(58).normal(size=mesh.nodes.shape)
        provider = TrajectoryDeformation([0.0, hold], [np.zeros_like(moved), moved])
    reference_transient(mesh, temperature_dependent_material(), PerfusionParams(), NO_BC,
                        provider, Schedule(dt=1.0, total_time=6.0), scheme="backward")
    derivations = 1 if not hold else 4  # the reference, t = 1, 2 and 3 s; 4 to 6 s hold
    assert calls == {"cross": 3 * derivations, "hex": derivations}


@pytest.mark.parametrize("mesh", MEMO_MESHES)
def test_mass_from_shared_means_is_the_equal_split(mesh):
    """The mass lumped at K's own element means equals the equal split of
    rho c(T̄) V over each element's nodes, bitwise."""
    mesh, mat = MEMO_MESHES[mesh](), temperature_dependent_material()
    temps = 37.0 + 20.0 * np.random.default_rng(59).random(mesh.n_nodes)
    assembler = OracleAssembler(mesh, mat)
    assembler.stiffness(temps=temps)
    families = [conn for conn in (mesh.tets, mesh.hexes) if conn.size]

    mass = np.zeros(mesh.n_nodes)
    volumes = np.zeros(mesh.n_nodes)
    # share: V / k of each element of the family
    for conn, share, tmean in zip(families, assembler._shares, assembler.element_means,
                                  strict=True):
        if conn.shape[1] == 4:  # four terms sum in the same order either way
            assert_bitwise(tmean, temps[conn].mean(axis=1))
        rho_c = mat.density.evaluate(tmean) * mat.specific_heat.evaluate(tmean)
        mass += np.bincount(conn.ravel(), weights=np.repeat(rho_c * share, conn.shape[1]),
                            minlength=mesh.n_nodes)
        volumes += np.bincount(conn.ravel(), weights=np.repeat(share, conn.shape[1]),
                               minlength=mesh.n_nodes)
    assert_bitwise(assembler.lumped_mass(assembler.element_means), mass)
    assert_bitwise(assembler.node_volumes(), volumes)


def _mirrored(mesh, entries):
    """The dense K of the a <= b entries: each upper-triangle slot sums its
    entries in entry order (a bincount) and is mirrored below the
    diagonal."""
    n = mesh.n_nodes
    # the upper-triangle slot of every a <= b entry, entry-major
    key = np.concatenate([
        np.minimum(conn[:, a], conn[:, b]).astype(np.int64) * n + np.maximum(conn[:, a], conn[:, b])
        for conn in (mesh.tets, mesh.hexes)
        for a, b in itertools.combinations_with_replacement(range(conn.shape[1]), 2)
    ])
    upper, slot = np.unique(key, return_inverse=True)
    sums = np.bincount(slot, weights=entries, minlength=upper.size)
    dense = np.zeros((n, n))
    dense[upper // n, upper % n] = sums
    dense[upper % n, upper // n] = sums
    return dense


def _csr_product(dense, x):
    """A CSR product in plain Python: each row's nonzero terms in column
    order, summed from 0.0."""
    out = np.empty(dense.shape[0])
    for i, row in enumerate(dense):
        total = 0.0
        for j in np.flatnonzero(row):
            total += row[j] * x[j]
        out[i] = total
    return out


def test_scatter_product_equals_bincount_bitwise():
    """Each upper-triangle slot sums its a <= b entries in entry order, and
    K mirrors those sums; its product sums each row in column order."""
    mesh = mixed_block()
    n = mesh.n_nodes
    assembler = OracleAssembler(mesh, anisotropic_material())
    rng = np.random.default_rng(60)
    # terms of mixed sign spread over 16 decades: any change of summation
    # order shows in the last bits
    entries = rng.normal(size=assembler._entries.size) * 10.0 ** rng.uniform(
        -8, 8, size=assembler._entries.size)
    k, dense = assembler._assemble(entries), _mirrored(mesh, entries)
    assert_bitwise(k.toarray(), dense)
    assert_bitwise(k.diagonal(), np.diag(dense))
    x = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 8, size=n)
    assert_bitwise(k @ x, _csr_product(dense, x))
    k = assembler.stiffness(temps=37.0 + 20.0 * rng.random(n))
    assert_bitwise(k.toarray(), _mirrored(mesh, assembler._entries))


@pytest.mark.parametrize("material", MEMO_MATERIALS)
@pytest.mark.parametrize("mesh", MEMO_MESHES)
def test_stiffness_equals_its_transpose_bitwise(mesh, material):
    mesh, mat = MEMO_MESHES[mesh](), MEMO_MATERIALS[material]()
    rng = np.random.default_rng(61)
    coords = mesh.nodes + 0.02 * rng.normal(size=mesh.nodes.shape)
    dense = OracleAssembler(mesh, mat).stiffness(
        coords=coords, temps=37.0 + 20.0 * rng.random(mesh.n_nodes)).toarray()
    assert_bitwise(dense, dense.T)


@pytest.mark.parametrize("coords", ["reference", "displaced"])
@pytest.mark.parametrize("material", MEMO_MATERIALS)
@pytest.mark.parametrize("mesh", MEMO_MESHES)
def test_stiffness_is_bitwise_scipy(mesh, material, coords):
    """K's product, diagonal and dense copy against scipy's CSR matrix of
    the same entries."""
    sparse = pytest.importorskip("scipy.sparse")
    mesh, mat = MEMO_MESHES[mesh](), MEMO_MATERIALS[material]()
    rng = np.random.default_rng(62)
    nodes = mesh.nodes
    if coords == "displaced":
        nodes = nodes + 0.02 * rng.normal(size=nodes.shape)
    assembler = OracleAssembler(mesh, mat)
    k = assembler.stiffness(coords=nodes, temps=37.0 + 20.0 * rng.random(mesh.n_nodes))
    theirs = sparse.csr_matrix(_mirrored(mesh, assembler._entries))
    for _ in range(3):
        x = rng.normal(size=mesh.n_nodes) * 10.0 ** rng.uniform(-8, 8, size=mesh.n_nodes)
        assert_bitwise(k @ x, theirs @ x)
    assert_bitwise(k.diagonal(), theirs.diagonal())
    assert_bitwise(k.toarray(), theirs.toarray())


def _reduced_system(dirichlet):
    """K and the lumped mass of a mixed block at a random field, and the
    mask of the given Dirichlet nodes."""
    mesh, mat = mixed_block(), temperature_dependent_material()
    mask = np.zeros(mesh.n_nodes, dtype=bool)
    mask[dirichlet] = True
    rng = np.random.default_rng(63)
    temps = 37.0 + 20.0 * rng.random(mesh.n_nodes)
    assembler = OracleAssembler(mesh, mat)
    k = assembler.stiffness(temps=temps)
    mass = assembler.lumped_mass(assembler.element_means)
    return mesh, assembler, k, temps, mass, mask


def test_reduced_system_is_bitwise_scipy():
    """The backward replay's free x free product, and its coupling to the
    Dirichlet values through K's product with the Dirichlet field, equal
    scipy's CSR products of K's blocks: each free row sums its Dirichlet
    terms in column order from 0.0, and its other terms add only +-0."""
    sparse = pytest.importorskip("scipy.sparse")
    mesh, assembler, k, _, _, mask = _reduced_system([0, 5, 30, 41, 50])
    free = np.flatnonzero(~mask)
    csr = sparse.csr_matrix(_mirrored(mesh, assembler._entries))
    rng = np.random.default_rng(65)
    x = rng.normal(size=free.size) * 10.0 ** rng.uniform(-8, 8, size=free.size)
    assert_bitwise(fedbht.oracle._free_block(k, free)(x), csr[free][:, free] @ x)
    # 0 C values give -0.0 terms, which a sum from 0.0 must drop alike
    for values in (40.0 + rng.random(mesh.n_nodes), np.zeros(mesh.n_nodes),
                   rng.choice([0.0, 40.0], mesh.n_nodes)):
        assert_bitwise((k @ np.where(mask, values, 0.0))[free],
                       csr[free][:, mask] @ values[mask])
    # a second K from the same assembler
    k = assembler.stiffness(temps=37.0 + 20.0 * rng.random(mesh.n_nodes))
    csr = sparse.csr_matrix(_mirrored(mesh, assembler._entries))
    assert_bitwise((k @ np.where(mask, values, 0.0))[free],
                   csr[free][:, mask] @ values[mask])


@pytest.mark.parametrize("start", ["previous", "zero"])
def test_conjugate_gradients_is_bitwise_scipy(start):
    """The oracle's CG against scipy's on the backward replay's reduced
    system of a mixed block with Dirichlet nodes, through the same matvec."""
    linalg = pytest.importorskip("scipy.sparse.linalg")
    _, _, k, temps, mass, mask = _reduced_system([0, 5, 30, 41])
    free = np.flatnonzero(~mask)
    diag = (mass / 0.5)[free]
    free_block = fedbht.oracle._free_block(k, free)

    def matvec(x):
        return free_block(x) + diag * x

    fixed = np.where(mask, 45.0, 0.0)
    b = (mass / 0.5 * temps)[free] - (k @ fixed)[free]
    x0 = temps[free] if start == "previous" else np.zeros(b.size)
    precond = k.diagonal()[free] + diag
    ours, info = fedbht.oracle.conjugate_gradients(matvec, b, x0, precond, SOLVER_RTOL)
    shape = (b.size, b.size)
    theirs, their_info = linalg.cg(
        linalg.LinearOperator(shape, matvec=matvec, dtype=np.float64), b, x0=x0,
        rtol=SOLVER_RTOL, atol=0.0,
        M=linalg.LinearOperator(shape, matvec=lambda x: x / precond, dtype=np.float64))
    assert info == their_info == 0
    assert_bitwise(ours, theirs)
    # the replay's matvec is the free x free block of K + C/dt
    a = k.toarray()[np.ix_(~mask, ~mask)] + np.diag(diag)
    assert np.linalg.norm(a @ ours - b) <= 10 * SOLVER_RTOL * np.linalg.norm(b)


def test_dense_lambda_max_matches_generalized_eigh():
    linalg = pytest.importorskip("scipy.linalg")
    mesh = mixed_block()
    rng = np.random.default_rng(64)
    k = OracleAssembler(mesh, anisotropic_material()).stiffness(
        temps=37.0 + 20.0 * rng.random(mesh.n_nodes))
    mass = 1.0 + rng.random(mesh.n_nodes)
    perfusion = 0.1 * rng.random(mesh.n_nodes)
    mask = np.zeros(mesh.n_nodes, dtype=bool)
    mask[[2, 17]] = True
    for dirichlet in (None, mask):
        free = np.ones(mesh.n_nodes, dtype=bool) if dirichlet is None else ~dirichlet
        a = (k.toarray() + np.diag(perfusion))[np.ix_(free, free)]
        expected = linalg.eigh(a, np.diag(mass[free]), eigvals_only=True)[-1]
        assert dense_lambda_max(k, mass, perfusion, dirichlet) == pytest.approx(expected, rel=1e-12)


def test_oracle_imports_no_production_element_code():
    """The oracle derives its element matrices itself: it may not import the
    production kernels, the pullback's batched inverse, the production
    precompute, element table and shape derivatives, lumping and thermal
    state, or the explicit update. Of the mesh module it shares only the
    Mesh and the hex corner order of the mesh format."""
    tree = ast.parse(Path(fedbht.oracle.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert not alias.name.startswith("fedbht.kernels"), alias.name
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "fedbht" + ("." + module if module else "")
            names = {alias.name for alias in node.names}
            assert not module.startswith("fedbht.kernels"), module
            assert not (module == "fedbht" and "kernels" in names)
            assert not (module == "fedbht" and "integrator" in names)
            if module == "fedbht.deformation":
                assert not names & {"inverse_and_det", "*"}, names
            if module == "fedbht.mesh":
                assert not names & {"precompute", "HEX_DN_CENTER", "TET_DN",
                                    "ELEMENT_TYPES", "*"}, names
            if module == "fedbht.integrator":
                # the time line and the balance's bookkeeping are shared;
                # the lumping and the update are the oracle's own
                assert not names & {"build_thermal_state", "node_volumes", "_equal_split",
                                    "step", "*"}, names


def test_frozen_oracle_mass_is_its_own(monkeypatch):
    """A fault in the production lumping must show against the oracle, also
    when the mass is frozen at t = 0."""
    mesh = random_tet_mesh(n_cells=2, seed=19, jitter=0.1, lengths=(0.03,) * 3)
    bc = BoundaryConditions(
        dirichlet=(DirichletBC(nodes=np.array([7], dtype=np.intp), temperature=37.0),),
        fluxes=(FluxBC(nodes=np.array([0], dtype=np.intp), watts_per_node=0.01),),
        films=())
    sched = Schedule(dt=0.5, total_time=5.0)

    def replay():
        return reference_transient(mesh, make_material(k=0.5), PerfusionParams(), bc,
                                   None, sched, scheme="forward").final_temps

    expected = replay()
    production = fedbht.integrator._equal_split
    monkeypatch.setattr(fedbht.integrator, "_equal_split",
                        lambda *args: 2.0 * production(*args))
    assert_bitwise(replay(), expected)


def test_oracle_perfusion_volumes_are_its_own(monkeypatch):
    """A fault in the production nodal volumes must show against the oracle:
    the perfusion and metabolic terms are lumped on the oracle's volumes."""
    mesh = random_tet_mesh(n_cells=2, seed=24, jitter=0.1, lengths=(0.03,) * 3)
    perf = PerfusionParams(w_b=0.8, c_b=3617.0, T_a=37.0, Q_met=400.0)
    sched = Schedule(dt=0.5, total_time=5.0)

    def replay():
        return reference_transient(mesh, make_material(k=0.5), perf, NO_BC, None, sched,
                                   scheme="forward", initial_temperature=39.0).final_temps

    expected = replay()
    production = fedbht.integrator.node_volumes
    monkeypatch.setattr(fedbht.integrator, "node_volumes",
                        lambda *args: 2.0 * production(*args))
    assert_bitwise(replay(), expected)


def test_independent_lumped_mass_agrees(tissue_material):
    mesh = random_tet_mesh(n_cells=3, seed=21, jitter=0.2)
    pre = precompute(mesh)
    temps = np.full(mesh.n_nodes, 48.0)
    ours = build_thermal_state(mesh, pre, tissue_material, PerfusionParams(), NO_BC,
                               48.0).lumped_mass
    assembler = OracleAssembler(mesh, tissue_material)
    theirs = assembler.lumped_mass(assembler.mean_temperatures(temps))
    np.testing.assert_allclose(ours, theirs, rtol=1e-12)
    np.testing.assert_allclose(node_volumes(mesh, pre), assembler.node_volumes(), rtol=1e-12)


def test_oracle_thermal_mass_default_follows_tables(tissue_material):
    mesh = random_tet_mesh(n_cells=2, seed=14, jitter=0.0, lengths=(0.03,) * 3)
    bc = BoundaryConditions(
        dirichlet=(), films=(),
        fluxes=(FluxBC(nodes=np.array([0], dtype=np.intp), watts_per_node=0.05),))
    sched = Schedule(dt=2.0, total_time=20.0)

    def replay(material, update_thermal_mass):
        return reference_transient(mesh, material, PerfusionParams(), bc, None, sched,
                                   scheme="forward",
                                   update_thermal_mass=update_thermal_mass).final_temps

    varying = replay(tissue_material, None)
    assert_bitwise(varying, replay(tissue_material, True))
    assert not np.array_equal(varying, replay(tissue_material, False))
    constant = make_material(k=0.5)
    assert_bitwise(replay(constant, None), replay(constant, False))


def test_forward_replay_matches_production():
    mesh = random_tet_mesh(n_cells=2, seed=22, jitter=0.1, lengths=(0.03,) * 3)
    pre = precompute(mesh)
    mat = make_material(k=0.5)
    heater = np.array([0], dtype=np.intp)
    bc = BoundaryConditions(
        dirichlet=(DirichletBC(nodes=np.array([7], dtype=np.intp), temperature=37.0),),
        fluxes=(FluxBC(nodes=heater, watts_per_node=0.01),),
        films=())
    sched = Schedule(dt=0.5, total_time=20.0, snapshot_times=(10.0, 20.0),
                     events=((10.0, "source_off"),))
    ours = run(mesh, pre, mat, PerfusionParams(), bc, IdentityDeformation(),
               sched, Variant.CLASSICAL_ISO_TEMP_INDEP, probes=(0,))
    theirs = reference_transient(mesh, mat, PerfusionParams(), bc,
                                 IdentityDeformation(), sched, scheme="forward",
                                 probes=(0,))
    np.testing.assert_allclose(ours.snapshot_times, theirs.snapshot_times, atol=1e-12)
    for a, b in zip(ours.snapshots, theirs.snapshots):
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-11)
    np.testing.assert_allclose(ours.probe_values, theirs.probe_values,
                               rtol=1e-10, atol=1e-11)


# The physics switches of the forward-replay scenes and their levels.
REPLAY_SWITCHES = {
    "element": ("tet4", "hex8"),
    "conductivity": ("constant", "kT", "tensor_kT"),
    "mass": ("frozen", "updated"),
    "deformation": ("identity", "affine", "ramp_hold"),
    "perfusion": ("none", "wb_Qmet"),
    "boundary": ("dirichlet", "flux_off_on", "film"),
}
# A pairwise covering array over REPLAY_SWITCHES: any two levels of any two
# switches meet in at least one scene (12 scenes instead of the 216 of the
# full product). Each element also meets constant k at rest, where the
# frozen-conductivity variants iii and v apply, and a ramp with k(T).
REPLAY_SCENES = [
    ("hex8", "constant", "frozen", "identity", "none", "flux_off_on"),
    ("hex8", "kT", "frozen", "affine", "none", "film"),
    ("hex8", "kT", "updated", "identity", "wb_Qmet", "flux_off_on"),
    ("hex8", "tensor_kT", "frozen", "ramp_hold", "none", "flux_off_on"),
    ("hex8", "tensor_kT", "updated", "affine", "wb_Qmet", "dirichlet"),
    ("hex8", "constant", "updated", "ramp_hold", "wb_Qmet", "dirichlet"),
    ("hex8", "kT", "updated", "ramp_hold", "wb_Qmet", "film"),
    ("tet4", "constant", "frozen", "identity", "none", "dirichlet"),
    ("tet4", "constant", "frozen", "ramp_hold", "wb_Qmet", "film"),
    ("tet4", "constant", "updated", "affine", "wb_Qmet", "flux_off_on"),
    ("tet4", "kT", "updated", "ramp_hold", "none", "dirichlet"),
    ("tet4", "tensor_kT", "updated", "identity", "wb_Qmet", "film"),
]
# relative to the field's range: the replay sums nothing in production's
# order, so it agrees to round-off, and a slip in any term shows far above it
REPLAY_RTOL = 1e-12


def test_replay_scenes_cover_every_pair():
    names = list(REPLAY_SWITCHES)
    for (i, a), (j, b) in itertools.combinations(enumerate(names), 2):
        met = {(scene[i], scene[j]) for scene in REPLAY_SCENES}
        assert met == set(itertools.product(REPLAY_SWITCHES[a], REPLAY_SWITCHES[b])), (a, b)


def _replay_scene(seed, element, conductivity, mass, deformation, perfusion, boundary):
    """A jittered 3^3-cell block at 40 C with one level of every switch,
    and its 50-step schedule: keyword arguments shared by run and
    reference_transient."""
    side = 0.03
    mesh = make_block_mesh(3, 3, 3, (side,) * 3, element=element, jitter=0.15, seed=seed)
    tables = temperature_dependent_material()
    k = {"constant": PropertyTable.constant(0.5), "kT": tables.conductivity,
         "tensor_kT": anisotropic_material().conductivity}[conductivity]
    material = MaterialModel(density=tables.density, specific_heat=tables.specific_heat,
                             conductivity=k)
    dt, total = 2.0, 100.0
    rng = np.random.default_rng(seed)
    if deformation == "identity":
        provider = IdentityDeformation()
    elif deformation == "affine":
        provider = AffineDeformation([[1.08, 0.04, 0.0], [0.0, 0.94, 0.03], [0.02, 0.0, 1.05]],
                                     offset=(0.002, 0.0, -0.001))
    else:  # a shear and a random field ramp in over half the run and hold
        moved = mesh.nodes @ np.array([[0.0, 0.0, 0.1], [0.0, -0.05, 0.0], [0.0, 0.0, 0.0]]).T
        moved += rng.uniform(-5e-4, 5e-4, size=moved.shape)
        provider = TrajectoryDeformation([0.0, total / 2], [np.zeros_like(moved), moved])
    perf = (PerfusionParams(w_b=2.0, c_b=3617.0, T_a=37.0, Q_met=5000.0)
            if perfusion == "wb_Qmet" else PerfusionParams())
    x, z = mesh.nodes[:, 0], mesh.nodes[:, 2]
    events = ()
    if boundary == "dirichlet":
        bc = BoundaryConditions(dirichlet=(DirichletBC(np.flatnonzero(x == 0.0), 37.0),))
    elif boundary == "flux_off_on":
        heater = np.flatnonzero((x > 0.0) & (x < side) & (z > 0.0) & (z < side))
        bc = BoundaryConditions(fluxes=(FluxBC(heater, watts_per_node=0.05),))
        events = ((0.5 * total, "source_off"), (0.75 * total, "source_on"))
    else:
        bc = BoundaryConditions(films=(FilmBC(np.flatnonzero(z == side), coefficient=100.0,
                                              sink_temperature=55.0, area_per_node=1e-4),))
    # no snapshot at t = 0: a flux or film scene starts from a uniform field
    schedule = Schedule(dt=dt, total_time=total, snapshot_times=(20.0, 50.0, 80.0), events=events)
    return mesh, dict(material=material, perfusion=perf, bc=bc, provider=provider,
                      schedule=schedule, initial_temperature=40.0,
                      update_thermal_mass=mass == "updated")


@pytest.mark.parametrize("scene", REPLAY_SCENES, ids="-".join)
def test_every_switch_matches_the_forward_replay(scene):
    """run agrees with the oracle's forward replay to round-off at every
    snapshot and at the end: variant i on every scene, and the frozen
    conductivity variants iii and v where k is constant and the mesh at
    rest."""
    mesh, kwargs = _replay_scene(70 + REPLAY_SCENES.index(scene), *scene)
    theirs = reference_transient(mesh, scheme="forward", **kwargs)
    variants = [Variant.DEFORMED_ANISO_TEMP_DEP]
    if scene[1] == "constant" and scene[3] == "identity":
        variants += [Variant.CLASSICAL_ANISO_TEMP_INDEP, Variant.CLASSICAL_ISO_TEMP_INDEP]
    for variant in variants:
        ours = run(mesh, precompute(mesh), variant=variant, **kwargs)
        assert ours.outcome is None, ours.outcome
        assert ours.snapshot_times == theirs.snapshot_times
        for a, b in zip(ours.snapshots + [ours.final_temps],
                        theirs.snapshots + [theirs.final_temps], strict=True):
            assert normalized_error(a, b).max() <= REPLAY_RTOL, variant


def test_backward_scheme_against_hand_iteration():
    """Uniform perfusion relaxation has no conduction; the implicit update
    per node reduces to (C/dt T + K_b T_a) / (C/dt + K_b)."""
    mesh = random_tet_mesh(n_cells=1, seed=23, jitter=0.0, lengths=(0.02,) * 3)
    pre = precompute(mesh)
    mat = make_material(k=0.5)
    perf = PerfusionParams(w_b=2.0, c_b=3617.0, T_a=37.0, Q_met=0.0)
    sched = Schedule(dt=20.0, total_time=100.0)
    rec = reference_transient(mesh, mat, perf, NO_BC, IdentityDeformation(),
                              sched, scheme="backward",
                              initial_temperature=45.0, probes=(0,))
    state = build_thermal_state(mesh, pre, mat, perf, NO_BC, 45.0)
    c0 = state.lumped_mass[0]
    kb0 = state.perfusion_diag[0]
    t = 45.0
    expected = [45.0]
    for _ in range(5):
        t = (c0 / 20.0 * t + kb0 * 37.0) / (c0 / 20.0 + kb0)
        expected.append(t)
    np.testing.assert_allclose(rec.probe_values[:, 0], expected, rtol=1e-9)


def test_backward_matches_dense_direct_solve():
    mesh = random_tet_mesh(n_cells=1, seed=25, jitter=0.1, lengths=(0.02,) * 3)
    pre = precompute(mesh)
    mat = make_material(k=0.5)
    pinned = np.array([0], dtype=np.intp)
    bc = BoundaryConditions(
        dirichlet=(DirichletBC(nodes=pinned, temperature=40.0),),
        fluxes=(), films=())
    sched = Schedule(dt=50.0, total_time=50.0)  # one implicit step
    rec = reference_transient(mesh, mat, PerfusionParams(), bc,
                              IdentityDeformation(), sched, scheme="backward")

    state = build_thermal_state(mesh, pre, mat, PerfusionParams(), bc, 37.0)
    k = OracleAssembler(mesh, mat).stiffness().toarray()
    n = mesh.n_nodes
    a = k + np.diag(state.lumped_mass / 50.0)
    b = state.lumped_mass / 50.0 * state.T
    free = ~state.dirichlet_mask
    fixed_vals = np.where(state.dirichlet_mask, state.dirichlet_values, 0.0)
    rhs = b[free] - (a @ fixed_vals)[free]
    t_free = np.linalg.solve(a[np.ix_(free, free)], rhs)
    expected = fixed_vals.copy()
    expected[free] = t_free
    np.testing.assert_allclose(rec.final_temps, expected, rtol=1e-9, atol=1e-10)
