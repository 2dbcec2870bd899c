import itertools
import warnings

import numpy as np
import pytest

from fedbht.blockmesh import make_block_mesh
from fedbht.errors import GeometryError, MeshFormatError, TopologyError
from fedbht.formatting import text_blocks
from fedbht.mesh import (
    DEGENERATE_MEASURE,
    Mesh,
    load_node_set,
    parse_mesh,
    precompute,
    read_rows,
    write_mesh,
    write_node_set,
)

from conftest import mixed_block, random_tet_mesh


def test_unit_tet_volume_and_gradients(unit_tet):
    mesh, pre = unit_tet
    (tets,) = pre
    assert tets.weights[0] == pytest.approx(1.0 / 6.0, rel=1e-15)
    expected = np.array([[-1.0, 1.0, 0.0, 0.0],
                         [-1.0, 0.0, 1.0, 0.0],
                         [-1.0, 0.0, 0.0, 1.0]])
    np.testing.assert_allclose(tets.grads[0], expected, atol=1e-14)


def test_unit_cube_hex_jacobian(unit_cube_hex):
    _, pre = unit_cube_hex
    (hexes,) = pre
    assert hexes.weights[0] == pytest.approx(8.0 * 0.125, rel=1e-14)
    assert float(sum(f.weights.sum() for f in pre)) == pytest.approx(1.0, rel=1e-14)


def test_shape_gradients_kill_constants(unit_tet):
    # gradients of the partition of unity sum to zero
    _, pre = unit_tet
    np.testing.assert_allclose(pre[0].grads[0].sum(axis=1), 0.0, atol=1e-14)


def test_gradients_reproduce_linear_field():
    mesh = random_tet_mesh(n_cells=2, seed=3, jitter=0.2)
    pre = precompute(mesh)
    coeff = np.array([0.3, -1.2, 2.5])
    field = mesh.nodes @ coeff
    grads = np.einsum("eka,ea->ek", pre[0].grads, field[mesh.tets])
    np.testing.assert_allclose(grads, np.broadcast_to(coeff, grads.shape),
                               rtol=1e-11, atol=1e-12)


def test_block_mesh_tiles_the_box():
    mesh = random_tet_mesh(n_cells=3, seed=1, jitter=0.2, lengths=(0.2, 0.3, 0.1))
    pre = precompute(mesh)
    assert np.all(pre[0].weights > 0)
    volume = float(sum(f.weights.sum() for f in pre))
    assert volume == pytest.approx(0.2 * 0.3 * 0.1, rel=1e-12)


def test_block_mesh_connectivity_by_hand():
    # node (i, j, k) of a 2x1x1 block is 4 i + 2 j + k: six positively
    # oriented tets per cell, all sharing the cell's main diagonal
    tet = make_block_mesh(2, 1, 1)
    assert tet.tets.tolist() == [
        [0, 4, 6, 7], [0, 5, 4, 7], [0, 6, 2, 7], [0, 2, 3, 7], [0, 1, 5, 7], [0, 3, 1, 7],
        [4, 8, 10, 11], [4, 9, 8, 11], [4, 10, 6, 11], [4, 6, 7, 11], [4, 5, 9, 11],
        [4, 7, 5, 11],
    ]
    assert tet.hexes.shape == (0, 8)
    # the hex corners follow HEX_SIGNS: bottom face counter-clockwise, then top
    hexes = make_block_mesh(1, 1, 1, element="hex8")
    assert hexes.hexes.tolist() == [[0, 4, 6, 2, 1, 5, 7, 3]]
    assert hexes.tets.shape == (0, 4)


def loop_block_connectivity(nx, ny, nz, element):
    """Cell by cell: hex corners bottom face counter-clockwise, then top;
    a cell's tets walk its edges from (0,0,0) to (1,1,1), one per axis
    order, the middle two corners swapped for an odd order."""
    def node(i, j, k):
        return (i * (ny + 1) + j) * (nz + 1) + k

    hex_corners = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
                   (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]
    out = []
    for i, j, k in itertools.product(range(nx), range(ny), range(nz)):
        if element == "hex8":
            out.append([node(i + a, j + b, k + c) for a, b, c in hex_corners])
            continue
        for order in itertools.permutations(range(3)):
            path = [(0, 0, 0)]
            for axis in order:
                path.append(tuple(1 if n == axis else v for n, v in enumerate(path[-1])))
            tet = [node(i + a, j + b, k + c) for a, b, c in path]
            if order in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):  # odd
                tet[1], tet[2] = tet[2], tet[1]
            out.append(tet)
    return out


@pytest.mark.parametrize("element", ["tet4", "hex8"])
def test_block_mesh_connectivity_matches_cell_loop(element):
    mesh = make_block_mesh(3, 4, 5, element=element)
    conn = mesh.tets if element == "tet4" else mesh.hexes
    assert conn.dtype == np.intp
    assert conn.tolist() == loop_block_connectivity(3, 4, 5, element)


def test_roundtrip(tmp_path):
    mesh = random_tet_mesh(n_cells=2, seed=5, jitter=0.15)
    path = tmp_path / "block.mesh"
    write_mesh(path, mesh)
    back = parse_mesh(path)
    precompute(back)
    np.testing.assert_allclose(back.nodes, mesh.nodes, rtol=0, atol=0)
    np.testing.assert_array_equal(back.tets, mesh.tets)


def test_mixed_mesh_element_count(unit_tet, unit_cube_hex):
    nodes = np.vstack([unit_tet[0].nodes, unit_cube_hex[0].nodes + 2.0])
    mesh = Mesh(nodes=nodes,
                tets=np.array([[0, 1, 2, 3]], dtype=np.intp),
                hexes=(np.arange(8, dtype=np.intp) + 4).reshape(1, 8))
    assert mesh.n_elements == 2
    pre = precompute(mesh)
    volume = float(sum(f.weights.sum() for f in pre))
    assert volume == pytest.approx(1.0 / 6.0 + 1.0, rel=1e-13)


def test_degenerate_tet_reports_element_index():
    nodes = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.5, 0.5, 0.0]])
    mesh = Mesh(nodes=nodes, tets=np.array([[0, 1, 2, 3]], dtype=np.intp),
                hexes=np.zeros((0, 8), dtype=np.intp))
    with pytest.raises(GeometryError, match="element 0"):
        precompute(mesh)


def test_degenerate_hex_reports_family_element_and_value(unit_cube_hex):
    cube = unit_cube_hex[0].nodes
    flat = cube * [1.0, 1.0, 0.0] + [2.0, 0.0, 0.0]  # zero height
    mesh = Mesh(nodes=np.vstack([cube, flat]),
                hexes=np.arange(16, dtype=np.intp).reshape(2, 8))
    with pytest.raises(GeometryError,
                       match=r"hex8 element 1 .*centre Jacobian determinant 0\.000e\+00"):
        precompute(mesh)


def test_degenerate_thresholds_per_family(unit_tet, unit_cube_hex):
    # the floor applies to the tet volume det/6 and to the hex centre
    # determinant det J0, not to the hex weight 8 det J0
    def tet(det):
        return Mesh(nodes=unit_tet[0].nodes * np.cbrt(det), tets=unit_tet[0].tets)

    def hexa(det):
        return Mesh(nodes=unit_cube_hex[0].nodes * np.cbrt(8.0 * det),
                    hexes=unit_cube_hex[0].hexes)

    assert DEGENERATE_MEASURE == 1e-18
    precompute(hexa(3e-18))
    precompute(tet(9e-18))
    with pytest.raises(GeometryError, match="tet4 element 0 has .* volume 5"):
        precompute(tet(3e-18))
    with pytest.raises(GeometryError, match="hex8 element 0 has .* determinant 5"):
        precompute(hexa(5e-19))


def test_families_in_table_order(unit_cube_hex):
    mixed = mixed_block()
    pre = precompute(mixed)
    assert tuple(f.kind for f in pre) == ("tet4", "hex8")
    assert pre[0].conn is mixed.tets and pre[1].conn is mixed.hexes
    for family in pre:
        n, k = family.conn.shape
        assert family.grads.shape == (n, 3, k) and family.weights.shape == (n,)
        jac = np.einsum("eaj,ak->ejk", mixed.nodes[family.conn], family.dn)
        np.testing.assert_array_equal(family.jac, jac)
    hex_only = precompute(unit_cube_hex[0])
    assert tuple(f.kind for f in hex_only) == ("hex8",)
    assert precompute(Mesh(nodes=np.zeros((1, 3)))) == ()


def test_connectivity_width_is_checked():
    nodes = np.zeros((8, 3))
    with pytest.raises(TopologyError, match=r"tet4 connectivity must be \(n, 4\), got \(1, 8\)"):
        Mesh(nodes=nodes, tets=[list(range(8))])
    with pytest.raises(TopologyError, match=r"hex8 connectivity must be \(n, 8\), got \(2, 4\)"):
        Mesh(nodes=nodes, hexes=[[0, 1, 2, 3], [4, 5, 6, 7]])
    with pytest.raises(TopologyError, match="tet4"):
        Mesh(nodes=nodes, tets=[0, 1, 2, 3])
    for empty in ([], np.zeros(0), np.zeros((0, 8)), np.zeros((3, 0))):
        mesh = Mesh(nodes=nodes, tets=empty, hexes=empty)
        assert mesh.tets.shape == (0, 4) and mesh.hexes.shape == (0, 8)


def test_non_integer_connectivity_is_rejected():
    nodes = np.eye(4, 3)
    with pytest.raises(TopologyError, match="tet4 element 0 has non-integer node index 1.7"):
        Mesh(nodes=nodes, tets=[[0, 1.7, 2.2, 3.9]])
    hexes = np.arange(16.0).reshape(2, 8)
    hexes[1, 5] = np.nan
    with pytest.raises(TopologyError, match="hex8 element 1 has non-integer node index nan"):
        Mesh(nodes=np.zeros((16, 3)), hexes=hexes)
    mesh = Mesh(nodes=nodes, tets=[[0.0, 1.0, 2.0, 3.0]], hexes=np.zeros((0, 8)))
    assert mesh.tets.dtype == np.intp and mesh.tets.tolist() == [[0, 1, 2, 3]]


def test_inverted_tet_rejected():
    nodes = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.0, 0, -1.0]])
    mesh = Mesh(nodes=nodes, tets=np.array([[0, 1, 2, 3]], dtype=np.intp),
                hexes=np.zeros((0, 8), dtype=np.intp))
    with pytest.raises(GeometryError):
        precompute(mesh)


def test_out_of_range_connectivity():
    with pytest.raises(TopologyError):
        Mesh(nodes=np.zeros((3, 3)),
             tets=np.array([[0, 1, 2, 7]], dtype=np.intp),
             hexes=np.zeros((0, 8), dtype=np.intp))


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.mesh"
    path.write_text("NODES 2\n0 0 0\n0 0 nonsense\n")
    with pytest.raises(MeshFormatError, match="line 3") as err:
        precompute(parse_mesh(path))
    assert err.value.line == 3


def test_parse_rejects_duplicate_section(tmp_path):
    path = tmp_path / "bad.mesh"
    path.write_text("NODES 1\n0 0 0\nNODES 1\n0 0 0\n")
    with pytest.raises(MeshFormatError):
        precompute(parse_mesh(path))


def test_parse_comments_and_section_order(tmp_path):
    path = tmp_path / "ok.mesh"
    path.write_text(
        "# reversed section order\n"
        "TET4 1\n0 1 2 3\n"
        "NODES 4\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
    )
    mesh = parse_mesh(path)
    precompute(mesh)
    assert mesh.n_nodes == 4 and mesh.tets.shape == (1, 4)


def test_parse_skips_comments_and_blank_lines_inside_a_section(tmp_path):
    path = tmp_path / "ok.mesh"
    path.write_text(
        "NODES 4\n0 0 0\n# a comment\n1 0 0  # trailing\n\n   \n0 1 0\n0 0 1\n"
        "TET4 1\n\n0 1 2 3\n"
    )
    mesh = parse_mesh(path)
    np.testing.assert_array_equal(mesh.nodes, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    np.testing.assert_array_equal(mesh.tets, [[0, 1, 2, 3]])


_TET_NODES = "NODES 4\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"


@pytest.mark.parametrize("text, line, message", [
    ("NODES 3\n0 0 0\n1 0 0\n", 3, "NODES section declares 3 entries but file ends after 2"),
    ("NODES 2\n0 0 0\n# end\n\n", 4, "NODES section declares 2 entries but file ends after 1"),
    ("NODES 2\n0 0 0\n1 0\n", 3, "expected 3 values in NODES entry, got 2"),
    ("NODES 2\n0 0 0 1\n0 0\n", 2, "expected 3 values in NODES entry, got 4"),
    (_TET_NODES + "TET4 1\n0 1 2\n", 7, "expected 4 values in TET4 entry, got 3"),
    ("NODES 2\n0 0 0\n0  0 nonsense  # why\n", 3, "invalid NODES entry '0  0 nonsense'"),
    ("NODES 3\n0 0 x\n0 0\n0 0 0\n", 2, "invalid NODES entry '0 0 x'"),
    (_TET_NODES + "TET4 2\n0 1 2 3\n0 1 2.5 3\n", 8, "invalid TET4 entry '0 1 2.5 3'"),
])
def test_parse_errors_name_the_line(tmp_path, text, line, message):
    path = tmp_path / "bad.mesh"
    path.write_text(text)
    with pytest.raises(MeshFormatError) as err:
        parse_mesh(path)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def test_precompute_rejects_inverted_geometry_that_parse_mesh_reads(tmp_path):
    # parse_mesh leaves the measure check to precompute, which makes it
    path = tmp_path / "inverted.mesh"
    path.write_text("NODES 4\n0 0 0\n1 0 0\n0 1 0\n0 0 -1\nTET4 1\n0 1 2 3\n")
    mesh = parse_mesh(path)
    with pytest.raises(GeometryError, match="tet4 element 0"):
        precompute(mesh)


def test_node_set_roundtrip(tmp_path):
    path = tmp_path / "set.nodes"
    write_node_set(path, np.array([5, 1, 3]))
    back = load_node_set(path, 10)
    np.testing.assert_array_equal(back, [1, 3, 5])


def test_node_set_range_check(tmp_path):
    path = tmp_path / "set.nodes"
    path.write_text("0\n99\n")
    with pytest.raises(MeshFormatError, match="line 2"):
        load_node_set(path, 10)


def test_node_set_comments_blanks_and_duplicates(tmp_path):
    path = tmp_path / "set.nodes"
    path.write_text("# vessel wall\n\n7\n3  # inlet\n   \n7\n0 #\n")
    back = load_node_set(path, 10)
    assert back.dtype == np.intp
    np.testing.assert_array_equal(back, [0, 3, 7])
    path.write_text("# nothing but a comment\n\n")
    assert load_node_set(path, 10).shape == (0,)


@pytest.mark.parametrize("text, line, message", [
    ("0\n# note\nx\n", 3, "invalid node index 'x'"),
    ("0\n\n1.5\n", 3, "invalid node index '1.5'"),
    ("0\n1 2\n", 2, "expected 1 node index per line, got 2"),
    ("# head\n\n0\n-1\n", 4, "node index -1 outside [0, 10)"),
    # the row's real line, not its index + 1, nor a line whose text reads 12
    ("5\n\n# 12\n012\n", 4, "node index 12 outside [0, 10)"),
    ("0\n# 10\n\n10\n", 4, "node index 10 outside [0, 10)"),
    # Python's int() reads both; numpy's text reader refuses them
    ("0\n1_000\n", 2, "invalid node index '1_000'"),
    ("0\n\u0661\u0662\n", 2, "invalid node index '\u0661\u0662'"),
])
def test_node_set_faults_name_their_line(tmp_path, text, line, message):
    path = tmp_path / "set.nodes"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MeshFormatError) as info:
        load_node_set(path, 10)
    assert str(info.value) == f"line {line}: {message}"
    assert info.value.line == line


@pytest.mark.parametrize("element", ["tet4", "hex8"])
def test_jacobian_is_the_einsum_form_bitwise(element):
    for jitter, seed in itertools.product((0.0, 0.1, 0.25), range(3)):
        mesh = make_block_mesh(7, 5, 4, (0.07, 0.05, 0.04), element=element,
                               jitter=jitter, seed=seed)
        (family,) = precompute(mesh)
        reference = np.einsum("eaj,ak->ejk", mesh.nodes[family.conn], family.dn)
        assert family.jac.tobytes() == reference.tobytes()


def read_block(text, count, width, dtype):
    """read_rows on a whole text, as a mesh section after its header."""
    return read_rows(text.splitlines(keepends=True), 0, count, width, dtype,
                     "entry", "values in entry")


@pytest.mark.parametrize("plain, noisy, width, dtype", [
    ("0.5 -1e-3 2\n1 2 3\n4 5 6.25\n",
     "# head\n0.5 -1e-3 2\n1 2 3  # trailing\n\n4 5 6.25\n", 3, np.float64),
    ("0 1 2 3\n4 5 6 7\n", "0 1 2 3\n   \n4 5 6 7 # last\n", 4, np.intp),
])
def test_comments_and_blank_lines_change_no_value(plain, noisy, width, dtype):
    # the plain block takes the one-call path, the noisy one the scan
    fast, stop = read_block(plain, plain.count("\n"), width, dtype)
    scanned, _ = read_block(noisy, plain.count("\n"), width, dtype)
    assert stop == plain.count("\n")
    assert fast.dtype == scanned.dtype == dtype
    assert fast.tobytes() == scanned.tobytes()


def test_written_values_read_back_bitwise_on_both_paths():
    rng = np.random.default_rng(7)
    values = rng.standard_normal((3334, 3)) * 10.0 ** rng.integers(-300, 300, (3334, 3))
    values[0] = [0.0, -0.0, 5e-324]
    values[1] = [np.finfo(float).max, -np.finfo(float).tiny, 1 / 3]
    text = b"".join(text_blocks(values)).decode()
    fast, _ = read_block(text, len(values), 3, np.float64)
    scanned, _ = read_block("# forces the scan\n" + text, len(values), 3, np.float64)
    assert fast.tobytes() == scanned.tobytes() == values.tobytes()


@pytest.mark.parametrize("text", ["", "\n", "  \n\n", "# only a comment\n\n"])
def test_blocks_without_rows_raise_no_warning(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows, _ = read_block(text, 2, 3, np.float64)
        assert rows.shape == (0, 3) and rows.dtype == np.float64
        assert read_block(text, 0, 3, np.float64)[0].shape == (0, 3)

