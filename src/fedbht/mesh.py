"""Mesh loading and reference-configuration precomputation.

Supported mesh file format (ASCII, ``#`` starts a comment):

    NODES <n>
    <x> <y> <z>          (n lines, metres)
    TET4 <m>
    <i0> <i1> <i2> <i3>  (m lines, zero-based node indices)
    HEX8 <p>
    <i0> ... <i7>        (p lines, zero-based node indices)

Sections may appear in any order; NODES is mandatory, element sections are
optional and a mesh may mix tet4 and hex8 blocks. Hexahedra use the standard
isoparametric ordering: nodes 0-3 form the bottom face (counterclockwise
seen from +z), nodes 4-7 the top face directly above them.

Node-set files carry one zero-based node index per line.

A Mesh checks on construction that coordinates are finite and indices in
range. :func:`precompute` returns one ElementFamily per non-empty family,
holding its Jacobians J and weights, and checks that every element has
positive measure (signed tet volume, centre-point Jacobian determinant for
hexes), so a mesh is checked when first precomputed. :func:`parse_mesh`
reads a file; parse_mesh then precompute, keeping the families, is the one
way to read and check a mesh (``config.load_scenario``). Its sections,
node-set files and the keyframes of ``deformation.load_trajectory`` share
one row reader, :func:`read_rows`, whose numbers np.loadtxt converts, a
plain section in one call.

What differs between element families (nodes per element, derivatives at
the integration point, weight, degenerate check, file keyword, VTK cell
type) lives in one table, ``ELEMENT_TYPES``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import GeometryError, MeshFormatError, TopologyError

# Degenerate-element floor. Volumes and Jacobian determinants at or below
# this are treated as collapsed geometry even if numerically positive.
DEGENERATE_MEASURE = 1e-18

# Reference tet4 shape-function derivatives w.r.t. natural coordinates,
# rows = nodes. The element map Jacobian is coords.T @ TET_DN.
TET_DN = np.array(
    [
        [-1.0, -1.0, -1.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ]
)

# Natural-coordinate signs of the eight hex corners (isoparametric cube
# [-1,1]^3, bottom face first). Row a gives (xi_a, eta_a, zeta_a).
HEX_SIGNS = np.array(
    [
        [-1.0, -1.0, -1.0],
        [1.0, -1.0, -1.0],
        [1.0, 1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
        [1.0, -1.0, 1.0],
        [1.0, 1.0, 1.0],
        [-1.0, 1.0, 1.0],
    ]
)

# Trilinear shape derivatives at the element centre, rows = nodes.
HEX_DN_CENTER = HEX_SIGNS / 8.0


class ElementType(NamedTuple):
    """One element family, independent of any mesh. At the integration
    point the element map Jacobian is coords.T @ dn, the degenerate check
    tests det J / det_divisor (tet volume, hex det J0) and the weight is
    weight_factor times that (V for tet4, 8 det J0 for one-point hex8)."""

    kind: str            # family name; upper-cased it is the mesh-file keyword
    attr: str            # Mesh attribute holding the (n, k) connectivity
    dn: np.ndarray       # (k, 3) natural shape derivatives, rows = nodes
    det_divisor: float
    weight_factor: float
    measure: str         # name of the checked measure in error messages
    vtk_cell: int        # legacy VTK cell type

    @property
    def width(self) -> int:
        return self.dn.shape[0]


# Every supported family, in the order of precompute's families, mesh
# files and VTK cells.
ELEMENT_TYPES = (
    ElementType("tet4", "tets", TET_DN, 6.0, 1.0, "volume", 10),
    ElementType("hex8", "hexes", HEX_DN_CENTER, 1.0, 8.0,
                "centre Jacobian determinant", 12),
)


@dataclass
class Mesh:
    """Immutable tet4/hex8 mesh in the reference configuration."""

    nodes: np.ndarray
    tets: np.ndarray = field(default_factory=lambda: np.zeros((0, 4), dtype=np.intp))
    hexes: np.ndarray = field(default_factory=lambda: np.zeros((0, 8), dtype=np.intp))

    def __post_init__(self):
        self.nodes = np.ascontiguousarray(np.asarray(self.nodes, dtype=np.float64))
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 3:
            raise TopologyError(f"node array must be (n, 3), got {self.nodes.shape}")
        if not np.all(np.isfinite(self.nodes)):
            raise GeometryError("non-finite node coordinates")
        for etype in ELEMENT_TYPES:
            conn = np.asarray(getattr(self, etype.attr))
            if conn.size and (conn.ndim != 2 or conn.shape[1] != etype.width):
                raise TopologyError(
                    f"{etype.kind} connectivity must be (n, {etype.width}), got {conn.shape}"
                )
            conn = conn.reshape(-1, etype.width)
            if conn.dtype.kind == "f":  # a cast alone would truncate 1.7 to node 1
                with np.errstate(invalid="ignore"):
                    bad = conn.astype(np.intp) != conn  # NaN and inf too
                if np.any(bad):
                    elem = int(np.argmax(bad.any(axis=1)))
                    raise TopologyError(
                        f"{etype.kind} element {elem} has non-integer node index "
                        f"{conn[elem][bad[elem]][0]:g}"
                    )
            conn = np.ascontiguousarray(conn, dtype=np.intp)
            setattr(self, etype.attr, conn)
            bad = (conn < 0) | (conn >= self.n_nodes)
            if np.any(bad):
                elem = int(np.argwhere(bad.any(axis=1))[0, 0])
                raise TopologyError(
                    f"{etype.kind} element {elem} references node "
                    f"{int(conn[elem][bad[elem]][0])} outside [0, {self.n_nodes})"
                )

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.tets.shape[0] + self.hexes.shape[0]

    def element_blocks(self) -> list:
        """(ElementType, (n, k) connectivity) per non-empty family, table order."""
        return [(t, getattr(self, t.attr)) for t in ELEMENT_TYPES if getattr(self, t.attr).size]


class ElementFamily(NamedTuple):
    """Reference-configuration factors of one element family of a mesh.

    kind: the ElementType's kind, "tet4" or "hex8".
    conn: (n, k) node indices, the mesh's own array.
    dn: (k, 3) the ElementType's natural shape derivatives, rows = nodes.
    jac: (n, 3, 3) J = coords^T dn, the element map Jacobian at the
        integration point, [reference, natural]; nothing here inverts it.
    weights: (n,) integration weights in m^3 (tet4 V, hex8 8 det J0), used
        alike by the conduction operator and the equal-split lumping.
    """

    kind: str
    conn: np.ndarray
    dn: np.ndarray
    jac: np.ndarray
    weights: np.ndarray

    @property
    def grads(self) -> np.ndarray:
        """(n, 3, k) shape-function gradients w.r.t. reference coordinates
        at the integration point, J^-T dn^T solved from J; column a belongs
        to node a."""
        return np.linalg.solve(self.jac.transpose(0, 2, 1), self.dn.T[np.newaxis])


def precompute(mesh: Mesh) -> tuple[ElementFamily, ...]:
    """Compute the element map Jacobians and integration weights: one
    ElementFamily per non-empty family, tet4 first.

    Raises GeometryError (naming the family, element index and value) for
    any element whose measure is non-positive or degenerate.
    """
    families = []
    for etype, conn in mesh.element_blocks():
        jac = np.matmul(mesh.nodes[conn].transpose(0, 2, 1), etype.dn)  # (n, 3, 3)
        measure = np.linalg.det(jac) / etype.det_divisor
        bad = measure <= DEGENERATE_MEASURE
        if np.any(bad):
            elem = int(np.argmax(bad))
            raise GeometryError(
                f"{etype.kind} element {elem} has non-positive or degenerate "
                f"{etype.measure} {measure[elem]:.3e} m^3 (node order must give det > 0)"
            )
        families.append(ElementFamily(
            etype.kind, conn, etype.dn, jac, etype.weight_factor * measure))
    return tuple(families)


def parse_mesh(path) -> Mesh:
    """Parse a mesh file; element measures are not checked until the mesh
    is precomputed."""
    # section keyword -> (values per entry, value type, Mesh attribute)
    layout = {"NODES": (3, np.float64, "nodes")}
    layout.update({t.kind.upper(): (t.width, np.intp, t.attr) for t in ELEMENT_TYPES})
    sections = {}

    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()

    idx = 0
    n_lines = len(lines)
    while idx < n_lines:
        text = lines[idx].split("#", 1)[0].strip()
        lineno = idx + 1
        idx += 1
        if not text:
            continue
        parts = text.split()
        keyword = parts[0].upper()
        if keyword not in layout:
            raise MeshFormatError(f"unknown section keyword {parts[0]!r}", lineno)
        if len(parts) != 2:
            raise MeshFormatError(f"{keyword} header needs exactly one count", lineno)
        try:
            count = int(parts[1])
        except ValueError:
            raise MeshFormatError(f"invalid {keyword} count {parts[1]!r}", lineno) from None
        if count < 0:
            raise MeshFormatError(f"negative {keyword} count", lineno)

        width, dtype, attr = layout[keyword]
        rows, idx = read_rows(lines, idx, count, width, dtype,
                              f"{keyword} entry", f"values in {keyword} entry")
        if len(rows) < count:
            raise MeshFormatError(
                f"{keyword} section declares {count} entries but file ends "
                f"after {len(rows)}",
                n_lines,
            )
        if attr in sections:
            raise MeshFormatError(f"duplicate {keyword} section", idx)
        sections[attr] = rows

    if "nodes" not in sections:
        raise MeshFormatError("missing NODES section", n_lines)

    return Mesh(**sections)


def read_rows(lines, start, count, width, dtype, entry, values, header=None):
    """Read up to ``count`` rows of ``width`` values from lines[start:].

    Blank lines and ``#`` comments are skipped. Reading stops early at the
    end of the file or, when ``header`` is given, at a line whose fields
    it accepts. Returns the (rows, width) array of ``dtype`` and the index
    of the first line not read. A row of another width raises
    MeshFormatError "expected <width> <values>, got <n>", a value that does
    not parse "invalid <entry> '<row>'", each with the row's line number.

    np.loadtxt converts every number: ``count`` plain rows in a row in one
    call, which a comment, a blank line, a header or a faulty row makes
    raise or return another shape; the lines are then scanned one by one
    and the rows kept converted alike. No rows never reach it (it warns).
    """
    def convert(rows):
        return np.loadtxt(rows, dtype=dtype, comments=None, ndmin=2)

    block = lines[start:start + count]
    if count and len(block) == count and not block[0].isspace():
        try:
            array = convert(block)
            if array.shape == (count, width):
                return array, start + count
        except ValueError:
            pass  # the scan below finds the fault
    rows, linenos = [], []
    stop = start
    misfit = None  # raised after the rows before it, which may hold an earlier fault
    while len(rows) < count and stop < len(lines):
        row = lines[stop].split("#", 1)[0].strip()
        fields = row.split()
        if fields and header is not None and header(fields):
            break
        stop += 1
        if not fields:
            continue
        if len(fields) != width:
            misfit = MeshFormatError(f"expected {width} {values}, got {len(fields)}", stop)
            break
        rows.append(row)
        linenos.append(stop)
    try:
        array = convert(rows) if rows else np.empty((0, width), dtype=dtype)
    except ValueError:
        for row, lineno in zip(rows, linenos):
            try:
                convert([row])
            except ValueError:
                raise MeshFormatError(f"invalid {entry} {row!r}", lineno) from None
        raise
    if misfit is not None:
        raise misfit
    return array, stop


def write_mesh(path, mesh: Mesh):
    from .formatting import text_blocks

    with open(path, "wb") as fh:
        fh.write(b"NODES %d\n" % mesh.n_nodes)
        fh.writelines(text_blocks(mesh.nodes))
        for etype, conn in mesh.element_blocks():
            fh.write(b"%s %d\n" % (etype.kind.upper().encode(), conn.shape[0]))
            fh.writelines(text_blocks(conn))


def load_node_set(path, n_nodes: int) -> np.ndarray:
    """Parse a node-set file, one zero-based node index per line, through
    :func:`read_rows`; returns the indices sorted, duplicates merged."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    indices = read_rows(lines, 0, len(lines), 1, np.intp,
                        "node index", "node index per line")[0].ravel()
    bad = (indices < 0) | (indices >= n_nodes)
    if np.any(bad):
        row = int(np.argmax(bad))
        # the row's own line: comments and blank lines hold no row
        lineno = [i for i, line in enumerate(lines, start=1)
                  if line.split("#", 1)[0].strip()][row]
        raise MeshFormatError(
            f"node index {indices[row]} outside [0, {n_nodes})", lineno)
    # sorted(set()) and not np.unique, which imports numpy.ma
    return np.array(sorted(set(indices.tolist())), dtype=np.intp)


def write_node_set(path, indices):
    from .formatting import text_blocks

    with open(path, "wb") as fh:
        fh.writelines(text_blocks(np.asarray(indices, dtype=np.intp)))
