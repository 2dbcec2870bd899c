"""Assembled-matrix reference implementations for verification.

Everything here recomputes results through classical sparse assembly so the
matrix-free production path can be checked against an independent route:

  * element stiffness is derived directly from node positions (edge-vector
    cross products for tets, centre-point Jacobian for hexes); when given
    deformed coordinates the geometry is simply re-derived from the moved
    nodes, never pulled back through a deformation gradient;
  * global K is assembled, numpy only, from each element's upper-triangle
    entries, summed per node pair by one bincount and mirrored into padded
    rows (:class:`Stiffness`), so it is exactly symmetric and its products
    are bitwise those of compressed sparse rows;
  * reference transients advance the assembled system with forward or
    backward Euler (the latter solved by the oracle's own conjugate
    gradients), re-assembling every step so lagged (Picard) property
    evaluation matches the production semantics; the element geometry is
    derived once per node position and kept while the mesh holds, so a held
    step only re-evaluates the conductivity at the element means T̄; only
    what K is scaled from is kept (for isotropic tables the gradients pass
    through the entries' buffer), and a step's K is released before the
    next is assembled; the backward scheme couples its free rows to the
    Dirichlet values through K's own product with the Dirichlet field,
    which is zero off the Dirichlet nodes, so each free row sums its
    Dirichlet terms in column order from 0.0 and its other terms add only
    +-0; it assembles at t_{n+1}, so its last step stands on the end
    time's coordinates, where the production run never moves the mesh,
    and an element inverted on a step's coordinates stops the replay as
    an inverted element of that step;
  * brute-force Gauss quadrature integrates single-element loads.

Thermal mass and perfusion lumping always use reference-configuration
volumes, matching the production convention (mass conservation makes
rho c V deformation-invariant). The lumping is the assembler's own: the
geometry rules that weight K also give each node's share of its element's
volume, derived once at the reference nodes when the assembler is built.
The nodal sums of those shares are the volumes that carry the perfusion
and Q_met terms, and the sums of rho c(T̄) times them the thermal mass,
anew in every step of an updated run (at the T̄ of that step's K) and
once, from the uniform initial field, for a frozen one.
The reference transient borrows only the bookkeeping of production's
:func:`integrator.thermal_state_from_volumes`: the heater, flux and film
terms on their nodes and the Dirichlet field.

These paths are for testing and verification. They are simpler than the
production operator and independent of it: element matrices come from the
oracle's own derivation (edge cross products for tets, the centre Jacobian
for hexes) and share no code with the production kernels. They are not
slow on purpose; element matrices are built entry by entry on per-element
arrays.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .deformation import IdentityDeformation
from .errors import DivergenceError, GeometryError, SingularDeformationError
from .integrator import (
    BoundaryConditions,
    Schedule,
    SimulationRecord,
    resolve_update_thermal_mass,
    thermal_state_from_volumes,
)
from .material import MaterialModel, PerfusionParams
from .mesh import HEX_SIGNS, Mesh

# --------------------------------------------------------------------------
# quadrature rules

# Tet rule weights: the centroid, a symmetric two-point rule (degree 1) and
# the Keast four-point rule (degree 2). A linear tet's integrand is
# constant, so its points never enter a sum and only the weights are kept.
_TET_WEIGHTS = {1: np.array([1.0]), 2: np.array([0.5, 0.5]), 4: np.full(4, 0.25)}

_GAUSS_1D = {
    1: (np.array([0.0]), np.array([2.0])),
    2: (np.array([-1.0, 1.0]) / math.sqrt(3.0), np.array([1.0, 1.0])),
    3: (
        np.array([-math.sqrt(3.0 / 5.0), 0.0, math.sqrt(3.0 / 5.0)]),
        np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0]),
    ),
}


def hex_gauss_rule(n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product Gauss rule on [-1, 1]^3 with 1, 8 or 27 points."""
    per_axis = {1: 1, 8: 2, 27: 3}.get(n_points)
    if per_axis is None:
        raise ValueError(f"hex rule must have 1, 8 or 27 points, got {n_points}")
    x, w = _GAUSS_1D[per_axis]
    pts = np.array([[a, b, c] for a in x for b in x for c in x])
    wts = np.array([wa * wb * wc for wa in w for wb in w for wc in w])
    return pts, wts


def _hex_dn(xi: np.ndarray) -> np.ndarray:
    """Trilinear shape-function derivatives at natural point xi, rows=nodes."""
    s = HEX_SIGNS
    dn = np.empty((8, 3))
    dn[:, 0] = s[:, 0] * (1 + s[:, 1] * xi[1]) * (1 + s[:, 2] * xi[2]) / 8.0
    dn[:, 1] = (1 + s[:, 0] * xi[0]) * s[:, 1] * (1 + s[:, 2] * xi[2]) / 8.0
    dn[:, 2] = (1 + s[:, 0] * xi[0]) * (1 + s[:, 1] * xi[1]) * s[:, 2] / 8.0
    return dn


# the derivatives at the centre, bitwise HEX_SIGNS / 8
_HEX_DN_CENTER = _hex_dn(np.zeros(3))


def brute_force_element_load(coords, conductivity, temps, n_points: int) -> np.ndarray:
    """Gauss-quadrature element conduction loads on the given geometry.

    coords: (4, 3) for a tet or (8, 3) for a hex.
    conductivity: (3, 3) tensor, held constant over the element.
    n_points: 1/2/4 for tets, 1/8/27 for hexes.

    For linear tets the integrand is constant so every rule is exact; hex
    rules integrate the full trilinear variation, which an 8 or 27 point
    rule captures while the production kernel's one-point rule does not on
    distorted elements.
    """
    coords = np.asarray(coords, dtype=np.float64)
    temps = np.asarray(temps, dtype=np.float64)
    d = np.asarray(conductivity, dtype=np.float64)

    if coords.shape == (4, 3):
        if n_points not in _TET_WEIGHTS:
            raise ValueError(f"tet rule must have 1, 2 or 4 points, got {n_points}")
        weights = _TET_WEIGHTS[n_points]
        # gradients from the [1 | x y z] matrix: rows 1..3 of its inverse
        m = np.hstack([np.ones((4, 1)), coords])
        det = np.linalg.det(m)
        if det <= 0:
            raise GeometryError(f"tet volume {det / 6.0:.3e} m^3 is not positive")
        grads = np.linalg.inv(m)[1:4, :]  # (3, 4)
        volume = det / 6.0
        kd = grads.T @ (d @ grads)
        out = np.zeros(4)
        for w in weights:
            out += (w * volume) * (kd @ temps)
        return out

    if coords.shape == (8, 3):
        pts, wts = hex_gauss_rule(n_points)
        out = np.zeros(8)
        for xi, w in zip(pts, wts):
            dn = _hex_dn(xi)  # (8, 3)
            jac = coords.T @ dn
            det = np.linalg.det(jac)
            if det <= 0:
                raise GeometryError(
                    f"hex Jacobian determinant {det:.3e} m^3 is not positive"
                )
            grads = np.linalg.solve(jac.T, dn.T)  # (3, 8)
            out += (w * det) * (grads.T @ (d @ (grads @ temps)))
        return out

    raise ValueError(f"element coordinates must be (4, 3) or (8, 3), got {coords.shape}")


def quadrature_volume(mesh: Mesh) -> float:
    """Mesh volume by 4-point (tet) / 8-point (hex) quadrature.

    Independent of the precompute path: integrates det J over each element.
    """
    total = 0.0
    if mesh.tets.size:
        coords = mesh.nodes[mesh.tets]
        m = np.concatenate([np.ones(coords.shape[:2] + (1,)), coords], axis=2)
        dets = np.linalg.det(m)
        total += float((dets / 6.0).sum() * _TET_WEIGHTS[4].sum())
    if mesh.hexes.size:
        pts, wts = hex_gauss_rule(8)
        coords = mesh.nodes[mesh.hexes]
        for xi, w in zip(pts, wts):
            dn = _hex_dn(xi)
            jac = np.einsum("eaj,ak->ejk", coords, dn)
            total += float(w * np.linalg.det(jac).sum())
    return total


# --------------------------------------------------------------------------
# sparse assembly


class Stiffness:
    """K in padded rows. Column i of the (width, n) tables ``cols`` and
    ``at`` lists row i's columns in ascending order and where each one's
    value sits in ``values``, the upper-triangle sums. The padding reads
    column n and the trailing 0 of ``values``, and so does the diagonal of
    a node in no element. A product sums each row's terms in column order
    from 0.0, as a CSR product does; the padding adds +0.0 terms, which
    change no such sum (it never holds -0.0). So products, the diagonal
    and the dense copy are bitwise those of a CSR matrix of the same
    entries."""

    def __init__(self, values: np.ndarray, cols: np.ndarray, at: np.ndarray,
                 diagonal_at: np.ndarray):
        self.shape = (cols.shape[1], cols.shape[1])
        self._cols = cols
        self._padded = values.take(at)  # the values in the tables' layout, 0 on the padding
        self._values, self._diagonal_at = values, diagonal_at

    def __matmul__(self, x) -> np.ndarray:
        terms = np.append(np.asarray(x, dtype=np.float64), 0.0).take(self._cols)
        terms *= self._padded
        return np.add.reduce(terms, axis=0, initial=0.0)

    def diagonal(self) -> np.ndarray:
        return self._values[self._diagonal_at]

    def toarray(self) -> np.ndarray:
        real = self._cols < self.shape[0]
        out = np.zeros(self.shape)
        out[np.nonzero(real)[1], self._cols[real]] = self._padded[real]
        return out


class OracleAssembler:
    """Reusable sparse assembly with a fixed sparsity pattern.

    Element matrices are symmetric, so only their entries with a <= b are
    built, weight * g_a . D g_b with D the conductivity at the element's
    mean temperature T̄, entry-major: row p of a family's (k(k+1)/2, e)
    block holds the p-th pair (a, b), in the order of
    combinations_with_replacement, of all e elements. Each entry goes to
    the upper-triangle slot of its two nodes; the sums of those slots, each
    in entry order (a bincount), are mirrored into K, so K equals its
    transpose bitwise.

    The constructor derives the element geometry at the reference nodes,
    which also gives each node's share of its element's reference volume
    for :meth:`node_volumes` and :meth:`lumped_mass`. The geometry is kept,
    with a private copy of those coordinates, until a call brings
    different ones: for isotropic tables the weight and the g_a . g_b, for
    tensor tables the weight and g. An isotropic derivation keeps no g: it
    writes each family's g in turn into the buffer of the entries, makes
    its pair products, and the call then overwrites the buffer with the
    entries. A call on the same coordinates (a held mesh, or the reference
    nodes) only gathers the element means T̄, evaluates k(T̄), scales and
    sums. The T̄ of the last call stay in :attr:`element_means` for the
    thermal mass.
    """

    def __init__(self, mesh: Mesh, material: MaterialModel):
        self.mesh = mesh
        self.material = material
        self.n = n = mesh.n_nodes
        # per family: connectivity (k, e) and its geometry rule
        self._families = [
            (np.ascontiguousarray(conn.T), derive)
            for conn, derive in ((mesh.tets, _tet_geometry), (mesh.hexes, _hex_geometry))
            if conn.size
        ]
        if not self._families:
            raise GeometryError("mesh has no elements to assemble")
        # each family's (e, k) node indices, the mesh's own contiguous
        # arrays: ravel gives the lumping's element-major order without a copy
        self._conn = [conn for conn in (mesh.tets, mesh.hexes) if conn.size]
        # the upper-triangle slot of every entry, entry-major, numbered in
        # the order of its row * n + col: np.unique's inverse from one
        # argsort, each entry-sized array freed once it is used
        keys = np.concatenate([
            _upper_keys(conn_t, a, b, n)
            for conn_t, _ in self._families
            for a, b in itertools.combinations_with_replacement(range(conn_t.shape[0]), 2)
        ])
        order = np.argsort(keys)
        keys = keys[order]
        first = np.empty(keys.size, dtype=bool)  # the first entry of each slot
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        upper = keys[first]
        del keys
        numbers = np.cumsum(first)
        del first
        numbers -= 1
        self._slot = np.empty_like(order)
        self._slot[order] = numbers
        del order, numbers
        self._n_upper = upper.size
        # K's slots: each upper slot and, off the diagonal, its mirror
        # image, in row-major order; slot j of row i goes to place j of
        # column i of the tables
        rows, cols = upper // n, upper % n
        on = rows == cols
        self._diagonal_at = np.full(n, upper.size)
        self._diagonal_at[rows[on]] = np.flatnonzero(on)
        key = np.concatenate([upper, cols[~on] * n + rows[~on]])
        order = np.argsort(key)
        key = key[order]
        rows = key // n
        counts = np.bincount(rows, minlength=n)
        place = np.arange(key.size) - np.repeat(np.cumsum(counts) - counts, counts)
        self._cols = np.full((counts.max(), n), n)
        self._cols[place, rows] = key % n
        self._at = np.full((counts.max(), n), upper.size)
        self._at[place, rows] = np.concatenate([np.arange(upper.size), np.flatnonzero(~on)])[order]
        # the arrays of every call are made once: fresh ones per call can
        # leave enough free heap on top for malloc to return it to the
        # system and page it in again on the next call. Per family: the
        # block of entries, the gradients g (3, k, e) and the geometry the
        # entries are scaled from. Tensor tables keep g as their geometry;
        # isotropic ones keep the g_a . g_b and derive each family's g in
        # turn into the entries' buffer, which stiffness rewrites after the
        # pair products are made (so the buffer also fits the largest g)
        shapes = [conn_t.shape for conn_t, _ in self._families]
        buffer = np.empty(max(self._slot.size, *(3 * k * e for k, e in shapes)))
        self._entries = buffer[:self._slot.size]
        self._blocks, begin = [], 0
        for k, e in shapes:
            self._blocks.append(self._entries[begin:begin + k * (k + 1) // 2 * e].reshape(-1, e))
            begin += self._blocks[-1].size
        if material.isotropic:
            self._gradients = [buffer[:3 * k * e].reshape(3, k, e) for k, e in shapes]
            self._geometry = [np.empty_like(block) for block in self._blocks]
        else:
            self._gradients = self._geometry = [np.empty((3, k, e)) for k, e in shapes]
        self._weights = [None] * len(self._families)
        del upper, rows, cols, on, key, order, counts, place  # alive, they raise the peak RSS
        self._shares = self._derive_geometry(mesh.nodes)
        self.element_means: list[np.ndarray] = []

    def stiffness(self, coords: np.ndarray | None = None, temps=None) -> Stiffness:
        """Assemble K from node positions (default: reference) and the
        temperature field used for property evaluation (default: uniform
        37 C)."""
        if coords is None:
            coords = self.mesh.nodes
        if temps is None:
            temps = np.full(self.n, 37.0)
        coords = np.asarray(coords, dtype=np.float64)
        if self._coords is None or not np.array_equal(coords, self._coords):
            self._derive_geometry(coords)
        self.element_means = self.mean_temperatures(temps)
        for weight, geometry, tmean, block in zip(self._weights, self._geometry,
                                                  self.element_means, self._blocks):
            cond = self.material.conductivity.evaluate(tmean)
            if self.material.isotropic:
                np.multiply(geometry, weight * cond, out=block)
                continue
            g, d = geometry, np.moveaxis(cond, 0, 2)
            q = np.empty_like(g)  # D g
            for i in range(3):
                q[i] = d[i, 0] * g[0] + d[i, 1] * g[1] + d[i, 2] * g[2]
            np.multiply(_pair_products(g, q, block), weight, out=block)
        return self._assemble(self._entries)

    def _assemble(self, entries: np.ndarray) -> Stiffness:
        """K from the a <= b entries; the sums end in the 0 the padding
        reads."""
        sums = np.bincount(self._slot, weights=entries, minlength=self._n_upper + 1)
        return Stiffness(sums, self._cols, self._at, self._diagonal_at)

    def mean_temperatures(self, temps) -> list[np.ndarray]:
        """Each element's mean node temperature T̄, per family."""
        temps = np.asarray(temps, dtype=np.float64)
        return [temps.take(conn_t).mean(axis=0) for conn_t, _ in self._families]

    def node_volumes(self) -> np.ndarray:
        """Each node's reference volume: the sum of its elements' shares."""
        return self._sum_at_nodes(self._shares)

    def lumped_mass(self, element_means) -> np.ndarray:
        """Equal-split lumping of rho c(T̄) over the reference volumes;
        element_means holds each family's T̄ (:meth:`mean_temperatures` or
        :attr:`element_means`)."""
        material = self.material
        return self._sum_at_nodes([
            share * (material.density.evaluate(tmean) * material.specific_heat.evaluate(tmean))
            for share, tmean in zip(self._shares, element_means)])

    def _sum_at_nodes(self, per_element) -> np.ndarray:
        """Each node's sum of its elements' values, one array per family,
        in ascending element order."""
        out = np.zeros(self.n)
        for conn, values in zip(self._conn, per_element):
            out += np.bincount(conn.ravel(), weights=np.repeat(values, conn.shape[1]),
                               minlength=self.n)
        return out

    def _derive_geometry(self, coords) -> list[np.ndarray]:
        """Weight and gradients of every element on coords; for isotropic
        tables the gradients are kept as their pair products. Returns each
        family's per-node shares of the element volumes on coords."""
        self._coords = None  # a derivation that raises leaves no memo behind
        coords_t = coords.T
        shares = [None] * len(self._families)
        for family, (conn_t, derive) in enumerate(self._families):
            g = self._gradients[family]
            self._weights[family], shares[family] = derive(coords_t, conn_t, g)
            if self.material.isotropic:
                _pair_products(g, g, self._geometry[family])
        self._coords = coords.copy()
        return shares


def _upper_keys(conn_t: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    """row * n + col of the upper-triangle slot of entry (a, b) of every
    element."""
    i, j = conn_t[a].astype(np.int64), conn_t[b].astype(np.int64)
    return np.minimum(i, j) * n + np.maximum(i, j)


def _pair_products(g: np.ndarray, q: np.ndarray, out: np.ndarray) -> np.ndarray:
    """g_a . q_b of (3, k, e) component rows for a <= b into out, one row
    per pair (k(k+1)/2, e), the pairs in the order of
    combinations_with_replacement."""
    k = g.shape[1]
    term = np.empty(g.shape[2])
    for pair, (a, b) in enumerate(itertools.combinations_with_replacement(range(k), 2)):
        row = out[pair]  # (x + y) + z, summed in place
        np.multiply(g[0, a], q[0, b], out=row)
        row += np.multiply(g[1, a], q[1, b], out=term)
        row += np.multiply(g[2, a], q[2, b], out=term)
    return out


def _tet_geometry(coords_t, conn_t, g) -> tuple[np.ndarray, np.ndarray]:
    """Unscaled gradients g = 6 V grad N_a (3, 4, e), written into g; the
    weight 1 / 6V, so that V grad^T D grad = weight * g^T D g, and each
    node's share V / 4."""
    # node 0's position and then the third edge in g's node-0 rows, which
    # are free until g_0 is formed
    x0 = g[:, 0]
    x0[...] = np.take(coords_t, conn_t[0], axis=1)
    e1 = np.take(coords_t, conn_t[1], axis=1)
    e1 -= x0
    e2 = np.take(coords_t, conn_t[2], axis=1)
    e2 -= x0
    e3 = np.subtract(np.take(coords_t, conn_t[3], axis=1), x0, out=x0)
    _cross(e2, e3, g[:, 1])
    _cross(e3, e1, g[:, 2])
    _cross(e1, e2, g[:, 3])
    det = e1[0] * g[0, 1] + e1[1] * g[1, 1] + e1[2] * g[2, 1]  # 6 V
    bad = ~(det > 0)
    if np.any(bad):
        raise GeometryError(
            f"tet4 element {int(np.argmax(bad))} has non-positive or non-finite "
            "volume on the given coordinates"
        )
    g0 = np.add(g[:, 1], g[:, 2], out=g[:, 0])  # -((g_1 + g_2) + g_3)
    g0 += g[:, 3]
    np.negative(g0, out=g0)
    return 1.0 / (6.0 * det), det / 24.0  # bitwise (det / 6) / 4


def _hex_geometry(coords_t, conn_t, g) -> tuple[np.ndarray, np.ndarray]:
    """Centre-point gradients (3, 8, e), written into g; the weight 8 det J
    and each node's share 8 det J / 8."""
    x = np.take(coords_t, conn_t, axis=1)  # (3, 8, e)
    jac = np.einsum("jae,ak->ejk", x, _HEX_DN_CENTER)
    with np.errstate(invalid="ignore"):  # NaN coordinates fail the check below
        det = np.linalg.det(jac)
    bad = ~(det > 0)
    if np.any(bad):
        raise GeometryError(
            f"hex8 element {int(np.argmax(bad))} has non-positive or non-finite "
            "centre Jacobian on the given coordinates"
        )
    rhs = np.broadcast_to(_HEX_DN_CENTER.T, (det.size, 3, 8))
    grads = np.linalg.solve(np.transpose(jac, (0, 2, 1)), rhs)  # (e, 3, 8)
    g[...] = np.moveaxis(grads, 0, 2)
    return 8.0 * det, det


def _cross(u: np.ndarray, v: np.ndarray, out: np.ndarray) -> None:
    """Cross products of (3, e) component rows into out."""
    out[0] = u[1] * v[2] - u[2] * v[1]
    out[1] = u[2] * v[0] - u[0] * v[2]
    out[2] = u[0] * v[1] - u[1] * v[0]


def dense_lambda_max(
    k: Stiffness,
    lumped_mass: np.ndarray,
    perfusion_diag: np.ndarray,
    dirichlet_mask=None,
) -> float:
    """Largest eigenvalue of C^{-1}(K + K_b) by a dense symmetric solve.

    C is diagonal, so the generalized problem is the ordinary one of
    C^{-1/2}(K + K_b)C^{-1/2}. Only viable for small systems; used to
    validate the Lanczos estimate.
    """
    a = k.toarray() + np.diag(perfusion_diag)
    mass = np.asarray(lumped_mass, dtype=np.float64)
    if dirichlet_mask is not None and np.any(dirichlet_mask):
        free = ~np.asarray(dirichlet_mask, dtype=bool)
        a = a[np.ix_(free, free)]
        mass = mass[free]
    scale = 1.0 / np.sqrt(mass)
    return float(np.linalg.eigvalsh(scale[:, None] * a * scale)[-1])


# --------------------------------------------------------------------------
# reference transient

# relative residual at which the backward scheme's conjugate gradients stop
SOLVER_RTOL = 1e-10


def conjugate_gradients(matvec, b: np.ndarray, x0: np.ndarray, precond_diag: np.ndarray,
                        rtol: float) -> tuple[np.ndarray, int]:
    """Jacobi-preconditioned conjugate gradients for A x = b, A given by
    its matvec: step for step ``scipy.sparse.linalg.cg(A, b, x0, rtol=rtol,
    atol=0.0, M=diag(1 / precond_diag))``. Stops once the residual's norm
    is below rtol |b|. Returns (x, info): info is 0 on convergence and the
    iteration limit, 10 n, otherwise."""
    b_norm = np.linalg.norm(b)
    if b_norm == 0:
        return b, 0
    atol = rtol * b_norm
    x = x0.copy()
    r = b - matvec(x) if x.any() else b.copy()
    max_iterations = 10 * b.size
    for iteration in range(max_iterations):
        if np.linalg.norm(r) < atol:
            return x, 0
        z = r / precond_diag
        rho = np.dot(r, z)
        if iteration:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = matvec(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, max_iterations


def _free_block(k: Stiffness, free: np.ndarray):
    """The product with K's free x free block: K's product with x on the
    free nodes and 0 on the others, on the free rows. Each other column
    adds a +-0 term to a row's sum, which never holds -0, so the sums are
    bitwise those of the block's own CSR product."""
    on_free = np.zeros(k.shape[0])

    def product(x: np.ndarray) -> np.ndarray:
        on_free[free] = x
        return (k @ on_free)[free]

    return product


def _backward_step(k: Stiffness, temps, mass_dt, load, state, free, where) -> np.ndarray:
    """Backward Euler's next field: the free rows of (K + D) T = C/dt T_n +
    load, D = C/dt + K_b, with the Dirichlet values moved to the
    right-hand side; where names the step in an error."""
    diag = (mass_dt + state.perfusion_diag)[free]
    free_block = _free_block(k, free)

    def matvec(x):
        y = free_block(x)
        y += diag * x
        return y

    fixed_vals = state.dirichlet_values  # zero off the Dirichlet nodes
    b = (mass_dt * temps + load)[free] - (k @ fixed_vals)[free]
    solution, info = conjugate_gradients(
        matvec, b, temps[free], k.diagonal()[free] + diag, SOLVER_RTOL,
    )
    if info != 0:
        raise DivergenceError(
            f"{where}: the implicit solve did not converge in {info} iterations")
    temps = fixed_vals.copy()
    temps[free] = solution
    return temps


def reference_transient(
    mesh: Mesh,
    material: MaterialModel,
    perfusion: PerfusionParams,
    bc: BoundaryConditions,
    provider,
    schedule: Schedule,
    scheme: str = "backward",
    initial_temperature: float = 37.0,
    update_thermal_mass: bool | None = None,
    probes=(),
) -> SimulationRecord:
    """Assembled-matrix transient on the production run's time line
    (:meth:`Schedule.walk`, recorded by :class:`SimulationRecord`).

    scheme "forward" replays explicit Euler through the assembled K (an
    independent path to the same scheme); "backward" solves the implicit
    system each step with lagged (Picard) property evaluation, conjugate
    gradients on the Dirichlet-reduced SPD system, relative residual below
    SOLVER_RTOL.
    """
    if scheme not in ("forward", "backward"):
        raise ValueError(f"scheme must be forward or backward, got {scheme!r}")

    assembler = OracleAssembler(mesh, material)
    update_thermal_mass = resolve_update_thermal_mass(material, update_thermal_mass)
    # a frozen mass is lumped from the uniform initial field, as production
    # lumps it; an updated one is lumped anew in every step
    initial_means = assembler.mean_temperatures(np.full(mesh.n_nodes, float(initial_temperature)))
    state = thermal_state_from_volumes(
        assembler.node_volumes(), assembler.lumped_mass(initial_means),
        perfusion, bc, initial_temperature,
    )
    if provider is None:
        provider = IdentityDeformation()

    fixed = np.flatnonzero(state.dirichlet_mask)
    fixed_temps = state.dirichlet_values[fixed]
    free = np.flatnonzero(~state.dirichlet_mask)
    sources = {on: state.sources(on) for on in (False, True)}
    record = SimulationRecord(
        dt=schedule.dt, n_steps=schedule.n_steps, probe_indices=probes,
        n_elements=mesh.n_elements, update_thermal_mass=update_thermal_mass,
    )

    moving = provider.time_varying
    t_geom = 0.0
    coords = mesh.nodes + provider.displacements_at(t_geom, mesh).displacements

    temps = state.T.copy()
    mass = state.lumped_mass
    dt = schedule.dt

    for step_index, t_now, source_on, snapshots_due in schedule.walk():
        record.capture(t_now, temps, snapshots_due)
        if step_index == record.n_steps:
            break
        load = sources[source_on]
        where = f"reference step {step_index} (t = {t_now:.6g} s)"

        if moving:
            t_geom = t_now if scheme == "forward" else t_now + dt
            coords = mesh.nodes + provider.displacements_at(t_geom, mesh).displacements

        try:
            k = assembler.stiffness(coords=coords, temps=temps)
        except GeometryError as err:  # the backward scheme's last K is at total_time
            raise SingularDeformationError(f"{where}: {err} of t = {t_geom:.6g} s") from err
        if update_thermal_mass:
            # at the element means K's conductivity was just evaluated at
            mass = assembler.lumped_mass(assembler.element_means)

        if scheme == "forward":
            rhs = load - k @ temps - state.perfusion_diag * temps
            temps = temps + (dt / mass) * rhs
            temps[fixed] = fixed_temps
        else:
            temps = _backward_step(k, temps, mass / dt, load, state, free, where)
        del k  # the next step's K is assembled without this one alive

        if not np.all(np.isfinite(temps)):
            raise DivergenceError(f"{where} is non-finite")

    record.finish(temps)
    return record

