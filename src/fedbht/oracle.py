"""Assembled-matrix reference implementations for verification.

Everything here recomputes results through classical sparse assembly so the
matrix-free production path can be checked against an independent route:

  * element stiffness is derived directly from node positions (edge-vector
    cross products for tets, centre-point Jacobian for hexes); when given
    deformed coordinates the geometry is simply re-derived from the moved
    nodes, never pulled back through a deformation gradient;
  * global K is assembled into scipy.sparse CSR;
  * reference transients advance the assembled system with forward or
    backward Euler, re-assembling every step so lagged (Picard) property
    evaluation matches the production semantics; the element geometry is
    derived once per node position and kept while the mesh holds, so a held
    step only re-evaluates the conductivity at the element means T̄;
  * brute-force Gauss quadrature integrates single-element loads.

Thermal mass and perfusion lumping always use reference-configuration
volumes, matching the production convention (mass conservation makes
rho c V deformation-invariant). The lumping is the oracle's own, on
element volumes it derives from the node positions: an equal split of V
gives the nodal volumes that carry the perfusion and Q_met terms, and an
equal split of rho c(T̄) V the thermal mass, anew in every step of an
updated run (at the T̄ of that step's K) and once, from the uniform
initial field, for a frozen one.
The reference transient borrows only the bookkeeping of production's
:func:`integrator.thermal_state_from_volumes`: the heater, flux and film
terms on their nodes and the Dirichlet field.

These paths are for testing and verification. They are simpler than the
production operator and independent of it: element matrices come from the
oracle's own derivation (edge cross products for tets, the centre Jacobian
for hexes) and share no code with the production kernels. They are not
slow on purpose; element matrices are built entry by entry on per-element
arrays, without forming per-element tensors.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .deformation import IdentityDeformation
from .errors import DivergenceError, GeometryError
from .integrator import (
    BoundaryConditions,
    Schedule,
    SimulationRecord,
    resolve_update_thermal_mass,
    thermal_state_from_volumes,
)
from .material import MaterialModel, PerfusionParams
from .mesh import HEX_DN_CENTER, Mesh

# --------------------------------------------------------------------------
# quadrature rules

# Keast 4-point rule, degree 2, barycentric coordinates.
_TET_A = 0.5854101966249685
_TET_B = 0.1381966011250105

_TET_RULES = {
    1: (np.full((1, 4), 0.25), np.array([1.0])),
    # symmetric two-point rule, degree 1: points average to the centroid
    2: (
        np.array([
            [0.5, 1.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0],
            [0.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        ]),
        np.array([0.5, 0.5]),
    ),
    4: (
        np.array([
            [_TET_A, _TET_B, _TET_B, _TET_B],
            [_TET_B, _TET_A, _TET_B, _TET_B],
            [_TET_B, _TET_B, _TET_A, _TET_B],
            [_TET_B, _TET_B, _TET_B, _TET_A],
        ]),
        np.full(4, 0.25),
    ),
}

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
    from .mesh import HEX_SIGNS

    s = HEX_SIGNS
    dn = np.empty((8, 3))
    dn[:, 0] = s[:, 0] * (1 + s[:, 1] * xi[1]) * (1 + s[:, 2] * xi[2]) / 8.0
    dn[:, 1] = (1 + s[:, 0] * xi[0]) * s[:, 1] * (1 + s[:, 2] * xi[2]) / 8.0
    dn[:, 2] = (1 + s[:, 0] * xi[0]) * (1 + s[:, 1] * xi[1]) * s[:, 2] / 8.0
    return dn


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
        if n_points not in _TET_RULES:
            raise ValueError(f"tet rule must have 1, 2 or 4 points, got {n_points}")
        _, weights = _TET_RULES[n_points]
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
        _, weights = _TET_RULES[4]
        total += float((dets / 6.0).sum() * weights.sum())
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


class OracleAssembler:
    """Reusable sparse assembly with a fixed sparsity pattern.

    The scatter from element entries to CSR slots is built once. The element
    geometry is derived from the coordinates of a call and kept, with a
    private copy of those coordinates, until a call brings different ones:
    for isotropic tables the weight and the products g_a . g_b of each
    element, for tensor tables the weight and g. A call on the same
    coordinates (a held mesh) only gathers the element means T̄, evaluates
    k(T̄), scales and scatters. The T̄ of the last call stay in
    :attr:`element_means` for the thermal mass. Element matrices are built
    entry-major: row (a, b) of a family's (k, k, n) block holds entry
    (a, b) of all n elements.
    """

    def __init__(self, mesh: Mesh, material: MaterialModel):
        self.mesh = mesh
        self.material = material
        self.n = mesh.n_nodes
        # per family: connectivity (k, e) and its geometry rule
        self._families = [
            (np.ascontiguousarray(conn.T), derive)
            for conn, derive in ((mesh.tets, _tet_geometry), (mesh.hexes, _hex_geometry))
            if conn.size
        ]
        if not self._families:
            raise GeometryError("mesh has no elements to assemble")
        # key[a, b, e] = row * n + col of entry (a, b) of element e
        key = np.concatenate([
            (conn_t.astype(np.int64)[:, None] * self.n + conn_t).ravel()
            for conn_t, _ in self._families
        ])
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        unique_key = key[first]
        del key  # frees the sorted keys before the scatter is built: lower peak memory
        # P[slot, entry] = 1; the stable sort lists each row's entries in
        # ascending order, so P @ entries sums every slot in the order of
        # a bincount over the entries
        self._scatter = scipy.sparse.csr_matrix(
            (np.ones(order.size), order.astype(np.int32),
             np.r_[first, order.size].astype(np.int32)),
            shape=(first.size, order.size),
        )
        del order
        self._indices = (unique_key % self.n).astype(np.int32)
        # one entry buffer for every call: a fresh one per call can leave
        # enough free heap on top for malloc to return it to the system
        # and page it in again on the next call
        self._entries = np.empty(self._scatter.shape[1])
        counts = np.bincount(unique_key // self.n, minlength=self.n)
        self._indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
        self._coords = None  # copy of the coordinates the geometry was derived on
        self._geometry = []  # per family: (weight, g_a . g_b pairs or g)
        self.element_means: list[np.ndarray] = []

    def stiffness(self, coords: np.ndarray | None = None, temps=None) -> scipy.sparse.csr_matrix:
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

        start = 0
        for (conn_t, _), geometry, tmean in zip(self._families, self._geometry,
                                                self.element_means):
            k = conn_t.shape[0]
            out = self._entries[start:start + k * k * tmean.size].reshape(k, k, -1)
            start += out.size
            self._sandwich(*geometry, self.material.conductivity.evaluate(tmean), out)
        data = self._scatter @ self._entries
        return scipy.sparse.csr_matrix(
            (data, self._indices, self._indptr), shape=(self.n, self.n)
        )

    def mean_temperatures(self, temps) -> list[np.ndarray]:
        """Each element's mean node temperature T̄, per family."""
        temps = np.asarray(temps, dtype=np.float64)
        return [np.take(temps, conn_t).mean(axis=0) for conn_t, _ in self._families]

    def _derive_geometry(self, coords) -> None:
        """Weight and gradients of every element on coords; for isotropic
        tables the gradients are kept as their pair products."""
        self._coords = None  # a derivation that raises leaves no memo behind
        self._geometry = []
        coords_t = coords.T
        for conn_t, derive in self._families:
            g, weight = derive(coords_t, conn_t)
            self._geometry.append((weight, _pair_products(g, g) if self.material.isotropic else g))
        self._coords = coords.copy()

    def _sandwich(self, weight, geometry, cond, out) -> None:
        """Element matrices weight * g^T D g into out (k, k, e).

        D is the conductivity at each element's mean temperature, a scalar
        for isotropic tables (geometry holds the g_a . g_b) and a tensor
        otherwise (geometry holds g, (3, k, e)). D is symmetric, so only
        the entries with a <= b are computed.
        """
        if self.material.isotropic:
            scale, products = weight * cond, geometry
        else:
            g = geometry
            d = np.moveaxis(cond, 0, 2)
            q = np.empty_like(g)  # D g
            for i in range(3):
                q[i] = d[i, 0] * g[0] + d[i, 1] * g[1] + d[i, 2] * g[2]
            scale, products = weight, _pair_products(g, q)
        pairs = itertools.combinations_with_replacement(range(out.shape[0]), 2)
        for pair, (a, b) in enumerate(pairs):
            np.multiply(scale, products[pair], out=out[a, b])
            out[b, a] = out[a, b]


def _pair_products(g: np.ndarray, q: np.ndarray) -> np.ndarray:
    """g_a . q_b of (3, k, e) component rows for a <= b, one row per pair
    (k(k+1)/2, e), the pairs in the order of combinations_with_replacement."""
    k = g.shape[1]
    out = np.empty((k * (k + 1) // 2, g.shape[2]))
    term = np.empty(g.shape[2])
    for pair, (a, b) in enumerate(itertools.combinations_with_replacement(range(k), 2)):
        row = out[pair]  # (x + y) + z, summed in place
        np.multiply(g[0, a], q[0, b], out=row)
        row += np.multiply(g[1, a], q[1, b], out=term)
        row += np.multiply(g[2, a], q[2, b], out=term)
    return out


def _tet_geometry(coords_t, conn_t) -> tuple[np.ndarray, np.ndarray]:
    """Unscaled gradients g = 6 V grad N_a (3, 4, e) and the weight
    1 / 6V, so that V grad^T D grad = weight * g^T D g."""
    x0 = np.take(coords_t, conn_t[0], axis=1)  # (3, e)
    e1, e2, e3 = (np.take(coords_t, conn_t[a], axis=1) - x0 for a in (1, 2, 3))
    g = np.empty((3,) + conn_t.shape)
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
    g[:, 0] = -(g[:, 1] + g[:, 2] + g[:, 3])
    return g, 1.0 / (6.0 * det)


def _hex_geometry(coords_t, conn_t) -> tuple[np.ndarray, np.ndarray]:
    """Centre-point gradients (3, 8, e) and the weight 8 det J."""
    x = np.take(coords_t, conn_t, axis=1)  # (3, 8, e)
    jac = np.einsum("jae,ak->ejk", x, HEX_DN_CENTER)
    with np.errstate(invalid="ignore"):  # NaN coordinates fail the check below
        det = np.linalg.det(jac)
    bad = ~(det > 0)
    if np.any(bad):
        raise GeometryError(
            f"hex8 element {int(np.argmax(bad))} has non-positive or non-finite "
            "centre Jacobian on the given coordinates"
        )
    rhs = np.broadcast_to(HEX_DN_CENTER.T, (det.size, 3, 8))
    grads = np.linalg.solve(np.transpose(jac, (0, 2, 1)), rhs)  # (e, 3, 8)
    return np.ascontiguousarray(np.moveaxis(grads, 0, 2)), 8.0 * det


def _cross(u: np.ndarray, v: np.ndarray, out: np.ndarray) -> None:
    """Cross products of (3, e) component rows into out."""
    out[0] = u[1] * v[2] - u[2] * v[1]
    out[1] = u[2] * v[0] - u[0] * v[2]
    out[2] = u[0] * v[1] - u[1] * v[0]


def dense_lambda_max(
    k: scipy.sparse.csr_matrix,
    lumped_mass: np.ndarray,
    perfusion_diag: np.ndarray,
    dirichlet_mask=None,
) -> float:
    """Largest eigenvalue of C^{-1}(K + K_b) by a dense generalized solve.

    Only viable for small systems; used to validate the power iteration.
    """
    a = k.toarray() + np.diag(perfusion_diag)
    b = np.diag(lumped_mass)
    if dirichlet_mask is not None and np.any(dirichlet_mask):
        free = ~np.asarray(dirichlet_mask, dtype=bool)
        a = a[np.ix_(free, free)]
        b = b[np.ix_(free, free)]
    vals = scipy.linalg.eigh(a, b, eigvals_only=True)
    return float(vals[-1])


# --------------------------------------------------------------------------
# reference transient

# relative residual at which the backward scheme's conjugate gradients stop
SOLVER_RTOL = 1e-10


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

    # built before the lumping below: the other way round, the peak RSS of
    # verify on the 13^3 demo is 0.9 MB higher (heap layout)
    assembler = OracleAssembler(mesh, material)
    update_thermal_mass = resolve_update_thermal_mass(material, update_thermal_mass)
    lumping = _reference_lumping(mesh)
    # a frozen mass is lumped from the uniform initial field, as production
    # lumps it; an updated one is lumped anew in every step
    initial_means = assembler.mean_temperatures(np.full(mesh.n_nodes, float(initial_temperature)))
    state = thermal_state_from_volumes(
        _reference_node_volumes(lumping),
        _oracle_lumped_mass(material, initial_means, lumping),
        perfusion, bc, initial_temperature,
    )
    if provider is None:
        provider = IdentityDeformation()

    n = mesh.n_nodes
    free = ~state.dirichlet_mask
    fixed_vals = state.dirichlet_values  # zero off the Dirichlet nodes
    record = SimulationRecord(
        dt=schedule.dt, n_steps=schedule.n_steps, probe_indices=probes,
        n_elements=mesh.n_elements, update_thermal_mass=update_thermal_mass,
    )

    moving = provider.time_varying
    coords = mesh.nodes + provider.displacements_at(0.0, mesh).displacements

    temps = state.T.copy()
    mass = state.lumped_mass
    dt = schedule.dt

    for step_index, t_now, source_on, snapshots_due in schedule.walk():
        record.capture(t_now, temps, snapshots_due)
        if step_index == record.n_steps:
            break
        load = state.sources(source_on)

        if moving:
            t_geom = t_now if scheme == "forward" else t_now + dt
            coords = mesh.nodes + provider.displacements_at(t_geom, mesh).displacements

        k = assembler.stiffness(coords=coords, temps=temps)
        if update_thermal_mass:
            # at the element means K's conductivity was just evaluated at
            mass = _oracle_lumped_mass(material, assembler.element_means, lumping)

        if scheme == "forward":
            rhs = load - k @ temps - state.perfusion_diag * temps
            temps = temps + (dt / mass) * rhs
        else:
            diag = mass / dt + state.perfusion_diag
            b_full = (mass / dt) * temps + load

            def matvec(x_free):
                x = np.zeros(n)
                x[free] = x_free
                y = k @ x + diag * x
                return y[free]

            # an operator without a dtype infers one from a trial matvec
            a_op = scipy.sparse.linalg.LinearOperator(
                (int(free.sum()), int(free.sum())), matvec=matvec, dtype=np.float64
            )
            coupling = k @ fixed_vals + diag * fixed_vals
            b_reduced = b_full[free] - coupling[free]
            precond_diag = (k.diagonal() + diag)[free]
            m_op = scipy.sparse.linalg.LinearOperator(
                a_op.shape, matvec=lambda x: x / precond_diag, dtype=np.float64
            )
            x0 = temps[free]
            solution, info = scipy.sparse.linalg.cg(
                a_op, b_reduced, x0=x0, rtol=SOLVER_RTOL, atol=0.0, M=m_op
            )
            if info != 0:
                raise RuntimeError(f"implicit solve failed to converge (info={info})")
            temps = fixed_vals.copy()
            temps[free] = solution

        temps[state.dirichlet_mask] = state.dirichlet_values[state.dirichlet_mask]
        if not np.all(np.isfinite(temps)):
            raise DivergenceError(f"reference step {step_index} (t = {t_now:.6g} s) is non-finite")

    record.finish(temps)
    return record


def _reference_lumping(mesh: Mesh) -> list[scipy.sparse.csr_matrix]:
    """Per element family, the (n_nodes, e) matrix whose entry (i, e) is
    element e's reference volume split equally over its nodes, from
    first-principles geometry. A row lists its elements in ascending order,
    so a product with it sums each node's shares in element order."""
    lumping = []
    if mesh.tets.size:
        x = mesh.nodes[mesh.tets]
        det = np.einsum(
            "ei,ei->e", x[:, 1] - x[:, 0], np.cross(x[:, 2] - x[:, 0], x[:, 3] - x[:, 0])
        )
        lumping.append(_equal_split(mesh.tets, (det / 6.0) / 4.0, mesh.n_nodes))
    if mesh.hexes.size:
        x = mesh.nodes[mesh.hexes]
        jac = np.einsum("eaj,ak->ejk", x, HEX_DN_CENTER)
        lumping.append(_equal_split(mesh.hexes, np.linalg.det(jac), mesh.n_nodes))  # 8 det / 8
    return lumping


def _equal_split(conn: np.ndarray, share: np.ndarray, n_nodes: int) -> scipy.sparse.csr_matrix:
    n_elements, k = conn.shape
    return scipy.sparse.csr_matrix(
        (np.repeat(share, k), (conn.ravel(), np.repeat(np.arange(n_elements), k))),
        shape=(n_nodes, n_elements),
    )


def _reference_node_volumes(lumping) -> np.ndarray:
    """Nodal volumes: the nodal sums of the shares in _reference_lumping."""
    vols = np.zeros(lumping[0].shape[0])
    for split in lumping:
        vols += split @ np.ones(split.shape[1])
    return vols


def _oracle_lumped_mass(material: MaterialModel, element_means, lumping) -> np.ndarray:
    """Independent equal-split lumping of rho c(T̄) over the reference
    volumes of _reference_lumping; element_means holds each family's T̄
    (:meth:`OracleAssembler.mean_temperatures`)."""
    mass = np.zeros(lumping[0].shape[0])
    for tmean, split in zip(element_means, lumping):
        mass += split @ (material.density.evaluate(tmean) * material.specific_heat.evaluate(tmean))
    return mass
