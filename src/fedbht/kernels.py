"""Element conduction loads, matrix-free, for five formulation variants.

Every variant evaluates the action of the conduction operator on the nodal
temperature vector without assembling a global matrix. The five variants
are a study of cost; they run on two cache strategies:

  frozen stiffness  iii (classical_aniso_temp_indep) and
                    v (classical_iso_temp_indep): conductivity is constant,
                    so the full element stiffness is cached at build time.
  pullback          i (deformed_aniso_temp_dep), ii (classical_aniso_temp_dep)
                    and iv (classical_iso_temp_dep): the conduction integral
                    pulled back to the reference configuration through the
                    per-element deformation gradient F, with k(T) evaluated
                    at the element mean temperature every call (a scalar for
                    isotropic tables, a tensor otherwise). At rest F = I and
                    the pullback is the classical element; ii and iv keep
                    that reference geometry for the whole run, i follows
                    the deformation.

Element loads are the positive-semidefinite form K_e @ T_e; the explicit
update subtracts them, which makes pure conduction dissipative.

Tet4 elements integrate exactly (constant gradients). Hex8 elements use
one-point reduced integration at the element centre with weight
8 * det(J0).

The pullback's two stages work on component-major (component, node, element)
arrays, so every arithmetic step is an elementwise operation over elements:

  geometry     displacements -> F = I + u grad^T, its adjugate inverse F^-1
               and weight * det F, with the det F floor checked per element.
  temperature  reference gradient grad T, then F^-T, the scale
               weight * det F * k(T) (a tensor D only for anisotropic
               materials), then F^-1 and grad^T.

Both stages work in the block's preallocated scratch rows, so a call makes
no per-element temporaries beyond the property lookup and, when the
geometry is rebuilt, F itself. Every per-element row of a block starts on
a cache line, so the kernel's speed does not depend on where the
allocator puts its buffers.

The geometry stage is memoised. The operator starts from the reference
configuration (F^-1 = I, weight * det F = weight, zero displacements);
ii and iv ignore the deformation and never leave it. Variant i keeps a
private copy of the last displacement field and rebuilds F^-1 and
weight * det F only when the field changes by value; a missing deformation
is a zero displacement field.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .deformation import DET_FLOOR, DeformationState, inv_det_3x3
from .errors import SingularDeformationError
from .material import MaterialModel
from .mesh import ElementPrecomp, Mesh


class Variant(Enum):
    """Formulation variants, ordered from most general to most precomputed."""

    DEFORMED_ANISO_TEMP_DEP = "deformed_aniso_temp_dep"
    CLASSICAL_ANISO_TEMP_DEP = "classical_aniso_temp_dep"
    CLASSICAL_ANISO_TEMP_INDEP = "classical_aniso_temp_indep"
    CLASSICAL_ISO_TEMP_DEP = "classical_iso_temp_dep"
    CLASSICAL_ISO_TEMP_INDEP = "classical_iso_temp_indep"

    @classmethod
    def from_string(cls, name: str) -> "Variant":
        key = name.strip().lower().replace("-", "_")
        if key in _ROMAN:
            return _ROMAN[key]
        for member in cls:
            if member.value == key or member.name.lower() == key:
                return member
        raise ValueError(
            f"unknown variant {name!r}; use one of "
            f"{[m.value for m in cls]} or i..v"
        )

    @property
    def roman(self) -> str:
        return _TO_ROMAN[self]

    @property
    def uses_deformation(self) -> bool:
        return self is Variant.DEFORMED_ANISO_TEMP_DEP

    @property
    def requires_isotropic(self) -> bool:
        return self in (Variant.CLASSICAL_ISO_TEMP_DEP, Variant.CLASSICAL_ISO_TEMP_INDEP)

    @property
    def full_precompute(self) -> bool:
        return self in (Variant.CLASSICAL_ANISO_TEMP_INDEP, Variant.CLASSICAL_ISO_TEMP_INDEP)


_ROMAN = {
    "i": Variant.DEFORMED_ANISO_TEMP_DEP,
    "ii": Variant.CLASSICAL_ANISO_TEMP_DEP,
    "iii": Variant.CLASSICAL_ANISO_TEMP_INDEP,
    "iv": Variant.CLASSICAL_ISO_TEMP_DEP,
    "v": Variant.CLASSICAL_ISO_TEMP_INDEP,
}
_TO_ROMAN = {v: k for k, v in _ROMAN.items()}


@dataclass
class _Block:
    """One ElementFamily (tet4 or hex8), its four fields first, with its
    cached factors."""

    kind: str
    conn: np.ndarray          # (n, k) node indices
    grads: np.ndarray         # (n, 3, k) reference shape-function gradients
    weights: np.ndarray       # (n,) integration weights (V or 8 det J0)
    stiffness: np.ndarray | None = None  # (n, k, k) frozen full stiffness
    # pullback (i, ii, iv) only: component-major copies and the geometry memo
    conn_t: np.ndarray | None = None     # (k, n) node indices
    grads_t: np.ndarray | None = None    # (3, k, n) reference gradients
    finv: np.ndarray | None = None       # (3, 3, n) F^-1, [material, spatial]
    wdet: np.ndarray | None = None       # (n,) weight * det F
    work: np.ndarray | None = None       # (k + 8, n) scratch rows of both stages
    loads: np.ndarray | None = None      # (n, k) pullback loads


class ConductionOperator:
    """Matrix-free conduction operator for one mesh/material/variant.

    Build once per run; :meth:`apply` evaluates the global load vector
    K(T) @ T. Variants iii and v apply a frozen element stiffness; i, ii
    and iv run the pullback from a geometry memo (F^-1 and weight * det F)
    built at the reference configuration. Only variant i reads the
    deformation: it rebuilds the memo against a private copy of the last
    displacement field when that field changes, so calls with an unchanged
    deformation run only the temperature stage. The memo and the
    pullback's scratch buffers belong to the operator: one operator serves
    one caller at a time.
    """

    def __init__(
        self,
        mesh: Mesh,
        precomp: ElementPrecomp,
        material: MaterialModel,
        variant: Variant,
        reference_temperature: float = 37.0,
    ):
        if variant.requires_isotropic and not material.isotropic:
            raise ValueError(f"variant {variant.value} requires isotropic conductivity")
        self.mesh = mesh
        self.material = material
        self.variant = variant
        self.reference_temperature = float(reference_temperature)
        self.n_nodes = mesh.n_nodes

        self._blocks = [_Block(*family) for family in precomp.families]

        if variant.full_precompute:
            d0 = material.conductivity_matrix(self.reference_temperature)
            for block in self._blocks:
                block.stiffness = block.weights[:, None, None] * np.einsum(
                    "eka,kl,elb->eab", block.grads, d0, block.grads
                )
            return

        # pullback: the geometry memo starts at the reference configuration
        self._memo_disp: np.ndarray | None = np.zeros((self.n_nodes, 3))
        for block in self._blocks:
            n, npe = block.conn.shape
            block.conn_t = _aligned_rows((npe,), n, block.conn.dtype)
            block.conn_t[...] = block.conn.T
            block.grads_t = _aligned_rows((3, npe), n)
            block.grads_t[...] = np.transpose(block.grads, (1, 2, 0))
            block.finv = _aligned_rows((3, 3), n)
            block.finv[...] = np.eye(3)[:, :, None]
            block.wdet = _aligned_rows((), n)
            block.wdet[...] = block.weights
            block.work = _aligned_rows((npe + 8,), n)
            block.loads = _aligned_rows((), n * npe).reshape(n, npe)

    # -- public API ---------------------------------------------------------

    def apply(self, temps, deformation: DeformationState | None = None, property_temps=None):
        """Global conduction loads K(T) @ temps.

        property_temps, when given, supplies the field at which temperature-
        dependent properties are evaluated (the stability estimator freezes
        properties at the operating state while probing with eigenvector
        iterates). Defaults to ``temps``.
        """
        temps = np.asarray(temps, dtype=np.float64)
        if temps.shape != (self.n_nodes,):
            raise ValueError(f"temperature vector must be ({self.n_nodes},)")
        prop = temps if property_temps is None else np.asarray(property_temps, dtype=np.float64)
        if prop.shape != (self.n_nodes,):
            raise ValueError(
                f"property temperature vector must be ({self.n_nodes},), got {prop.shape}"
            )

        rebuild = None  # displacements the pullback geometry must be rebuilt from
        if self.variant.uses_deformation:
            if deformation is None:
                disp = np.zeros((self.n_nodes, 3))
            else:
                disp = deformation.displacements
                if disp.shape[0] != self.n_nodes:
                    raise ValueError(
                        f"deformation has {disp.shape[0]} nodes, mesh has {self.n_nodes}"
                    )
            if self._memo_disp is None or not np.array_equal(disp, self._memo_disp):
                self._memo_disp = None  # stays unset if the geometry stage raises
                rebuild = disp

        out = np.zeros(self.n_nodes)
        for block in self._blocks:
            loads = self._block_loads(block, temps, prop, rebuild)
            out += np.bincount(
                block.conn.ravel(), weights=loads.ravel(), minlength=self.n_nodes
            )
        if rebuild is not None:
            self._memo_disp = rebuild.copy()
        return out

    # -- internals ----------------------------------------------------------

    def _block_loads(self, block: _Block, temps, prop, rebuild):
        """(n, k) loads of one block. rebuild, the (n_nodes, 3)
        displacements, is given only when the pullback's geometry memo must
        be rebuilt."""
        if self.variant.full_precompute:
            return np.einsum("eab,eb->ea", block.stiffness, temps[block.conn])
        # a diverging field overflows here; integrator.step detects it
        with np.errstate(over="ignore", invalid="ignore"):
            if rebuild is not None:
                _pullback_geometry(block, rebuild.T)
            return _pullback_loads(self.material, block, temps, prop)


def _pullback_geometry(block: _Block, disp_t):
    """Geometry stage: F^-1 and weight * det F of every element into the memo."""
    conn, grads = block.conn_t, block.grads_t
    u, tmp = block.work[:conn.shape[0]], block.work[-1]
    f = _aligned_rows((3, 3), conn.shape[1])  # f[j, a] = F_ja = delta_ja + du_j/dX_a
    for j in range(3):
        _gather(disp_t[j], conn, u)
        for a in range(3):
            _dot(grads[a], u, f[j, a], tmp)
        f[j, j] += 1.0
    _, det = inv_det_3x3(np.moveaxis(f, 2, 0), out=np.moveaxis(block.finv, 2, 0))
    bad = ~(det > DET_FLOOR)  # NaN fails too
    if np.any(bad):
        elem = int(np.argmax(bad))
        raise SingularDeformationError(
            f"{block.kind} element {elem}: deformation gradient determinant "
            f"{det[elem]:.3e} is not above {DET_FLOOR:g}"
        )
    np.multiply(block.weights, det, out=block.wdet)


def _pullback_loads(material: MaterialModel, block: _Block, temps, prop):
    """Temperature stage: grad^T F^-1 (weight det F k) F^-T grad T per element.

    Intermediates live in the block's scratch rows and the result in its
    loads buffer; only the property lookup allocates per-element arrays.
    """
    conn, grads, finv, work = block.conn_t, block.grads_t, block.finv, block.work
    npe = conn.shape[0]
    nodal, tmean, tmp = work[:npe], work[npe], work[-1]
    grad, spatial = work[npe + 1:npe + 4], work[npe + 4:npe + 7]

    _gather(prop, conn, nodal)
    np.add.reduce(nodal, axis=0, out=tmean)
    tmean /= npe
    k = material.conductivity.evaluate(tmean)
    if prop is not temps:
        _gather(temps, conn, nodal)

    for a in range(3):
        _dot(grads[a], nodal, grad[a], tmp)           # reference gradient
    for i in range(3):
        _dot(finv[:, i], grad, spatial[i], tmp)       # F^-T grad
    flux = grad
    if material.isotropic:
        scale = np.multiply(block.wdet, k, out=tmean)
        for i in range(3):
            np.multiply(spatial[i], scale, out=flux[i])
    else:
        d = np.multiply(k.transpose(1, 2, 0), block.wdet, order="C")  # (3, 3, n)
        for i in range(3):
            _dot(d[i], spatial, flux[i], tmp)
    pulled = spatial
    for a in range(3):
        _dot(finv[a], flux, pulled[a], tmp)           # F^-1 flux
    loads = block.loads
    for c in range(npe):
        _dot(grads[:, c], pulled, loads[:, c], tmp)
    return loads


_ROW_ALIGN = 64  # bytes: one cache line


def _aligned_rows(lead: tuple, n: int, dtype=np.float64):
    """Uninitialised (*lead, n) array whose every length-n row starts on a
    cache line.

    NumPy aligns a buffer only to 16 bytes, and rows of length n inherit
    whatever offset that gives them; a row off the cache line makes every
    vector pass over it slower. With plain buffers, twelve identical
    operators on a 10 368-tet mesh took 0.65 to 1.1 ms per memoised call
    (2-vCPU Xeon, AVX2); with aligned rows they all took about 0.8 ms.
    """
    itemsize = np.dtype(dtype).itemsize
    step = _ROW_ALIGN // itemsize
    stride = -(-n // step) * step
    count = int(np.prod(lead, dtype=np.int64))
    raw = np.empty(count * stride + step, dtype=dtype)
    skip = (-raw.ctypes.data % _ROW_ALIGN) // itemsize
    return raw[skip:skip + count * stride].reshape(*lead, stride)[..., :n]


def _gather(values, conn, out):
    for node, row in zip(conn, out):
        # conn holds mesh indices, all in range; "clip" only skips the
        # buffered copy np.take makes under the default mode
        np.take(values, node, out=row, mode="clip")


def _dot(rows, vecs, out, tmp):
    """out = sum_m rows[m] * vecs[m] over (n,) component arrays."""
    np.multiply(rows[0], vecs[0], out=out)
    for r, v in zip(rows[1:], vecs[1:]):
        out += np.multiply(r, v, out=tmp)
