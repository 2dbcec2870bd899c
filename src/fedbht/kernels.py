"""Element conduction loads, matrix-free, for five formulation variants.

Every variant evaluates the action of the conduction operator on the nodal
temperature vector without assembling a global matrix. Tet4 elements
integrate exactly (constant gradients); hex8 elements use one-point reduced
integration at the element centre with weight 8 * det(J0). Either way the
element matrix has rank 3:

    K_e = w G^T D G,  G = J^-T dn^T   =>   K_e = dn A_e dn^T

with dn the family's constant (k, 3) natural-derivative table and A_e a 3x3
per element. Every call runs one skeleton per element family, on
component-major (component, element) arrays:

  gather    the k nodal values of every element into (k, n) rows, then
            rows 1..k-1 minus row 0 (differences to the element's first
            node; exactly zero on a uniform field, whatever the value);
  natural   z = dn^T x as one small matmul on those differences, whose
            table also yields the element mean as a fourth row;
  3x3       y = A_e z per element, one np.einsum over the (3, 3, n)
            factor and the (3, n) rows (each sum from +0.0 in j order);
  back      loads = dn y, one small matmul into the (k, n) rows;
  scatter   np.bincount over the node indices: the first family's result
            is the load vector itself, further families add into it.

A caller that steps with temperature-dependent density or heat capacity
also asks for the row-sum lumped thermal mass. It comes from the same
pass: each element's rho(T) c(T) w / k at the mean row of the gather of
the stepped field, written into the spent (k, n) rows before the 3x3 stage
and summed by the same scatter.

The five variants are a study of cost; they differ only in which 3x3 the
operator caches and how it applies it:

  frozen stiffness  iii (classical_aniso_temp_indep) and
                    v (classical_iso_temp_indep): conductivity is constant,
                    so the reference memo Q = J^-T is reduced at build time
                    to A_e = w Q^T D(T_ref) Q = w J^-1 D(T_ref) J^-T.
  pullback          i (deformed_aniso_temp_dep), ii (classical_aniso_temp_dep)
                    and iv (classical_iso_temp_dep): the conduction integral
                    pulled back to the reference configuration through the
                    per-element deformation gradient F. The operator
                    memoises Q = F^-T J^-T and w * det F; each call applies
                    y = Q^T (w det F k(T)) Q z with k(T) evaluated at the
                    element mean temperature (a scalar for isotropic
                    tables, a tensor D otherwise). At rest F = I, Q is
                    exactly J^-T and the pullback is the classical element.

Element loads are the positive-semidefinite form K_e @ T_e; the explicit
update subtracts them, which makes pure conduction dissipative. On a
uniform field z, and with it every load, is exactly zero.

The geometry is the precompute's J alone; no node coordinate is read.
Every variant starts from the reference memo Q = J^-T and det J, built
with the in-place adjugate inverse a rebuild uses (_inverse_transpose:
the nine cofactors, det and the division by det, on (n,) rows like the
3x3 stage). The frozen variants reduce it to A_e; ii and iv keep it,
with w * det F = w, for the whole run. Variant i also keeps J, det J, a
J + H buffer and a private copy of the last displacement field (zero at
first; a missing deformation is zero), and rebuilds the memo only when
that field changes by value: H = dn^T u per displacement component
through the same gather, J + H = F J, so Q = (J + H)^-T and
det F = det(J + H) / det J, floor-checked per element. At zero
displacement J + H is J, and a rebuild gives the reference memo bit for
bit.

A call works in the block's preallocated buffers, a geometry rebuild
included; only the property lookups allocate per element: k(T) (for a
tensor also its scaled copy) and, with the thermal mass, rho(T) and
c(T). Every (n,) row of the 3x3 stage and of the geometry starts on a
cache line, so its speed does not depend on where the allocator puts its
buffers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .deformation import DET_FLOOR, DeformationState, IdentityDeformation
from .errors import SingularDeformationError
from .material import MaterialModel
from .mesh import ElementFamily, Mesh


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
            if member.value == key:
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

    def refusal(self, deformation, material: MaterialModel) -> str | None:
        """Why this variant would drop physics a scenario states, or None.
        A deformation other than identity needs variant i, a
        temperature-dependent conductivity i, ii or iv, a tensor
        conductivity i, ii or iii."""
        name = f"{self.value} ({self.roman})"
        if not (self.uses_deformation or isinstance(deformation, IdentityDeformation)):
            return (f"{name} ignores the deformation; a deformation other than "
                    "identity needs variant i")
        if self.full_precompute and not material.conductivity.is_constant:
            return (f"{name} freezes the conductivity at the initial temperature; a "
                    "temperature-dependent conductivity needs variant i, ii or iv")
        if self.requires_isotropic and not material.isotropic:
            return (f"{name} requires isotropic conductivity; a tensor "
                    "conductivity needs variant i, ii or iii")
        return None


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
    """One ElementFamily (tet4 or hex8) with its cached 3x3 factor and the
    buffers of the kernel."""

    kind: str
    conn_t: np.ndarray     # (k, n) node indices, component-major
    forward: np.ndarray    # (4, k) table on differences to node 0: dn^T with
                           # column 0 zeroed, then the element-mean row
    dn: np.ndarray         # (k, 3) natural derivatives, the back map
    weights: np.ndarray    # (n,) integration weights (V or 8 det J0)
    factor: np.ndarray     # (3, 3, n) frozen: A_e [natural, natural];
                           # pullback: the memo Q = F^-T J^-T [spatial, natural]
    nodal: np.ndarray      # (k, n) gathered nodal values, then the element loads
    work: np.ndarray       # (8, n) scratch rows: z and the mean, the 3x3 output, tmp
    wdet: np.ndarray | None = None    # (n,) pullback only: the memo weight * det F
    jac: np.ndarray | None = None     # (3, 3, n) variant i only: J [reference, natural]
    det_j: np.ndarray | None = None   # (n,) variant i only: det J
    moved: np.ndarray | None = None   # (3, 3, n) variant i only: the rebuild's J + H


class ConductionOperator:
    """Matrix-free conduction operator for one mesh/material/variant.

    Build once per run; :meth:`apply` evaluates the global load vector
    K(T) @ T; ``mesh`` gives only the node count, ``families`` the geometry.
    Variants iii and v apply a frozen per-element 3x3 A_e; i, ii and iv run
    the pullback from a geometry memo (Q = F^-T J^-T and weight * det F)
    built at the reference configuration. Only variant i reads the
    deformation: it rebuilds the memo against a private copy of the last
    displacement field when that field changes, so calls with an unchanged
    deformation apply the memo as it is. The memo and the kernel's buffers
    belong to the operator: one operator serves one caller at a time.
    """

    def __init__(
        self,
        mesh: Mesh,
        families: tuple[ElementFamily, ...],
        material: MaterialModel,
        variant: Variant,
        reference_temperature: float = 37.0,
    ):
        if variant.requires_isotropic and not material.isotropic:
            raise ValueError(f"variant {variant.value} requires isotropic conductivity")
        self.material = material
        self.variant = variant
        self._frozen = variant.full_precompute  # read on every call
        self._deforms = variant.uses_deformation
        self.reference_temperature = float(reference_temperature)
        self.n_nodes = mesh.n_nodes

        d0 = material.conductivity_matrix(self.reference_temperature)
        self._blocks = []
        for family in families:
            n, npe = family.conn.shape
            # z = sum_a dn[a] (x_a - x_0) and mean = x_0 + sum_a (x_a - x_0) / k
            forward = np.zeros((4, npe))
            forward[:3, 1:] = family.dn[1:].T
            forward[3] = 1.0 / npe
            forward[3, 0] = 1.0
            block = _Block(
                family.kind, np.ascontiguousarray(family.conn.T), forward, family.dn,
                family.weights, _aligned_rows((3, 3), n), np.empty((npe, n)),
                _aligned_rows((8,), n),
            )
            # the reference memo Q = J^-T, as a rebuild at zero displacement makes it
            det_j = np.empty(n)
            _inverse_transpose(family.jac.transpose(1, 2, 0), block.factor, det_j, block.work[7])
            if variant.full_precompute:
                q = np.transpose(block.factor, (2, 0, 1))  # (n, 3, 3) [element, spatial, natural]
                a = family.weights[:, None, None] * (q.transpose(0, 2, 1) @ d0 @ q)
                block.factor[...] = a.transpose(1, 2, 0)
            else:
                block.wdet = _aligned_rows((), n)
                block.wdet[...] = family.weights
                if variant.uses_deformation:
                    block.jac = _aligned_rows((3, 3), n)
                    block.jac[...] = family.jac.transpose(1, 2, 0)
                    block.det_j = det_j
                    block.moved = _aligned_rows((3, 3), n)
            self._blocks.append(block)
        self._memo_disp: np.ndarray | None = np.zeros((self.n_nodes, 3))

    # -- public API ---------------------------------------------------------

    def apply(self, temps, deformation: DeformationState | None = None, property_temps=None,
              mass=None):
        """Global conduction loads K(T) @ temps.

        property_temps, when given, supplies the field at which temperature-
        dependent properties are evaluated (the stability estimator freezes
        properties at the operating state while probing with eigenvector
        iterates). Defaults to ``temps``.

        mass, when given, is an (n_nodes,) array that receives the row-sum
        lumped thermal mass of ``temps`` (never of property_temps): each
        element's rho(T) c(T) weight, with T its mean temperature from the
        same gather as the loads, shared equally among its nodes.
        """
        temps = np.asarray(temps, dtype=np.float64)
        if temps.shape != (self.n_nodes,):
            raise ValueError(f"temperature vector must be ({self.n_nodes},)")
        prop = temps if property_temps is None else np.asarray(property_temps, dtype=np.float64)
        if prop.shape != (self.n_nodes,):
            raise ValueError(
                f"property temperature vector must be ({self.n_nodes},), got {prop.shape}"
            )
        if self._frozen:
            prop = temps  # frozen properties read no field

        rebuild = None  # displacements the pullback geometry must be rebuilt from
        if self._deforms:
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

        # the first family's scatter is the sum and further families add
        # into it: a bincount sum is never -0.0, so these are the bits that
        # adding it to zeros gives
        out = lumped = None
        for block in self._blocks:
            rows, shares = self._block_loads(block, temps, prop, rebuild, mass is not None)
            loads = _scatter(block, rows, self.n_nodes)
            out = loads if out is None else np.add(out, loads, out=out)
            if shares is not None:
                lumped = shares if lumped is None else np.add(lumped, shares, out=lumped)
        if rebuild is not None:
            self._memo_disp = rebuild.copy()
        if mass is not None:
            mass[...] = lumped
        return out

    # -- internals ----------------------------------------------------------

    def _block_loads(self, block: _Block, temps, prop, rebuild, lump: bool):
        """(k, n) loads of one block: gather, z = dn^T x, the 3x3, dn y;
        returned with the block's lumped thermal mass when lump is set,
        else None. rebuild, the (n_nodes, 3) displacements, is given only
        when the pullback's geometry memo must be rebuilt."""
        work = block.work
        z, mean = work[:3], work[3]
        shares = None
        # a diverging field overflows here; integrator.step detects it
        with np.errstate(over="ignore", invalid="ignore"):
            if rebuild is not None:
                _pullback_geometry(block, rebuild.T)
            _gather_natural(block, prop, work[:4])
            if not self._frozen:
                k = self.material.conductivity.evaluate(mean)
                if prop is not temps:
                    _gather_natural(block, temps, work[:4])
            if lump:
                # mean holds the means of temps until the 3x3 stage; the
                # gathered nodal rows are spent, so they carry the shares
                rho_c = self.material.density.evaluate(mean)
                rho_c *= self.material.specific_heat.evaluate(mean)
                rho_c *= block.weights
                block.nodal[...] = np.divide(rho_c, block.nodal.shape[0], out=rho_c)
                shares = _scatter(block, block.nodal, self.n_nodes)
            if self._frozen:
                y = _mat3(block.factor, z, work[4:7])
            else:
                y = _pullback(block, k, self.material.isotropic)
            np.matmul(block.dn, y, out=block.nodal)
        return block.nodal, shares


def _gather_natural(block: _Block, values, rows):
    """Gather values at the block's nodes into block.nodal as differences to
    node 0; write the natural gradient dn^T x into rows[:3] and the element
    mean into rows[3]."""
    # conn holds mesh indices, all in range; "clip" only skips the buffered
    # copy np.take makes under the default mode
    nodal = block.nodal
    np.take(values, block.conn_t, out=nodal, mode="clip")
    nodal[1:] -= nodal[0]
    np.matmul(block.forward, nodal, out=rows)


def _scatter(block: _Block, rows, n_nodes: int):
    """Nodal sums of the block's (k, n) per-node rows, through the
    component-major connectivity."""
    return np.bincount(block.conn_t.ravel(), weights=rows.ravel(), minlength=n_nodes)


def _pullback_geometry(block: _Block, disp_t):
    """Geometry stage: the memo Q = (J + H)^-T = F^-T J^-T, with H = dn^T u
    the displacement's natural gradient, and weight * det F, where
    det F = det(J + H) / det J is floor-checked per element. A failed check
    leaves the memo overwritten; the caller then rebuilds on its next call."""
    work, moved = block.work, block.moved  # J + H, [spatial, natural]
    for j in range(3):
        _gather_natural(block, disp_t[j], work[:4])
        np.add(block.jac[j], work[:3], out=moved[j])
    det = work[3]
    _inverse_transpose(moved, block.factor, det, work[7])
    det /= block.det_j
    if not det.min() > DET_FLOOR:  # NaN fails too
        bad = ~(det > DET_FLOOR)
        elem = int(np.argmax(bad))
        raise SingularDeformationError(
            f"{block.kind} element {elem}: deformation gradient determinant "
            f"{det[elem]:.3e} is not above {DET_FLOOR:g}"
        )
    np.multiply(block.weights, det, out=block.wdet)


def _pullback(block: _Block, k, isotropic: bool):
    """The pullback's 3x3: Q^T (weight det F k) Q z, with z in the first
    work rows; returns the (3, n) rows holding the result."""
    work, q = block.work, block.factor
    z, scale, g = work[:3], work[3], work[4:7]
    _mat3(q, z, g)                                    # spatial gradient Q z
    if isotropic:
        g *= np.multiply(block.wdet, k, out=scale)
        flux, y = g, z
    else:
        d = np.multiply(k.transpose(1, 2, 0), block.wdet, order="C")  # (3, 3, n)
        flux, y = _mat3(d, g, z), g
    return _mat3(q, flux, y, transpose=True)


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


def _inverse_transpose(m, out, det, tmp):
    """out = m^-T and det = det m per element, over (3, 3, n) rows: row s
    of the cofactor matrix is m[s+1] x m[s+2], det expands along m[0], and
    the cofactors are then divided by det. No singularity check here;
    callers own the det floor so they can name the element."""
    for s in range(3):
        u, v = m[(s + 1) % 3], m[(s + 2) % 3]
        for c in range(3):
            a, b = (c + 1) % 3, (c + 2) % 3
            np.multiply(u[a], v[b], out=out[s, c])
            out[s, c] -= np.multiply(u[b], v[a], out=tmp)
    np.einsum("jn,jn->n", m[0], out[0], out=det)
    with np.errstate(divide="ignore", invalid="ignore"):
        out /= det


def _mat3(m, vecs, out, transpose=False):
    """out[i] = sum_j m[i, j] vecs[j] (m[j, i] with transpose) per element,
    over (3, 3, n) m and (3, n) rows; returns out. One einsum: each sum
    runs j = 0, 1, 2 from +0.0, so it rounds as the written three-term sum
    and can differ from it only in the sign of a zero."""
    return np.einsum("jin,jn->in" if transpose else "ijn,jn->in", m, vecs, out=out)

