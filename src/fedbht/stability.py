"""Critical explicit time step estimation.

Forward Euler on C dT/dt = -(K + K_b) T + ... is stable for
dt < 2 / lambda_max, with lambda_max the largest eigenvalue of
C^{-1} (K + K_b). The estimate runs matrix-free Lanczos on the
similarity-transformed symmetric operator C^{-1/2} (K + K_b) C^{-1/2},
whose spectrum is the same, from a fixed start vector, so two estimates of
one state are bitwise equal. The largest Ritz value rises monotonically
toward lambda_max from below. An estimate that stops short of lambda_max
therefore gives a dt_critical = 2 / lambda that is too large: it errs on
the unsafe side. At the stop the residual bound puts an eigenvalue within
tol * theta of theta; that eigenvalue is lambda_max unless the start
vector is nearly orthogonal to its eigenvector.

:func:`estimate_critical_dt` reads the balance from the
:class:`~fedbht.integrator.ThermalState` it judges: C is its lumped mass,
K_b its perfusion-and-film diagonal, and its Dirichlet nodes do not
participate (their rows and columns are projected out of the operator).
Temperature-dependent conductivities are frozen at the state's field T
before iterating (the operator must be linear).

:func:`guard_time_step` holds the one rule that judges a step size against
an estimate.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .deformation import DeformationState
from .errors import StabilityError
from .kernels import ConductionOperator

if TYPE_CHECKING:  # integrator imports this module
    from .integrator import ThermalState

log = logging.getLogger(__name__)

DEFAULT_TOL = 1e-6
# the bundled demo and the benchmark's hex8 blocks converge in 15 to 33
# steps, a jittered 16^3 hex8 block without boundary conditions in about
# 130; the cap bounds the O(k^3) Ritz problems of an estimate that stalls
DEFAULT_MAX_ITERATIONS = 500
# the start vector is frac((i + 1) phi) - 0.5: spread, fixed, and no generator
_GOLDEN_RATIO = (1.0 + 5.0 ** 0.5) / 2.0


@dataclass
class StabilityEstimate:
    lambda_max: float
    dt_critical: float
    iterations: int
    converged: bool

    def admits(self, dt: float) -> bool:
        """Whether a step of dt is within the critical step."""
        return dt <= self.dt_critical


def lanczos_lambda_max(
    apply_op,
    n: int,
    tol: float = DEFAULT_TOL,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    mask=None,
) -> tuple[float, int, bool]:
    """Largest eigenvalue of a symmetric PSD operator given as a callable.

    apply_op maps a vector of length n to a vector of length n. ``mask``
    marks entries excluded from the iteration (kept at zero). Plain
    three-term Lanczos from a fixed start; each step takes the largest Ritz
    value theta of the k x k tridiagonal T_k and stops once the residual
    bound beta_k |s_k| <= ``tol`` theta, with s_k the last entry of theta's
    eigenvector (Parlett, The Symmetric Eigenvalue Problem), or once
    beta_k = 0, when the Krylov space is exhausted and theta is exact.
    Returns (lambda_max, iterations, converged).

    Each step costs one apply_op and a dense eigensolve of T_k, O(k^3). An
    estimate that runs to the default cap of 500 unconverged costs about
    2.5 s on the demo or a 16^3 hex8 block (2 vCPU), 2.2 s of it in the
    Ritz problems; at 100 steps it costs 0.07 s.
    """
    v = np.modf(np.arange(1, n + 1) * _GOLDEN_RATIO)[0] - 0.5
    if mask is not None:
        v[mask] = 0.0
    norm = np.linalg.norm(v)
    if norm == 0.0:
        return 0.0, 0, True
    v /= norm

    v_prev, beta = np.zeros(n), 0.0
    alphas: list[float] = []
    betas: list[float] = []
    theta = 0.0
    for iteration in range(1, max_iterations + 1):
        w = apply_op(v)
        if mask is not None:
            w[mask] = 0.0
        alpha = float(v @ w)
        w -= alpha * v
        w -= beta * v_prev
        beta = float(np.linalg.norm(w))
        alphas.append(alpha)
        tridiagonal = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        ritz_values, ritz_vectors = np.linalg.eigh(tridiagonal)
        theta = float(ritz_values[-1])
        if beta == 0.0 or beta * abs(ritz_vectors[-1, -1]) <= tol * abs(theta):
            return theta, iteration, True
        betas.append(beta)
        v_prev, v = v, w / beta
    return theta, max_iterations, False


def estimate_critical_dt(
    operator: ConductionOperator,
    state: ThermalState,
    deformation: DeformationState | None = None,
    tol: float = DEFAULT_TOL,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> StabilityEstimate:
    """Lanczos estimate of lambda_max and the critical step.

    Reads four things from ``state``: the lumped mass C, the
    perfusion-and-film diagonal K_b, the Dirichlet mask, whose nodes are
    left out, and the field T, at which temperature-dependent properties
    are frozen. The deformation, when given, enters the conduction
    operator exactly as it does during stepping.
    """
    if np.any(state.lumped_mass <= 0.0):
        raise ValueError("lumped mass must be strictly positive")

    inv_sqrt_c = 1.0 / np.sqrt(state.lumped_mass)

    def apply_symmetrized(v: np.ndarray) -> np.ndarray:
        w = v * inv_sqrt_c
        y = operator.apply(w, deformation=deformation, property_temps=state.T)
        y += state.perfusion_diag * w
        return y * inv_sqrt_c

    lam, iterations, converged = lanczos_lambda_max(
        apply_symmetrized, operator.n_nodes,
        tol=tol, max_iterations=max_iterations, mask=state.dirichlet_mask,
    )
    lam = max(lam, 0.0)
    dt_critical = 2.0 / lam if lam > 0.0 else np.inf
    return StabilityEstimate(
        lambda_max=lam, dt_critical=dt_critical,
        iterations=iterations, converged=converged,
    )


def guard_time_step(dt: float, estimate: StabilityEstimate) -> None:
    """Refuse a step the estimate does not admit (StabilityError). Warn when
    the estimate did not converge, since it then errs on the unsafe side,
    and when dt is above 90 % of the critical step."""
    if not estimate.converged:
        log.warning(
            "stability estimate did not converge in %d iterations; "
            "the critical step %g s may be too large",
            estimate.iterations, estimate.dt_critical,
        )
    if not estimate.admits(dt):
        raise StabilityError(
            f"dt = {dt:g} s exceeds estimated critical step "
            f"{estimate.dt_critical:g} s; shrink dt or set dt_override in the scenario"
        )
    if dt > 0.9 * estimate.dt_critical:
        log.warning(
            "dt = %g s is above 90%% of the critical step %g s",
            dt, estimate.dt_critical,
        )
