"""Critical explicit time step estimation.

Forward Euler on C dT/dt = -(K + K_b) T + ... is stable for
dt < 2 / lambda_max, with lambda_max the largest eigenvalue of
C^{-1} (K + K_b). The estimate runs matrix-free power iteration on the
similarity-transformed symmetric operator C^{-1/2} (K + K_b) C^{-1/2},
whose spectrum is the same; the Rayleigh quotient then converges
monotonically from below. An estimate that stops short of lambda_max
therefore gives a dt_critical = 2 / lambda that is too large: it errs on
the unsafe side, by the relative gap left at the convergence tolerance.

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
DEFAULT_MAX_ITERATIONS = 10_000
DEFAULT_SEED = 42


@dataclass
class StabilityEstimate:
    lambda_max: float
    dt_critical: float
    iterations: int
    converged: bool

    def admits(self, dt: float) -> bool:
        """Whether a step of dt is within the critical step."""
        return dt <= self.dt_critical


def power_iteration(
    apply_op,
    n: int,
    tol: float = DEFAULT_TOL,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    seed: int = DEFAULT_SEED,
    mask=None,
) -> tuple[float, int, bool]:
    """Largest eigenvalue of a symmetric PSD operator given as a callable.

    apply_op maps a vector of length n to a vector of length n. ``mask``
    marks entries excluded from the iteration (kept at zero). Convergence
    is declared when successive Rayleigh quotients differ by less than
    ``tol`` relative; returns (lambda_max, iterations, converged).
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    if mask is not None:
        v[mask] = 0.0
    norm = np.linalg.norm(v)
    if norm == 0.0:
        return 0.0, 0, True
    v /= norm

    estimate = None
    for iteration in range(1, max_iterations + 1):
        y = apply_op(v)
        if mask is not None:
            y[mask] = 0.0
        rayleigh = float(v @ y)
        if estimate is not None and abs(rayleigh - estimate) <= tol * max(abs(rayleigh), 1e-300):
            return rayleigh, iteration, True
        estimate = rayleigh
        norm = np.linalg.norm(y)
        if norm == 0.0:
            # operator annihilated the iterate: spectrum seen so far is zero
            return 0.0, iteration, True
        v = y / norm
    return estimate if estimate is not None else 0.0, max_iterations, False


def estimate_critical_dt(
    operator: ConductionOperator,
    state: ThermalState,
    deformation: DeformationState | None = None,
    tol: float = DEFAULT_TOL,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> StabilityEstimate:
    """Power-iteration estimate of lambda_max and the critical step.

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

    lam, iterations, converged = power_iteration(
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
            f"{estimate.dt_critical:g} s; shrink dt or override explicitly"
        )
    if dt > 0.9 * estimate.dt_critical:
        log.warning(
            "dt = %g s is above 90%% of the critical step %g s",
            dt, estimate.dt_critical,
        )
