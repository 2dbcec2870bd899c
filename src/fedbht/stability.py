"""Critical explicit time step estimation.

Forward Euler on C dT/dt = -(K + K_b) T + ... is stable for
dt < 2 / lambda_max, with lambda_max the largest eigenvalue of
C^{-1} (K + K_b). The estimate runs matrix-free power iteration on the
similarity-transformed symmetric operator C^{-1/2} (K + K_b) C^{-1/2},
whose spectrum is the same; the Rayleigh quotient then converges
monotonically from below. An estimate that stops short of lambda_max
therefore gives a dt_critical = 2 / lambda that is too large: it errs on
the unsafe side, by the relative gap left at the convergence tolerance.

Dirichlet nodes do not participate: their rows and columns are projected
out of the operator. Temperature-dependent conductivities are frozen at
the supplied operating field before iterating (the operator must be
linear).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .deformation import DeformationState
from .kernels import ConductionOperator

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITERATIONS = 10_000
DEFAULT_SEED = 42


@dataclass
class StabilityEstimate:
    lambda_max: float
    dt_critical: float
    iterations: int
    converged: bool


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
    lumped_mass: np.ndarray,
    perfusion_diag: np.ndarray,
    dirichlet_mask=None,
    deformation: DeformationState | None = None,
    operating_temps=None,
    tol: float = DEFAULT_TOL,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    seed: int = DEFAULT_SEED,
) -> StabilityEstimate:
    """Power-iteration estimate of lambda_max and the critical step.

    operating_temps fixes the field at which temperature-dependent
    properties are evaluated (defaults to a uniform field at the
    operator's reference temperature). The deformation, when given, enters
    the conduction operator exactly as it does during stepping.
    """
    n = operator.n_nodes
    lumped_mass = np.asarray(lumped_mass, dtype=np.float64)
    perfusion_diag = np.asarray(perfusion_diag, dtype=np.float64)
    if np.any(lumped_mass <= 0.0):
        raise ValueError("lumped mass must be strictly positive")
    if operating_temps is None:
        operating_temps = np.full(n, operator.reference_temperature)
    else:
        operating_temps = np.asarray(operating_temps, dtype=np.float64)

    inv_sqrt_c = 1.0 / np.sqrt(lumped_mass)

    def apply_symmetrized(v: np.ndarray) -> np.ndarray:
        w = v * inv_sqrt_c
        y = operator.apply(w, deformation=deformation, property_temps=operating_temps)
        y += perfusion_diag * w
        return y * inv_sqrt_c

    lam, iterations, converged = power_iteration(
        apply_symmetrized, n,
        tol=tol, max_iterations=max_iterations, seed=seed, mask=dirichlet_mask,
    )
    lam = max(lam, 0.0)
    dt_critical = 2.0 / lam if lam > 0.0 else np.inf
    return StabilityEstimate(
        lambda_max=lam, dt_critical=dt_critical,
        iterations=iterations, converged=converged,
    )


def sample_critical_dt(operator: ConductionOperator, state, provider, times):
    """Estimates of the critical step at each of ``times``.

    state is the run's ThermalState: its lumped mass, exchange diagonal,
    Dirichlet mask and temperatures (the operating field). The conduction
    operator sees the provider's deformation at each time. When the
    operator ignores deformation or the provider does not move, every time
    gives the same estimate and only the first is sampled.

    Returns (tightest, samples): the estimate with the smallest critical
    step and the list of (time, estimate) pairs, in the order sampled.
    """
    deformed = operator.variant.uses_deformation
    if not (deformed and provider.time_varying):
        times = times[:1]
    samples = []
    for t in times:
        deformation = provider.displacements_at(t, operator.mesh) if deformed else None
        est = estimate_critical_dt(
            operator, state.lumped_mass, state.perfusion_diag,
            dirichlet_mask=state.dirichlet_mask,
            deformation=deformation,
            operating_temps=state.T,
        )
        samples.append((float(t), est))
    tightest = min((est for _, est in samples), key=lambda est: est.dt_critical)
    return tightest, samples
