"""Channel capacities of noiseless qubit/qudit channels.

Holevo quantity and its maximization over input priors, the closed-form
normal and dense-coding capacities in both directions, and the quantum
mutual information that equals their difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encodings import EncodingEnsemble, lift_ensemble, weyl_set
from .errors import DimensionMismatch, NoStates
from .qstate import BipartiteState, DensityMatrix, _spectrum_entropy, von_neumann_entropy

RELATIVE_ENTROPY_CAP = 50.0
_SUPPORT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class CapacityReport:
    """Result of a prior optimization.

    chi_trace records the objective after each fixed-point evaluation;
    the sequence is non-decreasing for this concave objective.
    """

    chi: float
    optimal_prior: np.ndarray
    average_state: DensityMatrix
    iterations: int
    converged: bool
    chi_trace: tuple[float, ...]

    def to_json(self) -> dict:
        return {
            "chi": float(self.chi),
            "prior": [float(p) for p in self.optimal_prior],
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
        }


def average_state(e: EncodingEnsemble, rho: DensityMatrix) -> DensityMatrix:
    """Prior-weighted average sum_a pi_a U_a rho U_a^dag."""
    if e.dim != rho.dim:
        raise DimensionMismatch(f"ensemble dim {e.dim} != state dim {rho.dim}")
    stack = np.stack(e.unitaries)
    avg = np.einsum("a,aij,jk,alk->il", e.prior, stack, rho.matrix, stack.conj(), optimize=True)
    return DensityMatrix(avg)


def holevo_chi(e: EncodingEnsemble, rho: DensityMatrix) -> float:
    """Holevo quantity S(avg) - sum_a pi_a S(U_a rho U_a^dag) in bits.

    For a noiseless channel the unitaries preserve entropy, so this
    equals S(avg) - S(rho); the weighted sum is evaluated anyway.
    """
    if e.dim != rho.dim:
        raise DimensionMismatch(f"ensemble dim {e.dim} != state dim {rho.dim}")
    avg = average_state(e, rho)
    signal_entropy = 0.0
    for pi_a, u in zip(e.prior, e.unitaries):
        signal_entropy += pi_a * von_neumann_entropy(u @ rho.matrix @ u.conj().T)
    chi = von_neumann_entropy(avg) - signal_entropy
    return max(chi, 0.0)


def _divergences(
    flat_t: np.ndarray, entropies: np.ndarray, sigma: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """D(rho_a || sigma) in bits for every a, from one eigh of sigma.

    flat_t holds each rho_a transposed and flattened, so that row a of
    flat_t times L.ravel() is Tr rho_a L; entropies holds S(rho_a).  With
    log2 sigma built on supp sigma, D_a = -S(rho_a) - Tr rho_a log2 sigma.
    A state with more than 1e-9 of its weight outside supp sigma has
    infinite divergence, capped at 50 bits as a numerical guard.
    Returns the divergences and sigma's ascending eigenvalues.
    """
    mu, vecs = np.linalg.eigh(sigma)
    support = mu > _SUPPORT_TOL
    kept = vecs[:, support]
    # einsum, not matmul: BLAS work buffers would raise peak memory
    log_sigma = np.einsum("ik,k,jk->ij", kept, np.log2(mu[support]), kept.conj())
    div = -entropies - np.real(np.einsum("ak,k->a", flat_t, log_sigma.ravel()))
    if not support.all():
        null = vecs[:, ~support]
        projector = np.einsum("ik,jk->ij", null, null.conj())
        outside = np.real(np.einsum("ak,k->a", flat_t, projector.ravel()))
        div[outside > 1e-9] = RELATIVE_ENTROPY_CAP
    return np.minimum(div, RELATIVE_ENTROPY_CAP), mu


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Quantum relative entropy D(rho || sigma) in bits.

    Infinite when supp(rho) is not contained in supp(sigma); capped at
    50 bits as a numerical guard (unreachable from a strictly positive
    prior).
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"dim {rho.dim} != dim {sigma.dim}")
    flat_t = rho.matrix.T.reshape(1, -1)
    div, _ = _divergences(flat_t, np.array([von_neumann_entropy(rho)]), sigma.matrix)
    return float(div[0])


def optimize_prior(
    states: list[DensityMatrix], tol: float = 1e-9, max_iter: int = 100_000
) -> CapacityReport:
    """Maximize chi(pi) = S(sum pi_a rho_a) - sum pi_a S(rho_a) over priors.

    Quantum Blahut-Arimoto step pi'_a ~ pi_a 2^{D(rho_a || avg)} starting
    from the uniform prior.  The entropies S(rho_a) are computed once;
    each iteration then takes one eigendecomposition of the average
    state, which gives log2 avg, every divergence and S(avg).  Stops
    when the capacity gap max_a D(rho_a || avg) - chi drops below tol,
    which certifies chi within tol of the optimum; states leaving the
    optimal support have D below chi and do not block termination.
    Non-convergence within max_iter is reported via converged=False,
    never an exception.
    """
    if not states:
        raise NoStates("optimize_prior needs at least one state")
    dim = states[0].dim
    if any(s.dim != dim for s in states):
        raise DimensionMismatch("signal states have mixed dimensions")
    n = len(states)
    mats = np.stack([s.matrix for s in states])
    flat_t = mats.transpose(0, 2, 1).reshape(n, -1)
    entropies = np.array([von_neumann_entropy(s) for s in states])

    pi = np.full(n, 1.0 / n)
    trace: list[float] = []
    converged = False
    iterations = 0
    chi = 0.0
    avg = np.einsum("a,aij->ij", pi, mats)
    for it in range(1, max_iter + 1):
        iterations = it
        divergences, mu = _divergences(flat_t, entropies, avg)
        chi = max(_spectrum_entropy(np.clip(mu, 0.0, 1.0)) - float(pi @ entropies), 0.0)
        trace.append(chi)
        gap = float(divergences.max()) - chi
        if gap < tol:
            converged = True
            break
        if it == max_iter:
            break
        weights = pi * np.exp2(divergences - divergences.max())
        pi = weights / weights.sum()
        avg = np.einsum("a,aij->ij", pi, mats)
    return CapacityReport(chi, pi, DensityMatrix(avg), iterations, converged, tuple(trace))


def normal_capacity(rho: DensityMatrix) -> float:
    """Capacity log2 d - S(rho) of the noiseless channel without dense coding."""
    return math.log2(rho.dim) - von_neumann_entropy(rho)


def dense_capacity(s: BipartiteState, direction: str = "a2b") -> float:
    """Dense-coding capacity of a noiseless channel over a shared pair.

    a2b: log2 d_A + S(rho_B) - S(rho_AB); b2a swaps the roles.  The two
    directions differ by log2 d_A - log2 d_B + S(rho_B) - S(rho_A).
    """
    direction = direction.lower()
    if direction == "a2b":
        return math.log2(s.dim_a) + von_neumann_entropy(s.reduced_b) - von_neumann_entropy(s.joint)
    if direction == "b2a":
        return math.log2(s.dim_b) + von_neumann_entropy(s.reduced_a) - von_neumann_entropy(s.joint)
    raise ValueError(f"direction must be 'a2b' or 'b2a', got {direction!r}")


def dense_capacity_via_ensemble(
    s: BipartiteState, direction: str = "a2b", tol: float = 1e-9, max_iter: int = 100_000
) -> CapacityReport:
    """Cross-check route for dense_capacity.

    Builds the d^2 shift/clock signal states on the sender's side and
    runs the prior optimizer on them; the resulting chi reproduces the
    closed form.
    """
    direction = direction.lower()
    if direction == "a2b":
        lifted = lift_ensemble(weyl_set(s.dim_a), s.dim_b, side="a")
    elif direction == "b2a":
        lifted = lift_ensemble(weyl_set(s.dim_b), s.dim_a, side="b")
    else:
        raise ValueError(f"direction must be 'a2b' or 'b2a', got {direction!r}")
    signals = [DensityMatrix(u @ s.joint.matrix @ u.conj().T) for u in lifted.unitaries]
    return optimize_prior(signals, tol=tol, max_iter=max_iter)


def mutual_information(s: BipartiteState) -> float:
    """Quantum mutual information S(rho_A) + S(rho_B) - S(rho_AB) in bits."""
    mi = (
        von_neumann_entropy(s.reduced_a)
        + von_neumann_entropy(s.reduced_b)
        - von_neumann_entropy(s.joint)
    )
    return max(mi, 0.0)
