"""Channel capacities of noiseless qubit/qudit channels.

Holevo quantity and its maximization over input priors, the closed-form
normal and dense-coding capacities in both directions, and the quantum
mutual information that equals their difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import encodings as enc
from .errors import DimensionMismatch, NoStates
from .qstate import (
    BipartiteState, DensityMatrix, _partial_trace_array, _spectrum_entropies, _spectrum_entropy,
    _validated_spectra, von_neumann_entropy,
)

RELATIVE_ENTROPY_CAP = 50.0
_SUPPORT_TOL = 1e-12
# optimize_prior: capacity gap (bits) below which Newton steps replace the
# BA warm-up, tuned on random Ginibre ensembles (d = 2-8, up to 31 states)
_NEWTON_GAP = 0.3
# a Newton step keeps at least this fraction of every weight, so a state it
# drops can come back; a dropped state stays on the active face (weights
# above _FACE_REL of the largest) and falls by this factor per Newton step
_CLIP_FRACTION = 1e-6
_FACE_REL = 1e-30
# halvings of a Newton step before falling back to a BA step
_MAX_HALVINGS = 20
# largest stacked intermediate of _averaged_states (from 256 KiB on, the
# chunks raised the peak RSS of `densecap verify --d 3`)
_AVERAGE_CHUNK_BYTES = 1 << 17


@dataclass(frozen=True, eq=False)
class CapacityReport:
    """Result of a prior optimization.

    iterations counts the evaluations of chi, one eigendecomposition of
    the average state each.  chi_trace holds chi at the current prior
    after each of them.  It never decreases, except that a certified last
    point may sit below its predecessor by less than tol (in practice by
    rounding).  average_state is validated on first read, from the
    average matrix at optimal_prior that an evaluation already decomposed.
    """

    chi: float
    optimal_prior: np.ndarray
    _average: np.ndarray = field(repr=False)
    iterations: int
    converged: bool
    chi_trace: tuple[float, ...]

    @cached_property
    def average_state(self) -> DensityMatrix:
        return DensityMatrix(self._average)

    def to_json(self) -> dict:
        return {
            "chi": float(self.chi),
            "prior": [float(p) for p in self.optimal_prior],
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
        }


def _averaged_states(prior: np.ndarray, unitaries: np.ndarray, joints: np.ndarray) -> np.ndarray:
    """sum_a prior_a U_a rho U_a^dag for every rho in a stack (s, D, D).

    unitaries is one ensemble (n, D, D) shared by every state, or one
    ensemble per state (s, n, D, D).  These are the three products that
    np.einsum("a,aij,jk,alk->il", prior, U, rho, U.conj(), optimize=True)
    runs for one state, in its order and on operands of its layouts, with
    the states as a batch axis.  For n < D^2 (verify's lifted ensembles)
    every average is bit-identical to that einsum's; from D^2 on numpy
    contracts the prior first, so for the twirls (n = D^2) the reference
    is average_state of each state alone.  States go
    through in chunks whose intermediates hold at most _AVERAGE_CHUNK_BYTES
    each (one state at least): a whole 256-state block would take 3 MB per
    intermediate at d = 3 and 190 MB at d = 6.
    """
    n, dim = unitaries.shape[-3:-1]
    # U as (..., j, (a i)), and conj(U) with its last two axes swapped (a view)
    by_column = np.moveaxis(unitaries, -1, -3).reshape(*unitaries.shape[:-3], dim, n * dim)
    conj_t = np.swapaxes(unitaries.conj(), -1, -2)
    chunk = max(1, _AVERAGE_CHUNK_BYTES // (16 * n * dim * dim))
    out = np.empty_like(joints)
    for start in range(0, len(joints), chunk):
        rows = slice(start, start + chunk)
        u, uc = (by_column, conj_t) if by_column.ndim == 2 else (by_column[rows], conj_t[rows])
        # jk,aij->aik
        x = (np.swapaxes(joints[rows], -1, -2) @ u).reshape(-1, dim, n, dim).transpose(0, 2, 3, 1)
        # aik,alk->ail
        x = x @ uc
        # ail,a->il
        out[rows] = (x.transpose(0, 2, 3, 1).reshape(-1, dim * dim, n) @ prior).reshape(-1, dim, dim)
    return out


def average_state(e: enc.EncodingEnsemble, rho: DensityMatrix) -> DensityMatrix:
    """Prior-weighted average sum_a pi_a U_a rho U_a^dag."""
    if e.dim != rho.dim:
        raise DimensionMismatch(f"ensemble dim {e.dim} != state dim {rho.dim}")
    return DensityMatrix(_averaged_states(e.prior, e.unitaries, rho.matrix[None])[0])


def holevo_chi(e: enc.EncodingEnsemble, rho: DensityMatrix) -> float:
    """Holevo quantity S(avg) - sum_a pi_a S(U_a rho U_a^dag) in bits.

    For a noiseless channel the unitaries (checked to 1e-12 by
    EncodingEnsemble) preserve entropy, so the sum is S(rho).
    """
    chi = von_neumann_entropy(average_state(e, rho)) - von_neumann_entropy(rho)
    return max(chi, 0.0)


def _divergences(
    flat_t: np.ndarray, entropies: np.ndarray, sigma: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D(rho_a || sigma) in bits for every a, from one eigh of sigma.

    flat_t holds each rho_a transposed and flattened, so that row a of
    flat_t times L.ravel() is Tr rho_a L; entropies holds S(rho_a).  With
    log2 sigma built on supp sigma, D_a = -S(rho_a) - Tr rho_a log2 sigma.
    A state with more than 1e-9 of its weight outside supp sigma has
    infinite divergence, capped at 50 bits as a numerical guard.
    Returns the divergences and sigma's ascending eigenvalues and
    eigenvectors.
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
    return np.minimum(div, RELATIVE_ENTROPY_CAP), mu, vecs


def _divergence_hessian(mats: np.ndarray, mu: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """H_ab = dD(rho_a || sigma)/dpi_b = -Tr[rho_a Dlog2 sigma(rho_b)] for a stack of states.

    mu, vecs is the eigendecomposition of sigma = sum pi_a rho_a that
    _divergences already computed.  In that eigenbasis the Frechet
    derivative of log2 is Gamma o (V^dag rho_b V), where Gamma holds the
    divided differences (log2 mu_i - log2 mu_j) / (mu_i - mu_j), with limit
    1 / (mu ln 2) on the diagonal and for degenerate eigenvalues.  Gamma is
    built on supp sigma only, like log2 sigma.  H is symmetric and negative
    semidefinite; it is the Hessian of chi over the simplex.
    """
    support = mu > _SUPPORT_TOL
    m = mu[support]
    kept = vecs[:, support]
    # einsum, not matmul: BLAS work buffers would raise peak memory
    rotated = np.einsum("ki,akj->aij", kept.conj(), np.einsum("akl,lj->akj", mats, kept))
    # log(hi / lo) / (hi - lo) as log1p(x) / (x lo), x = (hi - lo) / lo: no cancellation
    lo = np.minimum.outer(m, m)
    x = np.abs(np.subtract.outer(m, m)) / lo
    ratio = np.log1p(x) / np.where(x > 0.0, x, 1.0)
    gamma = np.where(x > 0.0, ratio, 1.0) / (lo * math.log(2.0))
    return -np.real(np.einsum("aij,ij,bij->ab", rotated.conj(), gamma, rotated))


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Quantum relative entropy D(rho || sigma) in bits.

    Infinite when supp(rho) is not contained in supp(sigma); capped at
    50 bits as a numerical guard (unreachable from a strictly positive
    prior).
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"dim {rho.dim} != dim {sigma.dim}")
    flat_t = rho.matrix.T.reshape(1, -1)
    div = _divergences(flat_t, np.array([von_neumann_entropy(rho)]), sigma.matrix)[0]
    return float(div[0])


def _newton_step(
    mats: np.ndarray, pi: np.ndarray, divergences: np.ndarray, gap: float,
    mu: np.ndarray, vecs: np.ndarray,
) -> np.ndarray | None:
    """Damped Newton direction for chi on the active face of the simplex.

    The face holds the weights above _FACE_REL of the largest.  On it the
    step solves the KKT system of the quadratic model of chi under
    sum delta = 0,

        [H - gap diag(1 / (pi ln 2))   1] [delta]   [-D]
        [             1^T              0] [ nu  ] = [ 0],

    with D the divergences (the gradient of chi up to a constant) and H
    the Hessian from _divergence_hessian.  diag(1 / (pi ln 2)) is the
    curvature of the Kullback-Leibler proximal term of a BA step, so the
    damping weights BA's geometry by the capacity gap: it keeps the system
    nonsingular where H is singular on the face (repeated states, or more
    states than sigma has real dimensions), and it vanishes with the gap,
    which keeps the finish quadratic.  Returns None when the system is
    singular anyway; the caller then takes a BA step.
    """
    face = pi > _FACE_REL * pi.max()
    k = int(face.sum())
    kkt = np.ones((k + 1, k + 1))
    kkt[k, k] = 0.0
    kkt[:k, :k] = _divergence_hessian(mats[face], mu, vecs) - np.diag(gap / (pi[face] * math.log(2.0)))
    try:
        solution = np.linalg.solve(kkt, np.append(-divergences[face], 0.0))
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(solution).all():
        return None
    step = np.zeros_like(pi)
    step[face] = solution[:k]
    return step


def optimize_prior(
    states: list[DensityMatrix], tol: float = 1e-9, max_iter: int = 100_000
) -> CapacityReport:
    """Maximize chi(pi) = S(sum pi_a rho_a) - sum pi_a S(rho_a) over priors.

    Starts from the uniform prior.  While the capacity gap
    max_a D(rho_a || avg) - chi is at least _NEWTON_GAP bits, it takes
    quantum Blahut-Arimoto (BA) steps pi'_a ~ pi_a 2^{D(rho_a || avg)}.
    Below that it takes damped Newton steps on the active face
    (_newton_step).  A step is halved until chi does not decrease, or
    until the trial point is certified, and each weight is clipped to at
    least _CLIP_FRACTION of its old value, which keeps the prior on the
    simplex.  Each accepted Newton point is followed by one BA step on
    every coordinate, which revives states dropped too early.  A singular
    KKT system, or a step that no halving makes ascend, gives a BA step.

    The entropies S(rho_a) are computed once.  Each evaluation of chi
    takes one eigendecomposition of the average state, which gives every
    divergence, S(avg) and the Hessian.  Stops when the gap drops below
    tol, which certifies chi within tol of the optimum; states leaving the
    optimal support have D below chi and do not block termination.
    iterations counts the evaluations of chi, at most max_iter; chi_trace
    holds chi at the current prior after each of them.  Non-convergence
    within max_iter is reported via converged=False, never an exception.
    """
    if not states:
        raise NoStates("optimize_prior needs at least one state")
    dim = states[0].dim
    if any(s.dim != dim for s in states):
        raise DimensionMismatch("signal states have mixed dimensions")
    entropies = np.array([von_neumann_entropy(s) for s in states])
    return _optimize_prior_stack(np.stack([s.matrix for s in states]), entropies, tol, max_iter)


def _optimize_prior_stack(mats: np.ndarray, entropies: np.ndarray, tol: float, max_iter: int) -> CapacityReport:
    """optimize_prior on a stack (n, d, d) of validated states with entropies S(rho_a)."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    flat_t = mats.transpose(0, 2, 1).reshape(len(mats), -1)
    trace: list[float] = []

    def evaluate(prior: np.ndarray) -> tuple:
        """chi, the divergences, the average state and its eigh at prior."""
        avg = np.einsum("a,aij->ij", prior, mats)
        divergences, mu, vecs = _divergences(flat_t, entropies, avg)
        chi = max(_spectrum_entropy(np.clip(mu, 0.0, 1.0)) - float(prior @ entropies), 0.0)
        return chi, divergences, avg, mu, vecs

    pi = np.full(len(mats), 1.0 / len(mats))
    chi, divergences, avg, mu, vecs = evaluate(pi)
    trace.append(chi)
    gap = float(divergences.max()) - chi
    while gap >= tol and len(trace) < max_iter:
        step = _newton_step(mats, pi, divergences, gap, mu, vecs) if gap < _NEWTON_GAP else None
        halvings = _MAX_HALVINGS if step is not None else 0
        for halving in range(halvings):
            trial = np.maximum(pi + 0.5**halving * step, _CLIP_FRACTION * pi)
            trial /= trial.sum()
            point = evaluate(trial)
            trial_chi, trial_divergences = point[:2]
            # a certified trial ends the run even if rounding put its chi a hair lower
            accepted = trial_chi >= chi or float(trial_divergences.max()) - trial_chi < tol
            if accepted:
                pi = trial
                chi, divergences, avg, mu, vecs = point
            trace.append(chi)
            if accepted or len(trace) >= max_iter:
                break
        gap = float(divergences.max()) - chi
        if gap < tol or len(trace) >= max_iter:
            break
        weights = pi * np.exp2(divergences - divergences.max())
        pi = weights / weights.sum()
        chi, divergences, avg, mu, vecs = evaluate(pi)
        trace.append(chi)
        gap = float(divergences.max()) - chi
    converged = gap < tol
    return CapacityReport(chi, pi, avg, len(trace), converged, tuple(trace))


def _capacity_columns(d_a: int, d_b: int, s_a, s_b, s_ab) -> dict:
    """Capacities and identity residuals from S(rho_A), S(rho_B), S(rho_AB).

    The entropies are numbers or equal-length arrays (one entry per
    state), and so is every column of the result.  The normal capacities
    take normal_capacity's operation order, so they match it bit for bit.
    """
    c_normal_a = math.log2(d_a) - s_a
    c_normal_b = math.log2(d_b) - s_b
    c_ab = math.log2(d_a) + s_b - s_ab
    c_ba = math.log2(d_b) + s_a - s_ab
    mi = s_a + s_b - s_ab
    mi = np.where(mi < 0.0, 0.0, mi)
    return {
        "c_normal_a": c_normal_a,
        "c_normal_b": c_normal_b,
        "c_dense_ab": c_ab,
        "c_dense_ba": c_ba,
        "mutual_info": mi,
        "residual_ab": np.abs((c_ab - c_normal_a) - mi),
        "residual_ba": np.abs((c_ba - c_normal_b) - mi),
        "asymmetry_residual": np.abs(
            (c_ab - c_ba) - (math.log2(d_a) - math.log2(d_b) + s_b - s_a)
        ),
    }


def _capacity_row(s: BipartiteState) -> dict:
    entropies = (von_neumann_entropy(r) for r in (s.reduced_a, s.reduced_b, s.joint))
    return {key: float(x) for key, x in _capacity_columns(s.dim_a, s.dim_b, *entropies).items()}


def _stack_columns(joints: np.ndarray, spectra: np.ndarray, dims: tuple[int, int]) -> tuple:
    """_capacity_columns of every state of a stack (s, D, D) of validated joints with these spectra.

    One batched eigvalsh per reduction stack, with every DensityMatrix
    check applied to each reduced matrix.  Returns the columns and both
    reductions.
    """
    reduced = [_partial_trace_array(joints, dims, side) for side in "AB"]
    s_a, s_b = (_spectrum_entropies(_validated_spectra(r)) for r in reduced)
    return _capacity_columns(*dims, s_a, s_b, _spectrum_entropies(spectra)), *reduced


def normal_capacity(rho: DensityMatrix) -> float:
    """Capacity log2 d - S(rho) of the noiseless channel without dense coding."""
    return math.log2(rho.dim) - von_neumann_entropy(rho)


def dense_capacity(s: BipartiteState, direction: str = "a2b") -> float:
    """Dense-coding capacity of a noiseless channel over a shared pair.

    a2b: log2 d_A + S(rho_B) - S(rho_AB); b2a swaps the roles.  The two
    directions differ by log2 d_A - log2 d_B + S(rho_B) - S(rho_A).
    """
    direction = direction.lower()
    if direction not in ("a2b", "b2a"):
        raise ValueError(f"direction must be 'a2b' or 'b2a', got {direction!r}")
    # only the receiver's reduction; _capacity_columns' operation order, so its bits
    d_send, kept = (s.dim_a, s.reduced_b) if direction == "a2b" else (s.dim_b, s.reduced_a)
    return math.log2(d_send) + von_neumann_entropy(kept) - von_neumann_entropy(s.joint)


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
        lifted = enc.lift_ensemble(enc.weyl_set(s.dim_a), s.dim_b, side="a")
    elif direction == "b2a":
        lifted = enc.lift_ensemble(enc.weyl_set(s.dim_b), s.dim_a, side="b")
    else:
        raise ValueError(f"direction must be 'a2b' or 'b2a', got {direction!r}")
    signals = lifted.unitaries @ s.joint.matrix @ lifted.unitaries.conj().transpose(0, 2, 1)
    return _optimize_prior_stack(signals, _spectrum_entropies(_validated_spectra(signals)), tol, max_iter)


def mutual_information(s: BipartiteState) -> float:
    """Quantum mutual information S(rho_A) + S(rho_B) - S(rho_AB) in bits."""
    return _capacity_row(s)["mutual_info"]
