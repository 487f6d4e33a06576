"""Monte-Carlo simulation of the dense-coding protocols.

Quantum protocol: a message unitary acts on subsystem A of a shared
pair, the pair is decoded either by a joint Bell measurement or by a
projective measurement on the transmitted particle alone.  Classical
analogue: a shared correlated bit pair with the message XORed onto the
transmitted bit and optionally undone with the receiver's key bit.

Randomness comes from the counter-based Philox generator keyed by the
caller's seed; trial t consumes the two uniform variates at positions
(2t, 2t + 1) of the stream, so any partition of the trial range -- the
fixed blocks drawn here, or parallel executions -- reproduces the
sequential count table exactly, and memory does not grow with trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encodings import EncodingEnsemble
from .errors import DimensionMismatch, InvalidState, InvalidTrials
from .qstate import _BELL_VECTORS, BipartiteState


@dataclass(frozen=True, eq=False)
class ProtocolTrace:
    """Count table and plug-in mutual information of a simulated protocol."""

    trials: int
    joint_counts: np.ndarray
    empirical_mi: float
    seed: int

    def __post_init__(self) -> None:
        counts = np.asarray(self.joint_counts, dtype=np.int64)
        if counts.ndim != 2:
            raise ValueError("joint_counts must be a 2-D table")
        if int(counts.sum()) != self.trials:
            raise ValueError("count table does not sum to the number of trials")
        counts.setflags(write=False)
        object.__setattr__(self, "joint_counts", counts)

    def to_json(self) -> dict:
        return {
            "trials": int(self.trials),
            "counts": self.joint_counts.tolist(),
            "empirical_mi": float(self.empirical_mi),
            "seed": int(self.seed),
        }


@dataclass(frozen=True, eq=False)
class ClassicalJointState:
    """Joint distribution p(ij) of two shared classical bits."""

    probabilities: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probabilities, dtype=float)
        if p.shape != (2, 2):
            raise InvalidState(f"expected a 2x2 table, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise InvalidState("probabilities must be finite")
        if np.any(p < 0.0) or abs(p.sum() - 1.0) > 1e-12:
            raise InvalidState("probabilities must be non-negative and sum to 1")
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)

    @classmethod
    def maximally_correlated(cls) -> "ClassicalJointState":
        return cls(np.array([[0.5, 0.0], [0.0, 0.5]]))

    @classmethod
    def uncorrelated_uniform(cls) -> "ClassicalJointState":
        return cls(np.full((2, 2), 0.25))


@dataclass(frozen=True)
class BellDecoder:
    """Projective measurement onto the four Bell states.

    Outcome b is the Bell state reached from (|00> + |11>)/sqrt2 by the
    b-th canonical message unitary on qubit A, so the count table of the
    standard dense-coding protocol is diagonal.
    """


@dataclass(frozen=True)
class SingleParticleDecoder:
    """Projective measurement on the transmitted particle only.

    The receiver traces out his own subsystem and measures subsystem A
    in the given basis; x and y are qubit-only, z is the computational
    basis in any dimension.
    """

    basis: str = "z"


# trials per Philox draw; memory per run is bounded by one block
_BLOCK_TRIALS = 65_536


def _uniform_blocks(seed: int, trials: int):
    """Yield (n, 2) uniforms for consecutive trial blocks of one Philox stream."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    for start in range(0, trials, _BLOCK_TRIALS):
        yield gen.random((min(_BLOCK_TRIALS, trials - start), 2))


def _inverse_cdf(thresholds, u: np.ndarray) -> np.ndarray:
    """Count the cumulative thresholds at or below each u, one column at a time.

    Passing every cumulative entry but the last (forced to 1.0 > u) gives
    searchsorted(cum, u, side="right") without clipping.
    """
    idx = np.zeros(u.shape, dtype=np.int64)
    for t in thresholds:
        idx += u >= t
    return idx


def empirical_mutual_information(counts: np.ndarray) -> float:
    """Plug-in mutual-information estimate in bits from a joint count table."""
    c = np.asarray(counts, dtype=float)
    total = c.sum()
    if total <= 0:
        return 0.0
    p = c / total
    independent = np.outer(p.sum(axis=1), p.sum(axis=0))
    mask = p > 0.0
    mi = float(np.sum(p[mask] * (np.log2(p[mask]) - np.log2(independent[mask]))))
    return max(mi, 0.0)


def _single_particle_basis(decoder: SingleParticleDecoder, dim: int) -> np.ndarray:
    name = decoder.basis.lower()
    if name == "z":
        return np.eye(dim, dtype=complex)
    if dim != 2:
        raise DimensionMismatch(f"basis {name!r} applies to qubits, sender dim is {dim}")
    s = 1.0 / math.sqrt(2.0)
    if name == "x":
        return np.array([[s, s], [s, -s]], dtype=complex)
    if name == "y":
        return np.array([[s, s], [1j * s, -1j * s]], dtype=complex)
    raise ValueError(f"unknown measurement basis {decoder.basis!r}")


def _outcome_distributions(
    s: BipartiteState, e: EncodingEnsemble, decoder: BellDecoder | SingleParticleDecoder
) -> np.ndarray:
    """Born-rule outcome probabilities q[a, b] for each message a."""
    d_a, d_b = s.dims
    eye_b = np.eye(d_b, dtype=complex)
    signals = [
        np.kron(u, eye_b) @ s.joint.matrix @ np.kron(u, eye_b).conj().T for u in e.unitaries
    ]
    if isinstance(decoder, BellDecoder):
        if s.dims != (2, 2):
            raise DimensionMismatch(f"Bell decoder needs a 2x2 split, got {s.dims}")
        basis = np.stack(
            [_BELL_VECTORS["psi+"], _BELL_VECTORS["phi+"], _BELL_VECTORS["phi-"], _BELL_VECTORS["psi-"]]
        )
        q = np.stack([np.real(np.einsum("bi,ij,bj->b", basis.conj(), sig, basis)) for sig in signals])
    elif isinstance(decoder, SingleParticleDecoder):
        basis = _single_particle_basis(decoder, d_a)
        q = np.empty((len(signals), d_a))
        for a, sig in enumerate(signals):
            reduced = np.einsum("ijkj->ik", sig.reshape(d_a, d_b, d_a, d_b))
            q[a] = np.real(np.einsum("ib,ij,jb->b", basis.conj(), reduced, basis))
    else:
        raise TypeError(f"unknown decoder {decoder!r}")
    q = np.clip(q, 0.0, None)
    return q / q.sum(axis=1, keepdims=True)


def run_quantum_dense(
    s: BipartiteState,
    e: EncodingEnsemble,
    decoder: BellDecoder | SingleParticleDecoder,
    trials: int,
    seed: int,
) -> ProtocolTrace:
    """Simulate the quantum protocol and estimate the mutual information.

    Each trial draws a message from the ensemble prior, applies the
    message unitary to subsystem A, and samples the decoder's projective
    outcome from the Born probabilities.
    """
    if trials < 1:
        raise InvalidTrials(f"trials must be >= 1, got {trials}")
    if e.dim != s.dim_a:
        raise DimensionMismatch(f"ensemble dim {e.dim} does not act on sender dim {s.dim_a}")
    q = _outcome_distributions(s, e, decoder)
    n_msg, n_out = q.shape

    cum_prior = np.cumsum(e.prior)
    cum_prior[-1] = 1.0
    cum_rows = np.cumsum(q, axis=1)
    cum_rows[:, -1] = 1.0

    counts = np.zeros(n_msg * n_out, dtype=np.int64)
    for u in _uniform_blocks(seed, trials):
        messages = _inverse_cdf(cum_prior[:-1], u[:, 0])
        outcomes = _inverse_cdf((col[messages] for col in cum_rows.T[:-1]), u[:, 1])
        counts += np.bincount(messages * n_out + outcomes, minlength=counts.size)
    counts = counts.reshape(n_msg, n_out)
    return ProtocolTrace(trials, counts, empirical_mutual_information(counts), seed)


def run_classical_dense(
    s: ClassicalJointState, use_key: bool, trials: int, seed: int
) -> ProtocolTrace:
    """Simulate the classical keyed-bit protocol.

    Per trial: sample the shared pair (j_A, j_B), draw a uniform message
    bit k, transmit j_A xor k; the receiver outputs the received bit
    xored with his key bit j_B when use_key, else the raw received bit.
    The message bit is 1 when the trial's second uniform variate is at
    least one half.
    """
    if trials < 1:
        raise InvalidTrials(f"trials must be >= 1, got {trials}")
    cum = np.cumsum(s.probabilities.reshape(-1))
    cum[-1] = 1.0
    counts = np.zeros(4, dtype=np.int64)
    for u in _uniform_blocks(seed, trials):
        joint = _inverse_cdf(cum[:-1], u[:, 0])
        j_a, j_b = joint >> 1, joint & 1
        k = (u[:, 1] >= 0.5).astype(np.int64)
        received = j_a ^ k
        decoded = received ^ j_b if use_key else received
        counts += np.bincount(k * 2 + decoded, minlength=4)
    counts = counts.reshape(2, 2)
    return ProtocolTrace(trials, counts, empirical_mutual_information(counts), seed)
