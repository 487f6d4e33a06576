"""Monte-Carlo simulation of the dense-coding protocols.

Quantum protocol: a message unitary acts on subsystem A of a shared
pair, the pair is decoded either by a joint Bell measurement or by a
projective measurement on the transmitted particle alone.  Classical
analogue: a shared correlated bit pair with the message XORed onto the
transmitted bit and optionally undone with the receiver's key bit.

The (message, outcome) count table of `trials` independent trials is
exactly Multinomial(trials, p) over the joint law p, so it is drawn as
one multinomial from a legacy `RandomState` over the Philox generator
keyed by the caller's seed: time and memory do not depend on `trials`,
and a cell of probability 0 never enters the draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encodings import EncodingEnsemble, lift_ensemble
from .errors import DimensionMismatch, InvalidState, InvalidTrials
from .qstate import _BELL_VECTORS, BipartiteState, _is_distribution, _partial_trace_array


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
        if not _is_distribution(p):
            raise InvalidState("probabilities must be finite, non-negative and sum to 1")
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

    The receiver traces out their own subsystem and measures subsystem A
    in the given basis; x and y are qubit-only, z is the computational
    basis in any dimension.
    """

    basis: str = "z"


def _sample_counts(p: np.ndarray, trials: int, seed: int) -> np.ndarray:
    """Counts of `trials` i.i.d. draws from the cell law p, as one Multinomial(trials, p) draw.

    NEP 19 freezes RandomState's streams, so a seed gives the same counts
    on every numpy release; only the nonzero cells enter the draw.
    """
    nz = p > 0
    counts = np.zeros(p.size, dtype=np.int64)
    counts[nz] = np.random.RandomState(np.random.Philox(key=seed)).multinomial(trials, p[nz] / p[nz].sum())
    return counts


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
    if isinstance(decoder, BellDecoder):
        if s.dims != (2, 2):
            raise DimensionMismatch(f"Bell decoder needs a 2x2 split, got {s.dims}")
        basis = np.stack([_BELL_VECTORS[k] for k in ("psi+", "phi+", "phi-", "psi-")])
        lifted = lift_ensemble(e, 2).unitaries
        signals = lifted @ s.joint.matrix @ lifted.conj().swapaxes(1, 2)
        q = np.real(np.einsum("bi,aij,bj->ab", basis.conj(), signals, basis))
    elif isinstance(decoder, SingleParticleDecoder):
        basis = _single_particle_basis(decoder, s.dim_a)
        reduced = _partial_trace_array(s.joint.matrix, s.dims, "A")
        signals = e.unitaries @ reduced @ e.unitaries.conj().swapaxes(1, 2)
        q = np.real(np.einsum("ib,aij,jb->ab", basis.conj(), signals, basis))
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

    The count table is one multinomial draw over the joint law
    prior[a] * q[a, b] of (message, outcome) pairs: the message unitary
    acts on subsystem A and the decoder's projective outcome follows the
    Born probabilities.
    """
    if trials < 1:
        raise InvalidTrials(f"trials must be >= 1, got {trials}")
    if e.dim != s.dim_a:
        raise DimensionMismatch(f"ensemble dim {e.dim} does not act on sender dim {s.dim_a}")
    q = _outcome_distributions(s, e, decoder)
    p = (e.prior[:, None] * q).ravel()  # message-major cells a * n_out + b
    counts = _sample_counts(p, trials, seed).reshape(q.shape)
    return ProtocolTrace(trials, counts, empirical_mutual_information(counts), seed)


def run_classical_dense(
    s: ClassicalJointState, use_key: bool, trials: int, seed: int
) -> ProtocolTrace:
    """Simulate the classical keyed-bit protocol.

    A trial samples the shared pair (j_A, j_B) together with a uniform
    message bit k and transmits j_A xor k; the receiver outputs the
    received bit xored with their key bit j_B when use_key, else the raw
    received bit.  The counts of the (j, k) cells are one multinomial
    draw, folded into the (message, decoded) table.
    """
    if trials < 1:
        raise InvalidTrials(f"trials must be >= 1, got {trials}")
    # cells (j, k), j = 2 j_A + j_B, each of probability p_j / 2
    p = np.repeat(s.probabilities.reshape(-1) / 2, 2)
    j, k = np.arange(4)[:, None], np.arange(2)
    decoded = (j >> 1) ^ k ^ (j & 1) if use_key else (j >> 1) ^ k
    per_cell = _sample_counts(p, trials, seed).reshape(4, 2)
    counts = np.zeros((2, 2), dtype=np.int64)  # (k, decoded)
    np.add.at(counts, (k, decoded), per_cell)
    return ProtocolTrace(trials, counts, empirical_mutual_information(counts), seed)
