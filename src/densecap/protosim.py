"""Monte-Carlo simulation of the dense-coding protocols.

Quantum protocol: a message unitary acts on subsystem A of a shared
pair, the pair is decoded either by a joint Bell measurement or by a
projective measurement on the transmitted particle alone.  Classical
analogue: a shared correlated bit pair with the message XORed onto the
transmitted bit and optionally undone with the receiver's key bit.

Randomness comes from the counter-based Philox generator keyed by the
caller's seed; trial t reads the stream's 64-bit words 2t and 2t + 1 as
the uniform variates (w >> 11) * 2**-53, so any partition of the trial
range -- the fixed blocks drawn here, or parallel executions --
reproduces the sequential count table exactly, and memory does not grow
with trials.  The sampler is an exact guide-table inverse CDF (Chen &
Asau 1974): the top bits of a word give its index unless a threshold
splits their bucket.
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


# trials per Philox draw, so memory per run is one block: 256 KB of words and
# two 128 KB index buffers, under 1 MB and inside a 2 MB per-core L2
_BLOCK_TRIALS = 16_384


def _guide_table(cum: np.ndarray, b: int) -> np.ndarray:
    """Index #{t in cum[:-1] : t <= u} shared by all u in [h/2^b, (h+1)/2^b) (lo = hi), else -1."""
    edges = np.arange((1 << b) + 1) * 2.0**-b
    lo = np.searchsorted(cum[:-1], edges[:-1], side="right")
    hi = np.searchsorted(cum[:-1], edges[1:], side="left")
    return np.where(lo == hi, lo, -1)


def _count_at_or_below(thresholds: np.ndarray, words: np.ndarray) -> np.ndarray:
    """#{t <= u} for u = (w >> 11) * 2**-53; thresholds sorted and shared, or a row per word."""
    u = (words >> 11) * 2.0**-53
    if thresholds.ndim == 1:
        return np.searchsorted(thresholds, u, side="right")
    return np.sum(u[:, None] >= thresholds, axis=1)


def _sample_counts(
    cum0: np.ndarray, cum_rows: np.ndarray, cell_of: np.ndarray, trials: int, seed: int
) -> np.ndarray:
    """Per-cell counts of `trials` two-stage inverse-CDF draws from one Philox stream.

    Trial t reads words 2t, 2t + 1 as u0, u1: row i = #{cum0[:-1] <= u0} of
    cum_rows, cell cell_of[i, #{cum_rows[i, :-1] <= u1}].  Cumulative arrays
    end in 1.0; trials in a bucket a threshold splits take the compare-count.
    """
    # 2**b buckets, of which n - 1 thresholds split at most (n - 1) / 2**b <= 1/128,
    # unless a level's table would pass 2**18 entries
    n0, n1 = cum_rows.shape
    b0 = max(1, min((128 * (n0 - 1)).bit_length(), 18))
    b1 = max(1, min((128 * (n1 - 1)).bit_length(), 18 - (n0 - 1).bit_length()))
    g0 = _guide_table(cum0, b0)
    g0 = np.where(g0 < 0, -1, g0 << b1)  # row i as the high bits of i << b1 | h1
    idx1 = np.stack([_guide_table(row, b1) for row in cum_rows])
    i = np.arange(n0)[:, None]
    tab1 = np.where(idx1 < 0, -1 - i, cell_of[i, idx1]).ravel()  # -1 - i: bucket h1 is split
    split0, split1 = bool(np.any(g0 < 0)), bool(np.any(tab1 < 0))
    counts = np.zeros(int(cell_of.max()) + 1, dtype=np.int64)
    bitgen = np.random.Philox(key=seed)
    s0, s1, block = np.uint64(64 - b0), np.uint64(64 - b1), min(_BLOCK_TRIALS, trials)
    h, keys = np.empty(block, dtype=np.uint64), np.empty(block, dtype=np.int64)  # reused per block
    for start in range(0, trials, block):
        n = min(block, trials - start)
        w = bitgen.random_raw(2 * n)
        hn, idx = h[:n], keys[:n]
        np.take(g0, np.right_shift(w[0::2], s0, out=hn).view(np.int64), out=idx)
        if split0:
            split = np.flatnonzero(idx < 0)
            idx[split] = _count_at_or_below(cum0[:-1], w[2 * split]) << b1
        idx |= np.right_shift(w[1::2], s1, out=hn).view(np.int64)
        idx = np.take(tab1, idx)
        if split1:
            split = np.flatnonzero(idx < 0)
            rows = -1 - idx[split]
            idx[split] = cell_of[rows, _count_at_or_below(cum_rows[rows, :-1], w[2 * split + 1])]
        counts += np.bincount(idx, minlength=counts.size)
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
    cells = np.arange(n_msg * n_out).reshape(n_msg, n_out)
    counts = _sample_counts(cum_prior, cum_rows, cells, trials, seed).reshape(n_msg, n_out)
    return ProtocolTrace(trials, counts, empirical_mutual_information(counts), seed)


def run_classical_dense(
    s: ClassicalJointState, use_key: bool, trials: int, seed: int
) -> ProtocolTrace:
    """Simulate the classical keyed-bit protocol.

    Per trial: sample the shared pair (j_A, j_B), draw a uniform message
    bit k, transmit j_A xor k; the receiver outputs the received bit
    xored with their key bit j_B when use_key, else the raw received bit.
    The message bit is 1 when the trial's second uniform variate is at
    least one half.
    """
    if trials < 1:
        raise InvalidTrials(f"trials must be >= 1, got {trials}")
    cum = np.cumsum(s.probabilities.reshape(-1))
    cum[-1] = 1.0
    # rows are the joint values j = 2 j_A + j_B, columns the message bit k
    j, k = np.arange(4)[:, None], np.arange(2)
    decoded = (j >> 1) ^ k ^ (j & 1) if use_key else (j >> 1) ^ k
    counts = _sample_counts(cum, np.tile([0.5, 1.0], (4, 1)), 2 * k + decoded, trials, seed)
    counts = counts.reshape(2, 2)
    return ProtocolTrace(trials, counts, empirical_mutual_information(counts), seed)
