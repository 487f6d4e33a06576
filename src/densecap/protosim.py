"""Monte-Carlo simulation of the dense-coding protocols.

Quantum protocol: a message unitary acts on subsystem A of a shared
pair, the pair is decoded either by a joint Bell measurement or by a
projective measurement on the transmitted particle alone.  Classical
analogue: a shared correlated bit pair with the message XORed onto the
transmitted bit and optionally undone with the receiver's key bit.

The (message, outcome) count table of `trials` independent trials is
exactly Multinomial(trials, p) over the joint law p, so it is drawn as
one multinomial: conditional binomials over the nonzero cells in cell
order, from Python's random.Random(seed), with the last nonzero cell
taking the remaining trials.  Time and memory do not depend on `trials`,
a cell of probability 0 never enters the draw, and numpy.random is never
imported.  The runners take an integer trials >= 1 and an integer seed in
0..2**128 - 1, the documented seed range, and reject anything else before
the draw.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
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


def _binomial(rng: random.Random, n: int, p: float) -> int:
    """One Binomial(n, p) variate: Devroye's geometric method below n p = 10, else Hoermann's BTRS.

    BTRS is transformed rejection with squeeze (Hoermann, J. Stat. Comput.
    Simul. 46, 101 (1993)), the algorithm of CPython 3.12's
    random.binomialvariate; p > 1/2 draws the complement.  A random() of
    exactly 0.0 never raises: the geometric method reads log(1 - u), BTRS
    rejects u = 0 (its hat is unbounded there) and accepts v = 0.
    """
    if n == 0 or p == 0.0:
        return 0
    if p == 1.0:
        return n
    if p > 0.5:
        return n - _binomial(rng, n, 1.0 - p)
    if n * p < 10.0:
        # successes are the geometric waiting times, floor(log(1 - u) / log(1 - p)) failures each, that fit in n
        c, x, y = math.log1p(-p), 0, 0
        while True:
            g = math.log(1.0 - rng.random()) / c
            if g >= n - y:
                return x
            x, y = x + 1, y + math.floor(g) + 1
    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c, vr = n * p + 0.5, 0.92 - 4.2 / b
    alpha, lpq, m = (2.83 + 5.1 / b) * spq, math.log(p / (1.0 - p)), math.floor((n + 1) * p)
    h = math.lgamma(m + 1) + math.lgamma(n - m + 1)
    while True:
        u = rng.random() - 0.5
        us = 0.5 - abs(u)
        if us == 0.0:
            continue
        k = math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        v = rng.random()
        if us >= 0.07 and v <= vr:
            return k
        v *= alpha / (a / (us * us) + b)
        if v == 0.0 or math.log(v) <= h - math.lgamma(k + 1) - math.lgamma(n - k + 1) + (k - m) * lpq:
            return k


def _sample_counts(p: np.ndarray, trials: int, seed: int) -> np.ndarray:
    """Counts of `trials` i.i.d. draws from the cell law p, as one Multinomial(trials, p) draw.

    Each nonzero cell but the last, in cell order, takes Binomial(left,
    p_i / tail_i) of the `left` trials the earlier cells did not take,
    where tail_i sums the nonzero cells from i on (accumulated from the
    end, so p_i / tail_i <= 1); the last nonzero cell takes the rest.
    The stream is random.Random(seed), which Python keeps across releases.
    """
    w = p.tolist()
    cells = [i for i, x in enumerate(w) if x > 0.0]
    tails = list(itertools.accumulate(w[i] for i in reversed(cells)))[::-1]
    rng, left, counts = random.Random(seed), trials, [0] * len(w)
    for i, tail in zip(cells[:-1], tails):
        counts[i] = k = _binomial(rng, left, w[i] / tail)
        left -= k
    counts[cells[-1]] = left
    return np.array(counts, dtype=np.int64)


def _checked_run(trials: int, seed: int) -> tuple[int, int]:
    """Trials and seed as Python ints: TypeError on a non-integer such as 2.5, else InvalidTrials or ValueError."""
    trials, seed = operator.index(trials), operator.index(seed)
    if trials < 1:
        raise InvalidTrials(f"trials must be >= 1, got {trials}")
    if not 0 <= seed < 2**128:
        raise ValueError(f"seed must be in 0..2**128 - 1, got {seed}")
    return trials, seed


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
    trials, seed = _checked_run(trials, seed)
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
    trials, seed = _checked_run(trials, seed)
    # cells (j, k), j = 2 j_A + j_B, each of probability p_j / 2
    p = np.repeat(s.probabilities.reshape(-1) / 2, 2)
    j, k = np.arange(4)[:, None], np.arange(2)
    decoded = (j >> 1) ^ k ^ (j & 1) if use_key else (j >> 1) ^ k
    per_cell = _sample_counts(p, trials, seed).reshape(4, 2)
    counts = np.zeros((2, 2), dtype=np.int64)  # (k, decoded)
    np.add.at(counts, (k, decoded), per_cell)
    return ProtocolTrace(trials, counts, empirical_mutual_information(counts), seed)
