"""Convex-roof correlation functional and its two-qubit oracle.

E(rho_AB) is the minimum over convex decompositions into pure states of
the average sum of marginal entropies.  The minimizer searches over
column-orthonormal mixing matrices applied to the eigendecomposition;
for two qubits the Wootters concurrence gives an independent closed-form
value E = 2 E_F to validate against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionUnsupported, RankTooLarge, SplitMismatch
from .qstate import PAULI_Y, BipartiteState

_RANK_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Convex decomposition {p_k, |psi_k>} of a bipartite state."""

    weights: np.ndarray
    vectors: tuple[np.ndarray, ...]
    dims: tuple[int, int]

    def __post_init__(self) -> None:
        d_a, d_b = int(self.dims[0]), int(self.dims[1])
        object.__setattr__(self, "dims", (d_a, d_b))
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.shape != (len(self.vectors),):
            raise ValueError("weights and vectors have different lengths")
        if np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be non-negative and sum to 1 within 1e-12")
        vecs = []
        for k, v in enumerate(self.vectors):
            arr = np.asarray(v, dtype=complex).reshape(-1)
            if arr.shape != (d_a * d_b,):
                raise SplitMismatch(
                    f"vector {k} has length {arr.shape[0]}, split {self.dims} needs {d_a * d_b}"
                )
            if abs(np.linalg.norm(arr) - 1.0) > 1e-12:
                raise ValueError(f"vector {k} is not unit norm within 1e-12")
            arr.setflags(write=False)
            vecs.append(arr)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "vectors", tuple(vecs))

    def state(self) -> np.ndarray:
        """The mixture sum_k p_k |psi_k><psi_k| this decomposition represents."""
        stack = np.stack(self.vectors)
        return np.einsum("k,ki,kj->ij", self.weights, stack, stack.conj())


@dataclass(frozen=True, eq=False)
class ConvexRoofResult:
    value: float
    decomposition: Decomposition
    restarts_used: int
    converged: bool

    def to_json(self) -> dict:
        dec = self.decomposition
        return {
            "value": float(self.value),
            "decomposition": {
                "weights": [float(w) for w in dec.weights],
                "vectors": [np.stack([v.real, v.imag], axis=-1).tolist() for v in dec.vectors],
            },
            "restarts_used": int(self.restarts_used),
            "converged": bool(self.converged),
        }


def _xlog2x(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, x * np.log2(np.maximum(x, 1e-300)), 0.0)


def _binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def decomposition_cost(d: Decomposition) -> float:
    """Average pure-state correlation sum_k p_k [S(rho_A^k) + S(rho_B^k)].

    Marginal entropies of a pure joint state coincide (shared Schmidt
    spectrum), so each term is twice the Schmidt entropy.
    """
    d_a, d_b = d.dims
    stack = np.stack(d.vectors).reshape(len(d.vectors), d_a, d_b)
    schmidt_sq = np.linalg.svd(stack, compute_uv=False) ** 2
    entropies = -np.sum(_xlog2x(schmidt_sq), axis=1)
    return float(np.sum(d.weights * 2.0 * entropies))


def concurrence_oracle(s: BipartiteState) -> tuple[float, float]:
    """Closed-form two-qubit concurrence and entanglement of formation.

    C = max(0, mu1 - mu2 - mu3 - mu4) from the square-rooted eigenvalues
    of rho (sy x sy) rho* (sy x sy); E_F = h((1 + sqrt(1 - C^2)) / 2).
    """
    if s.dims != (2, 2):
        raise DimensionUnsupported(f"concurrence is defined for 2x2 splits, got {s.dims}")
    rho = s.joint.matrix
    yy = np.kron(PAULI_Y, PAULI_Y)
    flipped = yy @ rho.conj() @ yy
    evals = np.linalg.eigvals(rho @ flipped)
    mus = np.sqrt(np.clip(np.real(evals), 0.0, None))
    mus = np.sort(mus)[::-1]
    c = max(0.0, float(mus[0] - mus[1] - mus[2] - mus[3]))
    ef = _binary_entropy((1.0 + math.sqrt(max(0.0, 1.0 - c * c))) / 2.0)
    return c, ef


def _rows_cost_qubit(rows: np.ndarray) -> np.ndarray:
    """Per-row cost 2 p H(Schmidt) for unnormalized (..., 2, 2) rows, closed form."""
    frob = np.sum(np.abs(rows) ** 2, axis=(-2, -1))
    det = rows[..., 0, 0] * rows[..., 1, 1] - rows[..., 0, 1] * rows[..., 1, 0]
    disc = np.sqrt(np.maximum(frob * frob - 4.0 * np.abs(det) ** 2, 0.0))
    s1 = np.maximum((frob + disc) / 2.0, 0.0)
    s2 = np.maximum((frob - disc) / 2.0, 0.0)
    return 2.0 * (_xlog2x(frob) - _xlog2x(s1) - _xlog2x(s2))


def _rows_cost_general(rows: np.ndarray) -> np.ndarray:
    sq = np.linalg.svd(rows, compute_uv=False) ** 2
    frob = sq.sum(axis=-1)
    return 2.0 * (_xlog2x(frob) - np.sum(_xlog2x(sq), axis=-1))


def _rows_cost(rows: np.ndarray) -> np.ndarray:
    if rows.shape[-2:] == (2, 2):
        return _rows_cost_qubit(rows)
    return _rows_cost_general(rows)


def _mix_rows(a, b, theta, phi):
    """Apply the two-row rotation [[c, s e^{i phi}], [-s e^{-i phi}, c]]."""
    ct = np.cos(theta)[..., None, None]
    st_ph = (np.sin(theta) * np.exp(1j * phi))[..., None, None]
    new_a = ct * a + st_ph * b
    new_b = -st_ph.conj() * a + ct * b
    return new_a, new_b


def convex_roof(
    s: BipartiteState,
    m: int | None = None,
    restarts: int = 32,
    tol: float = 1e-6,
    seed: int = 0,
) -> ConvexRoofResult:
    """Minimize the decomposition cost over m-term convex decompositions.

    Decompositions are generated from the eigensystem (lam_i, |e_i>) of
    rho_AB as |psi~_k> = sum_i V_ki sqrt(lam_i) |e_i> with V ranging over
    m x r column-orthonormal matrices, p_k = <psi~_k|psi~_k>.  The search
    is a gradient-free coordinate descent over two-row rotations of V
    (angle and relative phase per row pair), restarted from random
    isometries; restart 0 starts at the eigendecomposition itself, so
    the result never exceeds its cost.  All restarts descend in lockstep
    and the minimum wins, lowest restart index breaking ties.

    The returned value is an upper bound on the convex-roof minimum;
    converged reports whether the winning restart's last sweep improved
    by less than tol.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    d_a, d_b = s.dims
    lam, vecs = np.linalg.eigh(s.joint.matrix)
    keep = lam > _RANK_TOL
    lam, vecs = lam[keep], vecs[:, keep]
    rank = int(lam.size)
    if m is None:
        m = min(rank * rank, 2 * rank)
    m = int(m)
    if m < rank:
        raise RankTooLarge(f"m = {m} is below rank {rank}")

    # row k of M holds the unnormalized |psi~_k> reshaped to (d_a, d_b)
    basis = (vecs * np.sqrt(lam)).T.reshape(rank, d_a, d_b)
    n_restarts = int(restarts)
    rng = np.random.default_rng(seed)
    mix = np.zeros((n_restarts, m, rank), dtype=complex)
    mix[0, :rank, :rank] = np.eye(rank)
    for r in range(1, n_restarts):
        g = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
        mix[r], _ = np.linalg.qr(g)
    rows = np.einsum("rki,iab->rkab", mix, basis)

    row_cost = _rows_cost(rows)
    pairs = [(k, l) for k in range(m) for l in range(k + 1, m)]
    coarse_theta, coarse_phi = np.meshgrid(
        np.linspace(0.0, np.pi / 2.0, 7), np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    )
    coarse = (coarse_theta.ravel(), coarse_phi.ravel())
    refine_spans = [(np.pi / 12.0, np.pi / 8.0)]
    for _ in range(2):
        refine_spans.append((refine_spans[-1][0] / 4.0, refine_spans[-1][1] / 4.0))

    max_sweeps = 60
    last_improvement = np.full(n_restarts, np.inf)
    for _ in range(max_sweeps):
        sweep_start = row_cost.sum(axis=1)
        for k, l in pairs:
            a, b = rows[:, k], rows[:, l]
            theta, phi = coarse
            cand_a, cand_b = _mix_rows(a[:, None], b[:, None], theta, phi)
            totals = _rows_cost(cand_a) + _rows_cost(cand_b)
            best = np.argmin(totals, axis=1)
            best_theta = theta[best]
            best_phi = phi[best]
            best_total = np.take_along_axis(totals, best[:, None], axis=1)[:, 0]
            for span_theta, span_phi in refine_spans:
                off_t, off_p = np.meshgrid(
                    np.linspace(-span_theta, span_theta, 5), np.linspace(-span_phi, span_phi, 5)
                )
                theta = best_theta[:, None] + off_t.ravel()
                phi = best_phi[:, None] + off_p.ravel()
                cand_a, cand_b = _mix_rows(a[:, None], b[:, None], theta, phi)
                totals = _rows_cost(cand_a) + _rows_cost(cand_b)
                best = np.argmin(totals, axis=1)
                cand_total = np.take_along_axis(totals, best[:, None], axis=1)[:, 0]
                better = cand_total < best_total
                best_theta = np.where(better, np.take_along_axis(theta, best[:, None], axis=1)[:, 0], best_theta)
                best_phi = np.where(better, np.take_along_axis(phi, best[:, None], axis=1)[:, 0], best_phi)
                best_total = np.where(better, cand_total, best_total)
            improved = best_total < row_cost[:, k] + row_cost[:, l] - 1e-14
            if np.any(improved):
                new_a, new_b = _mix_rows(a, b, best_theta, best_phi)
                rows[improved, k] = new_a[improved]
                rows[improved, l] = new_b[improved]
                row_cost[improved, k] = _rows_cost(new_a[improved])
                row_cost[improved, l] = _rows_cost(new_b[improved])
        last_improvement = sweep_start - row_cost.sum(axis=1)
        if np.all(last_improvement < tol):
            break

    totals = row_cost.sum(axis=1)
    winner = int(np.argmin(totals))
    converged = bool(last_improvement[winner] < tol)

    flat = rows[winner].reshape(m, d_a * d_b)
    weights = np.sum(np.abs(flat) ** 2, axis=1)
    nonzero = weights > 1e-12
    flat, weights = flat[nonzero], weights[nonzero]
    vectors = tuple(flat[k] / math.sqrt(weights[k]) for k in range(flat.shape[0]))
    dec = Decomposition(weights / weights.sum(), vectors, s.dims)
    return ConvexRoofResult(decomposition_cost(dec), dec, n_restarts, converged)
