"""Convex-roof correlation functional and its two-qubit oracle.

E(rho_AB) is the minimum over convex decompositions into pure states of
the average sum of marginal entropies.  The minimizer runs Riemannian
gradient descent over the isometries that mix the eigendecomposition,
with Barzilai-Borwein first trial steps, a nonmonotone (Zhang-Hager)
Armijo test and the best iterate of each restart kept; a restart stops
after two consecutive iterations that barely change its cost.  Each
restart starts from its own slot of one seeded uniform draw from
Python's `random` (restart 0 just off the eigendecomposition, whose cost
bounds the result), so more restarts never raise the value and the module
never imports numpy.random.  For two qubits the Wootters concurrence gives
an independent closed-form value E = 2 E_F to validate against.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass

import numpy as np

from .errors import DimensionUnsupported, RankTooLarge, SplitMismatch
from .qstate import PAULI_Y, BipartiteState, _is_distribution, _phase_fixed_qr, _re_im, _stack_of

_RANK_TOL = 1e-12
_MAX_ITERATIONS = 2000
_MAX_HALVINGS = 40
_ARMIJO = 1e-4
_NONMONOTONE = 0.85
_BB_RANGE = (1e-10, 1e10)
_START_OFFSET = 1e-2


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Convex decomposition {p_k, |psi_k>} of a bipartite state; |psi_k> = vectors[k], one read-only array."""

    weights: np.ndarray
    vectors: np.ndarray
    dims: tuple[int, int]

    def __post_init__(self) -> None:
        d_a, d_b = int(self.dims[0]), int(self.dims[1])
        object.__setattr__(self, "dims", (d_a, d_b))
        w = np.array(self.weights, dtype=float).reshape(-1)
        if w.shape != (len(self.vectors),):
            raise ValueError("weights and vectors have different lengths")
        if not _is_distribution(w):
            raise ValueError("weights must be non-negative and sum to 1 within 1e-12")
        vecs = _stack_of(self.vectors, (d_a * d_b,), SplitMismatch, "vector")
        off = np.flatnonzero(~(np.abs(np.linalg.norm(vecs, axis=1) - 1.0) <= 1e-12))
        if off.size:
            raise ValueError(f"vector {off[0]} is not unit norm within 1e-12")
        w.setflags(write=False)
        vecs.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "vectors", vecs)

    def state(self) -> np.ndarray:
        """The mixture sum_k p_k |psi_k><psi_k| this decomposition represents."""
        return np.einsum("k,ki,kj->ij", self.weights, self.vectors, self.vectors.conj())


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
                "vectors": _re_im(dec.vectors),
            },
            "restarts_used": int(self.restarts_used),
            "converged": bool(self.converged),
        }


def _binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def decomposition_cost(d: Decomposition) -> float:
    """Average pure-state correlation sum_k p_k [S(rho_A^k) + S(rho_B^k)].

    Marginal entropies of a pure joint state coincide (shared Schmidt
    spectrum), so each term is twice the Schmidt entropy: the search
    kernel's cost of the row sqrt(p_k) |psi_k>.
    """
    rows = np.sqrt(d.weights)[:, None] * d.vectors
    return float(_rows_cost_grad(rows.reshape(-1, *d.dims))[0].sum())


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


def _rows_cost_grad(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row cost 2 p H(Schmidt) of unnormalized (..., d_a, d_b) rows and its gradient.

    With M = U diag(s) W^dag and p = |M|_F^2 the cost is
    2 (p log2 p - sum s^2 log2 s^2), and its Wirtinger gradient
    G = d cost / d conj(M) = 2 (log2 p - log2 M M^dag) M
      = 2 U diag((log2 p - log2 s^2) s) W^dag,
    so that d cost = 2 Re tr(G^dag dM).  Zero singular values contribute 0.
    """
    u, s, wh = np.linalg.svd(rows, full_matrices=False)
    sq = s * s
    p = sq.sum(axis=-1)
    log_p, log_sq = np.log2(np.maximum(p, 1e-300)), np.log2(np.maximum(sq, 1e-300))
    cost = 2.0 * (np.where(p > 0.0, p * log_p, 0.0) - np.where(sq > 0.0, sq * log_sq, 0.0).sum(axis=-1))
    scale = 2.0 * (log_p[..., None] - log_sq) * s
    return cost, np.einsum("...ij,...j,...jk->...ik", u, scale, wh)


def convex_roof(
    s: BipartiteState,
    m: int | None = None,
    restarts: int = 32,
    tol: float = 1e-6,
    seed: int | None = 0,
) -> ConvexRoofResult:
    """Minimize the decomposition cost over m-term convex decompositions.

    Decompositions are generated from the eigensystem (lam_i, |e_i>) of
    rho_AB as |psi~_k> = sum_i V_ki sqrt(lam_i) |e_i> with V ranging over
    the m x r isometries (V^dag V = 1), p_k = <psi~_k|psi~_k>.  The search
    is Riemannian gradient descent on this Stiefel manifold (Audenaert,
    Verstraete & De Moor, PRA 64, 052304 (2001); Roethlisberger, Lehmann &
    Loss, PRA 80, 042301 (2009)): the analytic gradient of the cost,
    projected onto the tangent space at V, and a QR retraction.  Each
    iteration's first trial step is the Barzilai-Borwein step of the
    ambient differences s = V_k - V_{k-1}, y = xi_k - xi_{k-1}, alternating
    <s,s>/|Re<s,y>| and |Re<s,y>|/<y,y> (clipped to [1e-10, 1e10]; the
    last accepted step when it is not finite and positive), halved until
    it passes the Armijo test against the nonmonotone Zhang-Hager reference
    C_k with eta = 0.85 (Zhang & Hager, SIAM J. Optim. 14, 1043 (2004);
    Wen & Yin, Math. Program. 142, 397 (2013)).  Restart r begins at the
    QR factor of slot r of one seeded draw, whose real and imaginary parts
    are uniform in [-1, 1) and come from Python's random.Random(seed)
    (seed None draws fresh entropy; a negative seed raises ValueError, and a
    non-integer seed, restarts or m TypeError).  Restart 0's slot is the eigendecomposition
    plus 1e-2 times its draw, because the eigendecomposition is stationary
    when the spectrum is degenerate; its best iterate starts as the
    eigendecomposition itself, so the result never exceeds its cost.
    Restart r reads only slot r, so its search is the same for any
    restarts > r, and adding restarts never raises the value.
    All restarts descend as one batch, each stopping after two consecutive
    iterations that change its cost by less than tol.  A restart that stops
    leaves the batch, so later iterations work only on the live restarts.
    Each keeps its best iterate, and the lowest best wins, lowest restart
    index breaking ties.

    The returned value is an upper bound on the convex-roof minimum;
    converged reports whether the winning restart met the stopping rule.
    """
    restarts = operator.index(restarts)  # TypeError on a non-integer such as 2.5
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if seed is not None:
        seed = operator.index(seed)  # TypeError on a non-integer such as 1.5
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
    d_a, d_b = s.dims
    lam, vecs = np.linalg.eigh(s.joint.matrix)
    keep = lam > _RANK_TOL
    lam, vecs = lam[keep], vecs[:, keep]
    rank = int(lam.size)
    if m is None:
        m = min(rank * rank, 2 * rank)
    m = operator.index(m)
    if m < rank:
        raise RankTooLarge(f"m = {m} is below rank {rank}")

    # row k of M = V basis holds the unnormalized |psi~_k> reshaped to (d_a, d_b)
    basis = (vecs * np.sqrt(lam)).T.reshape(rank, d_a, d_b)
    # restart r draws its real, then its imaginary part, each entry 2u - 1 (exact) for u = random();
    # one stacked QR orthonormalizes them all
    rng, count = random.Random(seed), restarts * 2 * m * rank
    u = np.fromiter((rng.random() for _ in range(count)), float, count)
    g = (2.0 * u - 1.0).reshape(restarts, 2, m, rank)
    start, eig = g[:, 0] + 1j * g[:, 1], np.eye(m, rank, dtype=complex)
    start[0] = eig + _START_OFFSET * start[0]
    mix, _ = np.linalg.qr(start)
    basis_h = basis.conj()

    def evaluate(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # total cost per restart and its gradient d cost / d conj(V)
        cost, grad = _rows_cost_grad(np.einsum("rki,iab->rkab", v, basis))
        return cost.sum(axis=1), np.einsum("iab,rkab->rki", basis_h, grad)

    def inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a.conj() * b).real.sum(axis=(1, 2))

    cost, grad = evaluate(mix)
    best, best_cost = mix.copy(), cost.copy()
    best[0], best_cost[0] = eig, evaluate(eig[None])[0][0]
    # the search state of the live restarts only, in index order; live maps it to restart indices
    live, v = np.arange(restarts), mix
    # Zhang-Hager reference C_k, a weighted mean of past costs, and its weight Q_k, the same for every restart
    ref, weight, step = cost.copy(), 1.0, np.ones(restarts)
    # s = 0 on the first iteration, so its step falls back to 1
    prev, prev_xi = mix, np.zeros_like(mix)
    quiet = np.zeros(restarts, dtype=int)
    for it in range(_MAX_ITERATIONS):
        vg = v.conj().transpose(0, 2, 1) @ grad
        xi = grad - v @ ((vg + vg.conj().transpose(0, 2, 1)) / 2.0)
        ds, dy = v - prev, xi - prev_xi
        with np.errstate(divide="ignore", invalid="ignore"):
            sy = np.abs(inner(ds, dy))
            bb = sy / inner(dy, dy) if it % 2 else inner(ds, ds) / sy
        clipped = np.minimum(np.maximum(bb, _BB_RANGE[0]), _BB_RANGE[1])
        t = np.where(np.isfinite(bb) & (bb > 0.0), clipped, step)
        prev, prev_xi = v, xi
        # cost falls along -xi at rate 2 |xi|^2
        decrease = _ARMIJO * 2.0 * inner(xi, xi)
        # QR retraction: V - t xi has full column rank.  Every restart tries its
        # whole step; only those that fail the Armijo test are halved.
        new_v = _phase_fixed_qr(v - t[:, None, None] * xi)
        new, new_grad = evaluate(new_v)
        fail = np.flatnonzero(~(new <= ref - t * decrease))
        for _ in range(_MAX_HALVINGS - 1):
            if fail.size == 0:
                break
            t[fail] /= 2.0
            cand = _phase_fixed_qr(v[fail] - t[fail, None, None] * xi[fail])
            cand_cost, cand_grad = evaluate(cand)
            ok = cand_cost <= ref[fail] - t[fail] * decrease[fail]
            done = fail[ok]
            new_v[done], new[done], new_grad[done] = cand[ok], cand_cost[ok], cand_grad[ok]
            fail = fail[~ok]
        else:
            # a restart that never passed keeps its iterate and its step
            new_v[fail], new[fail], new_grad[fail], t[fail] = v[fail], cost[fail], grad[fail], step[fail]
        better = new < best_cost[live]
        best[live[better]], best_cost[live[better]] = new_v[better], new[better]
        weight_next = _NONMONOTONE * weight + 1.0
        ref = (_NONMONOTONE * weight * ref + new) / weight_next
        quiet[live] = still = np.where(np.abs(cost - new) < tol, quiet[live] + 1, 0)
        v, cost, grad, step, weight = new_v, new, new_grad, t, weight_next
        going = still < 2
        if not going.all():
            # restarts that met the stopping rule leave the batch
            if not going.any():
                break
            live, v, cost, grad, step, ref, prev, prev_xi = (
                a[going] for a in (live, v, cost, grad, step, ref, prev, prev_xi)
            )

    winner = int(np.argmin(best_cost))
    converged = bool(quiet[winner] >= 2)

    flat = np.einsum("ki,iab->kab", best[winner], basis).reshape(m, d_a * d_b)
    weights = np.sum(np.abs(flat) ** 2, axis=1)
    nonzero = weights > 1e-12
    flat, weights = flat[nonzero], weights[nonzero]
    dec = Decomposition(weights / weights.sum(), flat / np.sqrt(weights)[:, None], s.dims)
    return ConvexRoofResult(decomposition_cost(dec), dec, restarts, converged)
