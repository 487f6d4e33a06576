import math
import random

import numpy as np
import pytest

from densecap import (
    BipartiteState,
    Decomposition,
    DimensionUnsupported,
    RankTooLarge,
    SplitMismatch,
    bell_state,
    concurrence_oracle,
    convex_roof,
    decomposition_cost,
    max_entangled_state,
    von_neumann_entropy,
    werner_state,
)
from densecap import entanglement
from densecap.entanglement import _rows_cost_grad
from densecap.qstate import _phase_fixed_qr as _retract
from densecap.sampling import random_bipartite_state, random_pure_state


def binary_entropy(p: float) -> float:
    if p <= 0 or p >= 1:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def eigendecomposition_of(s: BipartiteState) -> Decomposition:
    lam, vecs = np.linalg.eigh(s.joint.matrix)
    keep = lam > 1e-12
    lam, vecs = lam[keep], vecs[:, keep]
    return Decomposition(lam / lam.sum(), tuple(vecs[:, i] for i in range(lam.size)), s.dims)


BELL_VEC = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)


class TestDecompositionCost:
    def test_single_bell_vector(self):
        dec = Decomposition(np.array([1.0]), (BELL_VEC,), (2, 2))
        assert decomposition_cost(dec) == pytest.approx(2.0, abs=1e-12)

    def test_single_product_vector(self):
        dec = Decomposition(np.array([1.0]), (np.array([1, 0, 0, 0], dtype=complex),), (2, 2))
        assert decomposition_cost(dec) == pytest.approx(0.0, abs=1e-12)

    def test_mixture_of_computational_products(self):
        # each term is a product vector, so the average cost vanishes
        v00 = np.array([1, 0, 0, 0], dtype=complex)
        v11 = np.array([0, 0, 0, 1], dtype=complex)
        dec = Decomposition(np.array([0.5, 0.5]), (v00, v11), (2, 2))
        assert decomposition_cost(dec) == pytest.approx(0.0, abs=1e-12)

    def test_cost_equals_double_marginal_entropy(self):
        rng = np.random.default_rng(0)
        for dims in ((2, 2), (2, 3)):
            vec = random_pure_state(dims[0] * dims[1], rng)
            dec = Decomposition(np.array([1.0]), (vec,), dims)
            s = BipartiteState.from_pure(vec, dims)
            expected = von_neumann_entropy(s.reduced_a) + von_neumann_entropy(s.reduced_b)
            assert decomposition_cost(dec) == pytest.approx(expected, abs=1e-10)

    def test_split_mismatch(self):
        with pytest.raises(SplitMismatch):
            Decomposition(np.array([1.0]), (np.array([1, 0, 0, 0], dtype=complex),), (2, 3))

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            Decomposition(np.array([0.7, 0.7]), (BELL_VEC, BELL_VEC), (2, 2))
        with pytest.raises(ValueError):
            Decomposition(np.array([1.0]), (2.0 * BELL_VEC,), (2, 2))

    @pytest.mark.parametrize("weights", [[np.nan], [np.nan, 0.5], [np.inf], [np.inf, -np.inf], [0.5, np.nan]])
    def test_non_finite_weights_rejected(self, weights):
        vectors = (BELL_VEC,) * len(weights)
        with pytest.raises(ValueError):
            Decomposition(np.array(weights), vectors, (2, 2))

    def test_vectors_are_a_read_only_stack(self):
        dec = eigendecomposition_of(werner_state(0.6))
        assert isinstance(dec.vectors, np.ndarray) and dec.vectors.shape == (4, 4)
        with pytest.raises(ValueError):
            dec.vectors[0, 0] = 0.0

    def test_state_reconstruction(self):
        dec = eigendecomposition_of(werner_state(0.6))
        assert np.linalg.norm(dec.state() - werner_state(0.6).joint.matrix) < 1e-12


class TestConcurrenceOracle:
    def test_bell_state(self):
        c, ef = concurrence_oracle(bell_state())
        assert c == pytest.approx(1.0, abs=1e-10)
        assert ef == pytest.approx(1.0, abs=1e-10)

    def test_product_state(self):
        rng = np.random.default_rng(1)
        a = random_pure_state(2, rng)
        b = random_pure_state(2, rng)
        s = BipartiteState.from_pure(np.kron(a, b), (2, 2))
        c, ef = concurrence_oracle(s)
        assert c == pytest.approx(0.0, abs=1e-8)
        assert ef == pytest.approx(0.0, abs=1e-7)

    def test_werner_closed_form(self):
        # C = (3p - 1)/2 and E_F = h((1 + sqrt(1 - C^2))/2) evaluated by hand
        c, ef = concurrence_oracle(werner_state(0.8))
        assert c == pytest.approx(0.7, abs=1e-10)
        expected_ef = binary_entropy((1 + math.sqrt(1 - 0.49)) / 2)
        assert expected_ef == pytest.approx(0.59186, abs=1e-5)
        assert ef == pytest.approx(expected_ef, abs=1e-10)

    @pytest.mark.parametrize("p", [0.0, 0.2, 1 / 3])
    def test_separable_werner(self, p):
        c, ef = concurrence_oracle(werner_state(p))
        assert c == pytest.approx(0.0, abs=1e-10)
        assert ef == 0.0

    def test_rejects_other_dimensions(self):
        with pytest.raises(DimensionUnsupported):
            concurrence_oracle(max_entangled_state(3))


def _complex_gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestRowsCostGradient:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    @pytest.mark.parametrize("rank_deficient", [False, True], ids=["full", "deficient"])
    def test_matches_central_differences(self, dims, rank_deficient):
        rng = np.random.default_rng(dims[0] * 10 + dims[1] + 100 * rank_deficient)
        rank = min(dims) - 1 if rank_deficient else min(dims)
        row = _complex_gaussian(rng, dims[0], rank) @ _complex_gaussian(rng, rank, dims[1])
        row /= 1.5 * np.linalg.norm(row)
        assert np.linalg.matrix_rank(row) == rank
        cost, grad = _rows_cost_grad(row)
        schmidt = np.linalg.svd(row, compute_uv=False) ** 2
        p = schmidt.sum()
        schmidt = schmidt[schmidt > 1e-20] / p
        assert cost == pytest.approx(-2.0 * p * np.sum(schmidt * np.log2(schmidt)), abs=1e-12)
        h = 1e-6
        for _ in range(6):
            direction = _complex_gaussian(rng, *dims)
            plus, _ = _rows_cost_grad(row + h * direction)
            minus, _ = _rows_cost_grad(row - h * direction)
            # d cost = 2 Re tr(G^dag dM) for the Wirtinger gradient G = d cost / d conj(M)
            assert (plus - minus) / (2.0 * h) == pytest.approx(2.0 * np.vdot(grad, direction).real, abs=1e-7)


def test_qr_retraction():
    rng = np.random.default_rng(16)
    v = _complex_gaussian(rng, 3, 5, 2)
    q = _retract(v)
    assert np.allclose(q.conj().transpose(0, 2, 1) @ q, np.eye(2), atol=1e-12)
    r = q.conj().transpose(0, 2, 1) @ v
    assert np.allclose(np.tril(r, -1), 0.0, atol=1e-12)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    assert np.all(diag.real > 0.0) and np.allclose(diag.imag, 0.0, atol=1e-12)
    # an isometry is its own retraction, whatever sign convention the QR uses
    assert np.allclose(_retract(q), q, atol=1e-12)


def uniform_slot(rng: random.Random, m: int, rank: int) -> np.ndarray:
    """One restart's start slot: an m x rank real part, then an imaginary part, each entry 2 random() - 1."""
    re, im = (np.array([[2.0 * rng.random() - 1.0 for _ in range(rank)] for _ in range(m)]) for _ in range(2))
    return re + 1j * im


def steepest_descent_roof(s: BipartiteState, restarts: int, seed: int, tol: float = 1e-6) -> float:
    """Reference search: steepest descent with Armijo backtracking from each restart's last accepted step.

    Restart 0 starts at the eigendecomposition, restarts 1..R-1 at the same
    seeded isometries as convex_roof; each stops once an iteration lowers
    its cost by less than tol, and the lowest final cost is returned.
    """
    d_a, d_b = s.dims
    lam, vecs = np.linalg.eigh(s.joint.matrix)
    keep = lam > 1e-12
    lam, vecs = lam[keep], vecs[:, keep]
    rank = int(lam.size)
    m = min(rank * rank, 2 * rank)
    basis = (vecs * np.sqrt(lam)).T.reshape(rank, d_a, d_b)
    rng = random.Random(seed)
    mix = np.zeros((restarts, m, rank), dtype=complex)
    for r in range(restarts):
        mix[r], _ = np.linalg.qr(uniform_slot(rng, m, rank))
    mix[0] = np.eye(m, rank)

    def evaluate(v):
        cost, grad = _rows_cost_grad(np.einsum("rki,iab->rkab", v, basis))
        return cost.sum(axis=1), np.einsum("iab,rkab->rki", basis.conj(), grad)

    cost, grad = evaluate(mix)
    step = np.ones(restarts)
    active = np.arange(restarts)
    for _ in range(2000):
        v = mix[active]
        vg = v.conj().transpose(0, 2, 1) @ grad[active]
        xi = grad[active] - v @ ((vg + vg.conj().transpose(0, 2, 1)) / 2.0)
        decrease = 1e-4 * 2.0 * np.sum(np.abs(xi) ** 2, axis=(1, 2))
        old = cost[active]
        t = step[active]
        pending = np.arange(active.size)
        for _ in range(40):
            cand = _retract(v[pending] - t[pending, None, None] * xi[pending])
            cand_cost, cand_grad = evaluate(cand)
            ok = cand_cost <= old[pending] - t[pending] * decrease[pending]
            accepted = active[pending[ok]]
            mix[accepted], cost[accepted], grad[accepted] = cand[ok], cand_cost[ok], cand_grad[ok]
            step[accepted] = t[pending[ok]]
            pending = pending[~ok]
            if pending.size == 0:
                break
            t[pending] /= 2.0
        active = active[old - cost[active] >= tol]
        if active.size == 0:
            break
    return float(cost.min())


def reference_rows_cost_grad(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_rows_cost_grad as it was when it took log2 of p and of s^2 twice,
    once for the cost and once for the gradient."""
    u, s, wh = np.linalg.svd(rows, full_matrices=False)
    sq = s * s
    p = sq.sum(axis=-1)

    def log2_floor(x):
        return np.log2(np.maximum(x, 1e-300))

    def xlog2x(x):
        return np.where(x > 0.0, x * log2_floor(x), 0.0)

    cost = 2.0 * (xlog2x(p) - np.sum(xlog2x(sq), axis=-1))
    scale = 2.0 * (log2_floor(p)[..., None] - log2_floor(sq)) * s
    return cost, np.einsum("...ij,...j,...jk->...ik", u, scale, wh)


def reference_convex_roof(s, m=None, restarts=32, tol=1e-6, seed=0, kernel=reference_rows_cost_grad):
    """convex_roof as it was when its search state stayed full size.

    Each iteration gathers the running restarts' state through the index
    array `active` and scatters it back, and every trial step, the first
    included, goes through the `pending` index array.  The search
    constants are read from the module, so a test can shorten both loops
    for this copy and for convex_roof alike.  Its prologue draws and
    orthonormalizes each restart's start slot in turn, and its final
    value goes through `kernel` too.
    """
    d_a, d_b = s.dims
    lam, vecs = np.linalg.eigh(s.joint.matrix)
    keep = lam > entanglement._RANK_TOL
    lam, vecs = lam[keep], vecs[:, keep]
    rank = int(lam.size)
    if m is None:
        m = min(rank * rank, 2 * rank)
    basis = (vecs * np.sqrt(lam)).T.reshape(rank, d_a, d_b)
    n_restarts = int(restarts)
    rng = random.Random(seed)
    mix = np.zeros((n_restarts, m, rank), dtype=complex)
    eig = np.eye(m, rank, dtype=complex)
    for r in range(n_restarts):
        g = uniform_slot(rng, m, rank)
        mix[r], _ = np.linalg.qr(eig + entanglement._START_OFFSET * g if r == 0 else g)

    def evaluate(v):
        cost, grad = kernel(np.einsum("rki,iab->rkab", v, basis))
        return cost.sum(axis=1), np.einsum("iab,rkab->rki", basis.conj(), grad)

    def inner(a, b):
        return np.sum((a.conj() * b).real, axis=(1, 2))

    cost, grad = evaluate(mix)
    best, best_cost = mix.copy(), cost.copy()
    best[0], best_cost[0] = eig, evaluate(eig[None])[0][0]
    ref, weight = cost.copy(), np.ones(n_restarts)
    step = np.ones(n_restarts)
    prev, prev_xi = mix.copy(), np.zeros_like(mix)
    quiet = np.zeros(n_restarts, dtype=int)
    active = np.arange(n_restarts)
    for it in range(entanglement._MAX_ITERATIONS):
        v = mix[active]
        vg = v.conj().transpose(0, 2, 1) @ grad[active]
        xi = grad[active] - v @ ((vg + vg.conj().transpose(0, 2, 1)) / 2.0)
        ds, dy = v - prev[active], xi - prev_xi[active]
        with np.errstate(divide="ignore", invalid="ignore"):
            sy = np.abs(inner(ds, dy))
            bb = sy / inner(dy, dy) if it % 2 else inner(ds, ds) / sy
        t = np.where(np.isfinite(bb) & (bb > 0.0), np.clip(bb, *entanglement._BB_RANGE), step[active])
        prev[active], prev_xi[active] = v, xi
        decrease = entanglement._ARMIJO * 2.0 * inner(xi, xi)
        old, bound = cost[active], ref[active]
        pending = np.arange(active.size)
        for _ in range(entanglement._MAX_HALVINGS):
            cand = _retract(v[pending] - t[pending, None, None] * xi[pending])
            cand_cost, cand_grad = evaluate(cand)
            ok = cand_cost <= bound[pending] - t[pending] * decrease[pending]
            accepted = active[pending[ok]]
            mix[accepted] = cand[ok]
            cost[accepted] = cand_cost[ok]
            grad[accepted] = cand_grad[ok]
            step[accepted] = t[pending[ok]]
            pending = pending[~ok]
            if pending.size == 0:
                break
            t[pending] /= 2.0
        new = cost[active]
        better = active[new < best_cost[active]]
        best[better], best_cost[better] = mix[better], cost[better]
        weight_next = entanglement._NONMONOTONE * weight[active] + 1.0
        ref[active] = (entanglement._NONMONOTONE * weight[active] * bound + new) / weight_next
        weight[active] = weight_next
        quiet[active] = np.where(np.abs(old - new) < tol, quiet[active] + 1, 0)
        active = active[quiet[active] < 2]
        if active.size == 0:
            break

    winner = int(np.argmin(best_cost))
    converged = bool(quiet[winner] >= 2)
    flat = np.einsum("ki,iab->kab", best[winner], basis).reshape(m, d_a * d_b)
    weights = np.sum(np.abs(flat) ** 2, axis=1)
    nonzero = weights > 1e-12
    flat, weights = flat[nonzero], weights[nonzero]
    dec = Decomposition(weights / weights.sum(), flat / np.sqrt(weights)[:, None], s.dims)
    value = float(kernel((np.sqrt(dec.weights)[:, None] * dec.vectors).reshape(-1, d_a, d_b))[0].sum())
    return entanglement.ConvexRoofResult(value, dec, n_restarts, converged)


REFERENCE_STATES = {
    **{
        f"{d_a}x{d_b}-rank{rank}": random_bipartite_state(
            (d_a, d_b), np.random.default_rng(100 * d_a + 10 * d_b + rank), rank=rank
        )
        for d_a, d_b in ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4))
        for rank in range(1, min(d_a * d_b, 5) + 1)
    },
    **{f"werner-{p:.3g}": werner_state(p) for p in (0.0, 1 / 3, 0.6, 0.85, 1.0)},
}


def assert_same_result(got, want):
    assert got.value == want.value
    assert got.converged == want.converged
    assert got.restarts_used == want.restarts_used
    assert np.array_equal(got.decomposition.weights, want.decomposition.weights)
    assert np.array_equal(got.decomposition.vectors, want.decomposition.vectors)


class TestBitForBitReference:
    """convex_roof returns exactly what reference_convex_roof returns, bit for bit."""

    def test_kernel_matches_reference(self):
        rng = np.random.default_rng(31)
        rows = _complex_gaussian(rng, 5, 7, 3, 4)
        # rank-deficient and zero rows take the log2 floor
        rows[0, 1] = np.outer(rows[0, 1, :, 0], rows[0, 1, 0, :])
        rows[1, 2] = 0.0
        for got, want in zip(_rows_cost_grad(rows), reference_rows_cost_grad(rows)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("restarts", [1, 4, 9])
    @pytest.mark.parametrize("name", sorted(REFERENCE_STATES))
    def test_matches_reference(self, name, restarts):
        s = REFERENCE_STATES[name]
        for seed in range(3):
            assert_same_result(convex_roof(s, restarts=restarts, seed=seed),
                               reference_convex_roof(s, restarts=restarts, seed=seed))

    @pytest.mark.parametrize("halvings, iterations", [(1, 2000), (2, 2000), (40, 3)])
    def test_matches_reference_on_cut_loops(self, monkeypatch, halvings, iterations):
        # with few halvings some restarts keep their iterate; with few iterations none converges
        monkeypatch.setattr(entanglement, "_MAX_HALVINGS", halvings)
        monkeypatch.setattr(entanglement, "_MAX_ITERATIONS", iterations)
        for name in ("2x3-rank4", "3x3-rank5", "werner-0.85"):
            s = REFERENCE_STATES[name]
            assert_same_result(convex_roof(s, restarts=9, seed=1), reference_convex_roof(s, restarts=9, seed=1))

    @pytest.mark.parametrize("name, restarts", [("werner-0.85", 4), ("2x3-rank2", 9), ("3x3-rank5", 9)])
    def test_same_row_shapes_as_reference(self, monkeypatch, name, restarts):
        s = REFERENCE_STATES[name]
        shapes, reference_shapes = [], []

        def counted(rows):
            shapes.append(rows.shape)
            return _rows_cost_grad(rows)

        def counted_reference(rows):
            reference_shapes.append(rows.shape)
            return reference_rows_cost_grad(rows)

        monkeypatch.setattr(entanglement, "_rows_cost_grad", counted)
        convex_roof(s, restarts=restarts, seed=0)
        reference_convex_roof(s, restarts=restarts, seed=0, kernel=counted_reference)
        assert shapes == reference_shapes


class TestConvexRoof:
    def test_pure_bell_state(self):
        res = convex_roof(bell_state(), restarts=4, seed=0)
        assert res.value == pytest.approx(2.0, abs=1e-9)
        assert res.converged

    def test_separable_computational_mixture(self):
        v00 = np.array([1, 0, 0, 0], dtype=complex)
        v11 = np.array([0, 0, 0, 1], dtype=complex)
        joint = 0.5 * np.outer(v00, v00) + 0.5 * np.outer(v11, v11)
        from densecap import DensityMatrix

        s = BipartiteState(DensityMatrix(joint), (2, 2))
        res = convex_roof(s, restarts=8, seed=0)
        assert res.value < 1e-6

    def test_werner_point_eight_matches_oracle(self):
        s = werner_state(0.8)
        res = convex_roof(s, restarts=32, seed=0)
        _, ef = concurrence_oracle(s)
        assert abs(res.value - 2.0 * ef) < 5e-3
        assert 2.0 * ef == pytest.approx(1.1837, abs=5e-4)

    def test_pure_state_cost_is_double_marginal_entropy(self):
        rng = np.random.default_rng(2)
        for dims in ((2, 2), (2, 3), (3, 3)):
            vec = random_pure_state(dims[0] * dims[1], rng)
            s = BipartiteState.from_pure(vec, dims)
            res = convex_roof(s, restarts=2, seed=3)
            assert res.value == pytest.approx(2.0 * von_neumann_entropy(s.reduced_a), abs=1e-8)

    def test_never_exceeds_eigendecomposition_cost(self):
        rng = np.random.default_rng(4)
        for dims, count in (((2, 2), 5), ((2, 3), 3), ((3, 3), 3)):
            for _ in range(count):
                d = dims[0] * dims[1]
                s = random_bipartite_state(dims, rng, rank=int(rng.integers(1, d + 1)))
                baseline = decomposition_cost(eigendecomposition_of(s))
                res = convex_roof(s, restarts=4, seed=5)
                assert res.value <= baseline + 1e-9

    def test_full_rank_qutrit_pair_converges(self):
        s = random_bipartite_state((3, 3), np.random.default_rng(13))
        res = convex_roof(s, restarts=2, seed=14)
        assert res.converged
        assert res.value <= decomposition_cost(eigendecomposition_of(s)) + 1e-9
        assert np.linalg.norm(res.decomposition.state() - s.joint.matrix) < 1e-8

    def test_no_worse_than_steepest_descent(self):
        rng = np.random.default_rng(21)
        for dims in ((2, 2), (2, 2), (2, 3), (2, 3), (3, 3), (3, 3)):
            s = random_bipartite_state(dims, rng, rank=int(rng.integers(2, 5)))
            res = convex_roof(s, restarts=4, seed=22)
            assert res.converged
            assert res.value <= steepest_descent_roof(s, restarts=4, seed=22) + 1e-5

    def test_cost_evaluations_on_werner(self, monkeypatch):
        calls = []

        def counted(rows):
            calls.append(rows.shape)
            return _rows_cost_grad(rows)

        monkeypatch.setattr(entanglement, "_rows_cost_grad", counted)
        convex_roof(werner_state(0.85), restarts=4, seed=0)
        # 25 search evaluations and the final decomposition cost; steepest descent from the last accepted step took 44
        assert len(calls) == 26

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("p", [0.5, 0.9])
    def test_single_restart_leaves_stationary_eigendecomposition(self, p, seed):
        # the eigendecomposition is a stationary point of every Werner state's cost
        s = werner_state(p)
        _, ef = concurrence_oracle(s)
        res = convex_roof(s, restarts=1, seed=seed)
        assert abs(res.value - 2.0 * ef) < 5e-3
        assert res.value <= decomposition_cost(eigendecomposition_of(s)) + 1e-9

    def test_separable_random_product_mixture(self):
        rng = np.random.default_rng(6)
        vecs = [np.kron(random_pure_state(2, rng), random_pure_state(2, rng)) for _ in range(3)]
        weights = rng.dirichlet(np.ones(3))
        joint = sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vecs))
        from densecap import DensityMatrix

        s = BipartiteState(DensityMatrix(joint), (2, 2))
        res = convex_roof(s, restarts=32, seed=7)
        c, _ = concurrence_oracle(s)
        assert c == pytest.approx(0.0, abs=1e-10)
        assert res.value < 5e-3

    def test_decomposition_reconstructs_input(self):
        s = werner_state(0.55)
        res = convex_roof(s, restarts=8, seed=8)
        assert np.linalg.norm(res.decomposition.state() - s.joint.matrix) < 1e-8
        assert abs(res.decomposition.weights.sum() - 1.0) < 1e-12

    def test_rank_too_large(self):
        with pytest.raises(RankTooLarge):
            convex_roof(werner_state(0.5), m=2)

    def test_seed_determinism(self):
        s = werner_state(0.4)
        a = convex_roof(s, restarts=6, seed=9)
        b = convex_roof(s, restarts=6, seed=9)
        assert a.value == b.value
        assert all(np.array_equal(x, y) for x, y in zip(a.decomposition.vectors, b.decomposition.vectors))

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_non_positive_restarts_rejected(self, restarts):
        with pytest.raises(ValueError):
            convex_roof(werner_state(0.5), restarts=restarts)

    @pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.5, TypeError)])
    def test_seed_that_is_not_a_non_negative_integer_rejected(self, seed, error):
        with pytest.raises(error):
            convex_roof(werner_state(0.5), restarts=2, seed=seed)

    @pytest.mark.parametrize("kwargs", [{"restarts": 2.5}, {"restarts": 2.0}, {"m": 8.7}, {"m": 8.0}])
    def test_non_integer_restarts_or_m_rejected(self, kwargs):
        with pytest.raises(TypeError):
            convex_roof(werner_state(0.85), **{"restarts": 2, **kwargs})

    def test_restart_count_reported(self):
        res = convex_roof(werner_state(0.5), restarts=5, seed=10)
        assert res.restarts_used == 5

    def test_json_record(self):
        res = convex_roof(bell_state(), restarts=2, seed=11)
        record = res.to_json()
        assert set(record) == {"value", "decomposition", "restarts_used", "converged"}
        assert abs(sum(record["decomposition"]["weights"]) - 1.0) < 1e-12
        assert len(record["decomposition"]["vectors"][0]) == 4


MONOTONE_STATES = {
    **{
        f"{d_a}x{d_b}-{k}": random_bipartite_state(
            (d_a, d_b), np.random.default_rng([7, d_b, k]), rank=2 + k % (d_a * d_b - 1)
        )
        for d_a, d_b in ((2, 2), (2, 3))
        for k in range(12)
    },
    "3x3-rank5": random_bipartite_state((3, 3), np.random.default_rng([7, 3, 0]), rank=5),
}


@pytest.mark.parametrize("name", sorted(MONOTONE_STATES))
def test_value_never_rises_with_restarts(name):
    # restart r reads only its own slot of the seeded draw, so a larger batch only adds candidates
    values = [convex_roof(MONOTONE_STATES[name], restarts=r, seed=0).value for r in range(1, 5)]
    assert all(more <= fewer for fewer, more in zip(values, values[1:])), values


def test_value_is_upper_bound_on_oracle():
    rng = np.random.default_rng(11)
    for _ in range(5):
        s = random_bipartite_state((2, 2), rng, rank=int(rng.integers(1, 5)))
        res = convex_roof(s, restarts=16, seed=12)
        _, ef = concurrence_oracle(s)
        assert res.value >= 2.0 * ef - 5e-3
