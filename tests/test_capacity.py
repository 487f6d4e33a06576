import math

import numpy as np
import pytest

from densecap import (
    BipartiteState,
    DensityMatrix,
    DimensionMismatch,
    EncodingEnsemble,
    NoStates,
    OrthonormalFrame,
    antipodal_pair,
    average_state,
    bell_state,
    canonical_qubit_set,
    dense_capacity,
    dense_capacity_via_ensemble,
    from_bloch,
    holevo_chi,
    lift_ensemble,
    max_entangled_state,
    mutual_information,
    normal_capacity,
    optimize_prior,
    pure_state,
    relative_entropy,
    tensor,
    von_neumann_entropy,
    weyl_set,
    werner_state,
)
from densecap.capacity import _divergence_hessian, _divergences
from densecap.sampling import (
    random_bipartite_state,
    random_density_matrix,
    random_orthonormal_frame,
)


def binary_entropy(p: float) -> float:
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def chi_of_prior(states, prior) -> float:
    avg = sum(p * s.matrix for p, s in zip(prior, states))
    return von_neumann_entropy(DensityMatrix(avg)) - sum(
        p * von_neumann_entropy(s) for p, s in zip(prior, states)
    )


def grid_search_chi(states, step: float) -> float:
    """Exhaustive simplex scan; independent oracle for the optimizer."""
    n = len(states)
    ticks = int(round(1.0 / step))
    best = -np.inf

    def recurse(prefix, remaining):
        nonlocal best
        if len(prefix) == n - 1:
            prior = [t * step for t in prefix] + [remaining * step]
            best = max(best, chi_of_prior(states, prior))
            return
        for t in range(remaining + 1):
            recurse(prefix + [t], remaining - t)

    recurse([], ticks)
    return best


def reference_ensembles():
    """(ensemble, state) pairs: the antipodal pair, a qubit set with a
    non-uniform prior and the qutrit Weyl set with a random prior."""
    rng = np.random.default_rng(31)
    qubit_set = canonical_qubit_set(random_orthonormal_frame(rng)).unitaries
    weyl = weyl_set(3).unitaries
    return [
        (antipodal_pair((0.3, -0.4, 0.5)), random_density_matrix(2, rng)),
        (EncodingEnsemble(2, qubit_set, np.array([0.1, 0.2, 0.3, 0.4])), random_density_matrix(2, rng)),
        (EncodingEnsemble(3, weyl, rng.dirichlet(np.ones(9))), random_density_matrix(3, rng)),
    ]


@pytest.mark.parametrize("e,rho", reference_ensembles(), ids=["antipodal", "qubit_set", "weyl3"])
class TestAgainstPerSignalForms:
    def test_holevo_chi_matches_per_signal_entropies(self, e, rho):
        signal_entropy = sum(
            p * von_neumann_entropy(DensityMatrix(u @ rho.matrix @ u.conj().T))
            for p, u in zip(e.prior, e.unitaries)
        )
        expected = von_neumann_entropy(average_state(e, rho)) - signal_entropy
        assert abs(holevo_chi(e, rho) - expected) < 1e-12

    def test_average_state_matches_optimized_einsum(self, e, rho):
        us = e.unitaries
        expected = np.einsum("a,aij,jk,alk->il", e.prior, us, rho.matrix, us.conj(), optimize=True)
        assert np.max(np.abs(average_state(e, rho).matrix - expected)) < 1e-14


class TestAverageState:
    def test_canonical_set_twirls_to_mixture(self):
        rng = np.random.default_rng(0)
        e = canonical_qubit_set(random_orthonormal_frame(rng))
        rho = random_density_matrix(2, rng)
        assert np.linalg.norm(average_state(e, rho).matrix - np.eye(2) / 2) < 1e-12

    def test_identity_ensemble_is_noop(self):
        from densecap import EncodingEnsemble

        rho = random_density_matrix(3, np.random.default_rng(1))
        e = EncodingEnsemble(3, (np.eye(3),), np.array([1.0]))
        assert np.allclose(average_state(e, rho).matrix, rho.matrix, atol=1e-15)

    def test_weyl3_matches_explicit_summation(self):
        rng = np.random.default_rng(2)
        e = weyl_set(3)
        rho = random_density_matrix(3, rng)
        explicit = sum(p * u @ rho.matrix @ u.conj().T for p, u in zip(e.prior, e.unitaries))
        got = average_state(e, rho).matrix
        assert np.allclose(got, explicit, atol=1e-14)
        assert np.linalg.norm(got - np.eye(3) / 3) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            average_state(weyl_set(3), random_density_matrix(2, np.random.default_rng(3)))


class TestHolevoChi:
    def test_pure_qubit_reaches_one_bit(self):
        e = canonical_qubit_set(OrthonormalFrame.standard())
        assert holevo_chi(e, from_bloch((0, 0, 1))) == pytest.approx(1.0, abs=1e-12)

    def test_total_mixture_gives_zero(self):
        e = canonical_qubit_set(OrthonormalFrame.standard())
        assert holevo_chi(e, DensityMatrix(np.eye(2) / 2)) == pytest.approx(0.0, abs=1e-12)

    def test_bloch_radius_point_six(self):
        # chi = 1 - h(0.8) with h the binary entropy
        e = canonical_qubit_set(OrthonormalFrame.standard())
        expected = 1.0 - binary_entropy(0.8)
        assert expected == pytest.approx(0.278072, abs=1e-6)
        assert holevo_chi(e, from_bloch((0.6, 0, 0))) == pytest.approx(expected, abs=1e-12)

    def test_non_negative(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            e = canonical_qubit_set(random_orthonormal_frame(rng))
            assert holevo_chi(e, random_density_matrix(2, rng)) >= 0.0


class TestRelativeEntropy:
    def test_self_divergence_vanishes(self):
        rho = random_density_matrix(3, np.random.default_rng(5))
        assert abs(relative_entropy(rho, rho)) < 1e-12

    def test_non_negative(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = random_density_matrix(3, rng)
            b = random_density_matrix(3, rng)
            assert relative_entropy(a, b) > -1e-12

    def test_mismatched_support_capped(self):
        a = pure_state(np.array([1.0, 0.0]))
        b = pure_state(np.array([0.0, 1.0]))
        assert relative_entropy(a, b) == 50.0

    def test_pure_vs_mixture_closed_form(self):
        # D(|0><0| || I/2) = log2 2 = 1
        a = pure_state(np.array([1.0, 0.0]))
        b = DensityMatrix(np.eye(2) / 2)
        assert relative_entropy(a, b) == pytest.approx(1.0, abs=1e-12)


def _reference_point(mats, neg_s, pi):
    """Every D(rho_a || avg) and chi at prior pi, each from its own loop.

    D(rho || avg) = sum lam log2 lam - sum_i <v_i|rho|v_i> log2 mu_i, with
    neg_s[a] = sum lam log2 lam of rho_a.
    """
    avg = sum(p * m for p, m in zip(pi, mats))
    mu, vecs = np.linalg.eigh(avg)
    div = np.array([
        first - sum(
            np.real(vecs[:, i].conj() @ m @ vecs[:, i]) * math.log2(mu[i])
            for i in range(len(mu)) if mu[i] > 1e-12
        )
        for m, first in zip(mats, neg_s)
    ])
    chi = -sum(x * math.log2(x) for x in mu if x > 0) + float(pi @ neg_s)
    return div, chi


def _neg_entropies(mats):
    return np.array([float(np.sum([x * math.log2(x) for x in np.linalg.eigvalsh(m) if x > 0])) for m in mats])


def reference_gap(states, prior) -> float:
    """Capacity gap max_a D(rho_a || avg) - chi at prior, per state, independent of capacity.py."""
    mats = [s.matrix for s in states]
    div, chi = _reference_point(mats, _neg_entropies(mats), np.asarray(prior))
    return float(div.max()) - chi


def reference_blahut_arimoto(states, tol: float, max_iter: int | None = None):
    """Per-state loop of the Blahut-Arimoto update, independent of capacity.py.

    Every divergence comes from its own eigendecompositions (_reference_point).
    BA's chi never decreases and never exceeds the capacity, so a run cut
    at max_iter still returns a lower bound on it.
    """
    mats = [s.matrix for s in states]
    neg_s = _neg_entropies(mats)
    pi = np.full(len(mats), 1.0 / len(mats))
    iterations = 0
    while True:
        iterations += 1
        div, chi = _reference_point(mats, neg_s, pi)
        if div.max() - chi < tol or iterations == max_iter:
            return chi, pi, iterations
        weights = pi * np.exp2(div - div.max())
        pi = weights / weights.sum()


class TestOptimizePrior:
    @pytest.mark.parametrize("d,n,seed", [(2, 3, 30), (3, 5, 31), (4, 6, 32)])
    def test_matches_per_state_reference(self, d, n, seed):
        rng = np.random.default_rng(seed)
        states = [random_density_matrix(d, rng) for _ in range(n)]
        report = optimize_prior(states, tol=1e-12)
        chi, prior, _ = reference_blahut_arimoto(states, tol=1e-14)
        assert report.converged
        assert reference_gap(states, report.optimal_prior) < 1e-12
        assert report.chi == pytest.approx(chi, abs=1e-12)
        assert np.max(np.abs(report.optimal_prior - prior)) < 1e-12

    def test_singular_kkt_falls_back_to_blahut_arimoto(self, monkeypatch):
        # with every KKT solve failing, each step is a BA step: the reference's run exactly
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        rng = np.random.default_rng(30)
        states = [random_density_matrix(2, rng) for _ in range(3)]
        report = optimize_prior(states)
        chi, prior, iterations = reference_blahut_arimoto(states, tol=1e-9)
        assert report.converged
        assert report.iterations == iterations
        assert report.chi == pytest.approx(chi, abs=1e-12)
        assert np.max(np.abs(report.optimal_prior - prior)) < 1e-12

    def test_one_eigendecomposition_per_iteration(self, monkeypatch):
        rng = np.random.default_rng(33)
        states = [random_density_matrix(8, rng) for _ in range(12)]
        calls = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        report = optimize_prior(states)
        # one eigh per evaluation of chi; the average state is validated on first read only
        assert report.converged
        assert len(calls) == report.iterations
        avg = report.average_state
        assert len(calls) == report.iterations + 1
        assert report.average_state is avg and len(calls) == report.iterations + 1
        mats = np.stack([s.matrix for s in states])
        assert np.array_equal(avg.matrix, np.einsum("a,aij->ij", report.optimal_prior, mats))

    def test_rank_deficient_average_state(self):
        # avg = diag(1/2, 1/2, 0) has a null space, so the support guard runs
        states = [pure_state(np.array([1.0, 0, 0])), pure_state(np.array([0, 1.0, 0]))]
        report = optimize_prior(states)
        assert report.converged
        assert report.chi == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(report.optimal_prior, [0.5, 0.5], atol=1e-12)

    def test_antipodal_pure_states(self):
        states = [from_bloch((0, 0, 1)), from_bloch((0, 0, -1))]
        report = optimize_prior(states)
        assert np.allclose(report.optimal_prior, [0.5, 0.5], atol=1e-9)
        assert report.chi == pytest.approx(1.0, abs=1e-9)
        assert report.converged

    def test_single_state(self):
        report = optimize_prior([random_density_matrix(2, np.random.default_rng(7))])
        assert np.allclose(report.optimal_prior, [1.0])
        assert report.chi == pytest.approx(0.0, abs=1e-12)
        assert report.converged

    def test_canonical_signals_reach_uniform(self):
        rng = np.random.default_rng(8)
        e = canonical_qubit_set(random_orthonormal_frame(rng))
        rho = random_density_matrix(2, rng)
        signals = [DensityMatrix(u @ rho.matrix @ u.conj().T) for u in e.unitaries]
        report = optimize_prior(signals)
        assert np.max(np.abs(report.optimal_prior - 0.25)) < 1e-6
        assert report.chi == pytest.approx(1.0 - von_neumann_entropy(rho), abs=1e-8)
        assert report.iterations < 10_000

    def test_chi_trace_monotone(self):
        rng = np.random.default_rng(9)
        ensembles = [[random_density_matrix(2, rng) for _ in range(3)]]
        for d, n in ((2, 6), (4, 10), (8, 20)):
            ensembles.append([random_density_matrix(d, rng, rank=rng.integers(1, d + 1)) for _ in range(n)])
        for states in ensembles:
            report = optimize_prior(states, tol=1e-11)
            # one entry per evaluation of chi, ending at the reported chi
            assert len(report.chi_trace) == report.iterations
            assert report.chi_trace[-1] == report.chi
            diffs = np.diff(report.chi_trace)
            assert np.all(diffs > -1e-12)

    @pytest.mark.parametrize("n_states,seed", [(2, 10), (3, 11), (4, 12)])
    def test_matches_grid_search(self, n_states, seed):
        rng = np.random.default_rng(seed)
        states = [random_density_matrix(2, rng, rank=rng.integers(1, 3)) for _ in range(n_states)]
        report = optimize_prior(states, tol=1e-10)
        step = 0.02 if n_states < 4 else 0.05
        grid = grid_search_chi(states, step)
        # BA must beat every grid point and the grid approximates the optimum
        assert report.chi >= grid - 1e-9
        assert report.chi - grid < 0.02

    def test_report_invariants(self):
        rng = np.random.default_rng(13)
        states = [random_density_matrix(3, rng) for _ in range(3)]
        report = optimize_prior(states)
        assert 0.0 <= report.chi <= math.log2(3) + 1e-12
        assert abs(report.optimal_prior.sum() - 1.0) < 1e-12
        assert np.all(report.optimal_prior >= 0)
        assert abs(np.trace(report.average_state.matrix).real - 1.0) < 1e-12

    def test_report_json_record(self):
        report = optimize_prior([from_bloch((0, 0, 1)), from_bloch((0, 0, -1))])
        record = report.to_json()
        assert set(record) == {"chi", "prior", "iterations", "converged"}
        assert record["converged"] is True
        assert record["prior"] == pytest.approx([0.5, 0.5])

    def test_non_convergence_is_flagged_not_raised(self):
        rng = np.random.default_rng(14)
        states = [random_density_matrix(2, rng, rank=1) for _ in range(3)]
        report = optimize_prior(states, tol=1e-15, max_iter=2)
        assert not report.converged
        assert report.iterations == 2

    def test_no_states(self):
        with pytest.raises(NoStates):
            optimize_prior([])

    @pytest.mark.parametrize(
        "kwargs", [{"tol": math.nan}, {"tol": math.inf}, {"tol": 0.0}, {"tol": -1.0}, {"max_iter": 0}]
    )
    def test_rejects_bad_tol_and_max_iter(self, kwargs):
        states = [from_bloch((0, 0, 1)), from_bloch((0, 0, -1))]
        with pytest.raises(ValueError):
            optimize_prior(states, **kwargs)
        with pytest.raises(ValueError):
            dense_capacity_via_ensemble(bell_state(), "a2b", **kwargs)

    # Blahut-Arimoto alone stops unconverged at its 100,000-iteration cap on the
    # first ensemble and needs 27,111 iterations on the second, so a silent
    # fall back to BA steps fails the budget
    @pytest.mark.parametrize("seed,n", [(103, 28), (106, 20)])
    def test_newton_finish_evaluation_budget(self, seed, n):
        rng = np.random.default_rng(seed)
        states = [random_density_matrix(8, rng) for _ in range(n)]
        report = optimize_prior(states)
        assert report.converged and report.iterations <= 400
        assert reference_gap(states, report.optimal_prior) < 1e-9

    def test_mixed_dimensions(self):
        rng = np.random.default_rng(15)
        with pytest.raises(DimensionMismatch):
            optimize_prior([random_density_matrix(2, rng), random_density_matrix(3, rng)])


def _traceless_hermitian(rng, d: int) -> np.ndarray:
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    x = (x + x.conj().T) / 2
    x -= np.trace(x) / d * np.eye(d)
    return x / np.abs(np.linalg.eigvalsh(x)).max()


def _hessian_case(kind: str, d: int, rng):
    """Signal states and a prior whose average state has the named spectrum."""
    if kind == "generic":
        mats = [random_density_matrix(d, rng).matrix for _ in range(d + 1)]
        return np.stack(mats), rng.dirichlet(np.ones(d + 1))
    if kind == "degenerate":
        # (I +- 0.3 X) / d with uniform prior: sigma = I / d, all eigenvalues equal
        xs = [0.3 * _traceless_hermitian(rng, d) for _ in range(2)]
        mats = [(np.eye(d) + x) / d for x in xs] + [(np.eye(d) - x) / d for x in xs]
        return np.stack(mats), np.full(4, 0.25)
    if kind == "partly-degenerate":
        # sigma = diag(0.4, 0.6 / (d - 1), ...): one eigenvalue d - 1 times
        low = 0.6 / (d - 1)
        xs = [_traceless_hermitian(rng, d) for _ in range(3)]
        xs.append(-sum(xs))
        scale = 0.5 * low / max(np.abs(np.linalg.eigvalsh(x)).max() for x in xs)
        base = np.diag([0.4] + [low] * (d - 1))
        return np.stack([base + scale * x for x in xs]), np.full(4, 0.25)
    # rank-deficient: every state, and so sigma, lives on one 2-dim subspace
    w = np.linalg.qr(rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2)))[0]
    mats = [w @ random_density_matrix(2, rng).matrix @ w.conj().T for _ in range(3)]
    return np.stack(mats), rng.dirichlet(np.ones(3))


HESSIAN_CASES = [
    (d, kind)
    for d in (2, 3, 4)
    for kind in ("generic", "degenerate", "partly-degenerate", "rank-deficient")
    # a 2x2 spectrum with a repeated eigenvalue is already the degenerate case
    if (d, kind) != (2, "partly-degenerate")
]


@pytest.mark.parametrize("d,kind", HESSIAN_CASES)
def test_divergence_hessian_matches_central_differences(d, kind):
    rng = np.random.default_rng(40 + d)
    mats, prior = _hessian_case(kind, d, rng)
    n = len(mats)
    flat_t = mats.transpose(0, 2, 1).reshape(n, -1)
    entropies = np.array([von_neumann_entropy(DensityMatrix(m)) for m in mats])

    def divergences(p):
        return _divergences(flat_t, entropies, np.einsum("a,aij->ij", p, mats))

    _, mu, vecs = divergences(prior)
    if kind == "degenerate":
        assert np.ptp(mu) < 1e-15
    if kind == "rank-deficient":
        assert np.sum(mu > 1e-12) == 2
    hessian = _divergence_hessian(mats, mu, vecs)
    assert np.allclose(hessian, hessian.T, atol=1e-12)
    eps = 1e-5
    for _ in range(3):
        delta = rng.standard_normal(n)
        delta -= delta.mean()
        central = (divergences(prior + eps * delta)[0] - divergences(prior - eps * delta)[0]) / (2 * eps)
        predicted = hessian @ delta
        assert np.max(np.abs(central - predicted)) < 1e-7 * np.max(np.abs(predicted))


class TestClosedFormCapacities:
    def test_normal_capacity_pure_qubit(self):
        assert normal_capacity(from_bloch((0, 0, 1))) == pytest.approx(1.0, abs=1e-12)

    def test_normal_capacity_total_mixture(self):
        for d in (2, 3, 5):
            assert normal_capacity(DensityMatrix(np.eye(d) / d)) == pytest.approx(0.0, abs=1e-9)

    def test_normal_capacity_qutrit(self):
        rho = DensityMatrix(np.diag([0.5, 0.5, 0.0]))
        assert normal_capacity(rho) == pytest.approx(math.log2(3) - 1.0, abs=1e-12)
        assert normal_capacity(rho) == pytest.approx(0.584963, abs=1e-6)

    def test_dense_capacity_bell(self):
        assert dense_capacity(bell_state(), "a2b") == pytest.approx(2.0, abs=1e-9)

    def test_dense_capacity_product_pure(self):
        s = BipartiteState.from_product(from_bloch((0, 0, 1)), from_bloch((1, 0, 0)))
        assert dense_capacity(s, "a2b") == pytest.approx(1.0, abs=1e-12)
        assert dense_capacity(s, "a2b") == pytest.approx(normal_capacity(s.reduced_a), abs=1e-12)

    def test_dense_capacity_werner_half(self):
        # S from eigenvalues (1+3p)/4 and (1-p)/4 three times
        s_ab = -(5 / 8) * math.log2(5 / 8) - 3 * (1 / 8) * math.log2(1 / 8)
        expected = 2.0 - s_ab
        assert expected == pytest.approx(0.451205, abs=1e-6)
        assert dense_capacity(werner_state(0.5), "a2b") == pytest.approx(expected, abs=1e-12)

    def test_mutual_information_examples(self):
        assert mutual_information(bell_state()) == pytest.approx(2.0, abs=1e-9)
        prod = BipartiteState.from_product(
            random_density_matrix(2, np.random.default_rng(16)),
            random_density_matrix(2, np.random.default_rng(17)),
        )
        assert mutual_information(prod) == pytest.approx(0.0, abs=1e-10)
        assert mutual_information(werner_state(0.5)) == pytest.approx(0.451205, abs=1e-6)

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            dense_capacity(bell_state(), "sideways")


class TestIdentities:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_difference_identity(self, dims):
        rng = np.random.default_rng(dims[0] * 7 + dims[1])
        for _ in range(40):
            s = random_bipartite_state(dims, rng, rank=rng.integers(1, dims[0] * dims[1] + 1))
            mi = mutual_information(s)
            for direction, sender in (("a2b", s.reduced_a), ("b2a", s.reduced_b)):
                gap = dense_capacity(s, direction) - normal_capacity(sender)
                assert abs(gap - mi) < 1e-9

    def test_asymmetry_relation(self):
        rng = np.random.default_rng(18)
        for dims in ((2, 2), (2, 3), (3, 2)):
            for _ in range(40):
                s = random_bipartite_state(dims, rng)
                lhs = dense_capacity(s, "a2b") - dense_capacity(s, "b2a")
                rhs = (
                    math.log2(dims[0]) - math.log2(dims[1])
                    + von_neumann_entropy(s.reduced_b) - von_neumann_entropy(s.reduced_a)
                )
                assert abs(lhs - rhs) < 1e-9

    def test_averaged_state_factorizes(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            s = random_bipartite_state((2, 2), rng)
            lifted = lift_ensemble(canonical_qubit_set(random_orthonormal_frame(rng)), 2, "a")
            avg = average_state(lifted, s.joint)
            expected = np.kron(np.eye(2) / 2, s.reduced_b.matrix)
            assert np.linalg.norm(avg.matrix - expected) < 1e-10

    def test_dense_dominates_normal(self):
        rng = np.random.default_rng(20)
        for _ in range(60):
            s = random_bipartite_state((2, 2), rng, rank=rng.integers(1, 5))
            assert dense_capacity(s, "a2b") >= normal_capacity(s.reduced_a) - 1e-12
            assert dense_capacity(s, "b2a") >= normal_capacity(s.reduced_b) - 1e-12

    def test_ceiling_strict_for_locally_encoded(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            s = random_bipartite_state((2, 2), rng, rank=rng.integers(1, 5))
            ceiling = 2.0 - von_neumann_entropy(s.joint)
            assert dense_capacity(s, "a2b") <= ceiling + 1e-12

    def test_entanglement_witness(self):
        rng = np.random.default_rng(22)
        hits = 0
        for _ in range(200):
            s = random_bipartite_state((2, 2), rng, rank=rng.integers(1, 5))
            if dense_capacity(s, "a2b") > 1.0:
                hits += 1
                assert von_neumann_entropy(s.reduced_b) > von_neumann_entropy(s.joint)
        assert hits > 0


class TestCrossCheck:
    def test_bell_state_via_optimizer(self):
        report = dense_capacity_via_ensemble(bell_state(), "a2b")
        assert report.chi == pytest.approx(2.0, abs=1e-8)
        assert report.converged

    def test_werner_via_optimizer_both_directions(self):
        s = werner_state(0.7)
        for direction in ("a2b", "b2a"):
            report = dense_capacity_via_ensemble(s, direction)
            assert report.chi == pytest.approx(dense_capacity(s, direction), abs=1e-7)
            assert np.max(np.abs(report.optimal_prior - 0.25)) < 1e-6

    def test_random_state_via_optimizer(self):
        rng = np.random.default_rng(23)
        s = random_bipartite_state((2, 2), rng)
        report = dense_capacity_via_ensemble(s, "a2b")
        assert report.chi == pytest.approx(dense_capacity(s, "a2b"), abs=1e-7)

    def test_qutrit_pair_via_optimizer(self):
        s = max_entangled_state(3)
        report = dense_capacity_via_ensemble(s, "a2b")
        assert report.chi == pytest.approx(2.0 * math.log2(3), abs=1e-7)
        assert report.chi == pytest.approx(dense_capacity(s, "a2b"), abs=1e-7)

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 3)])
    def test_stacked_signals_match_per_signal_states(self, dims):
        # the signal stack, validated at once, reproduces optimize_prior on one DensityMatrix per signal
        s = random_bipartite_state(dims, np.random.default_rng(31))
        for direction, side, d, other in (("a2b", "a", dims[0], dims[1]), ("b2a", "b", dims[1], dims[0])):
            us = lift_ensemble(weyl_set(d), other, side=side).unitaries
            per_signal = optimize_prior([DensityMatrix(u @ s.joint.matrix @ u.conj().T) for u in us])
            report = dense_capacity_via_ensemble(s, direction)
            assert report.chi == per_signal.chi
            assert np.array_equal(report.optimal_prior, per_signal.optimal_prior)
            assert report.chi_trace == per_signal.chi_trace


def test_entropy_additivity_used_by_dense_formula():
    # S((1/d) x rho_B) = log2 d + S(rho_B), the step behind the closed form
    rng = np.random.default_rng(24)
    rho_b = random_density_matrix(2, rng)
    joint = tensor(DensityMatrix(np.eye(2) / 2), rho_b)
    lhs = von_neumann_entropy(joint)
    assert abs(lhs - (1.0 + von_neumann_entropy(rho_b))) < 1e-10
