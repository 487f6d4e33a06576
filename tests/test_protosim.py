import itertools
import math
import random
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densecap import protosim
from densecap import (
    BellDecoder,
    BipartiteState,
    ClassicalJointState,
    DimensionMismatch,
    InvalidState,
    InvalidTrials,
    OrthonormalFrame,
    SingleParticleDecoder,
    antipodal_pair,
    bell_state,
    canonical_qubit_set,
    empirical_mutual_information,
    from_bloch,
    holevo_chi,
    max_entangled_state,
    partial_trace,
    run_classical_dense,
    run_quantum_dense,
    weyl_set,
    werner_state,
)
from densecap.cli import MAX_TRIALS
from densecap.encodings import EncodingEnsemble
from densecap.qstate import _BELL_VECTORS, DensityMatrix, _partial_trace_array
from densecap.sampling import random_bipartite_state


CANONICAL = canonical_qubit_set(OrthonormalFrame.standard())
# nonuniform Weyl prior with a zero entry: message 2 is never drawn
WEYL3_SKEWED = EncodingEnsemble(3, weyl_set(3).unitaries, [0.3, 0.1, 0.0, 0.05, 0.15, 0.1, 0.1, 0.15, 0.05])
SKEWED_JOINT = ClassicalJointState(np.array([[0.6, 0.25], [0.0, 0.15]]))


def z_product_state(v_a=(0, 0, 1), v_b=(0, 0, 1)) -> BipartiteState:
    return BipartiteState.from_product(from_bloch(v_a), from_bloch(v_b))


class TestQuantumProtocol:
    def test_bell_pair_bell_decoder_two_bits(self):
        trace = run_quantum_dense(bell_state(), CANONICAL, BellDecoder(), 100_000, 7)
        assert abs(trace.empirical_mi - 2.0) < 0.02
        # the four signal states are orthogonal: decoding is error-free
        off_diagonal = trace.joint_counts - np.diag(np.diag(trace.joint_counts))
        assert off_diagonal.sum() == 0

    def test_bell_pair_single_particle_no_information(self):
        trace = run_quantum_dense(bell_state(), CANONICAL, SingleParticleDecoder("z"), 100_000, 7)
        assert trace.empirical_mi < 0.01

    def test_product_state_antipodal_single_particle_one_bit(self):
        s = z_product_state()
        trace = run_quantum_dense(s, antipodal_pair((0, 0, 1)), SingleParticleDecoder("z"), 100_000, 7)
        assert abs(trace.empirical_mi - 1.0) < 0.02

    def test_x_axis_state_measured_in_x_basis(self):
        s = z_product_state(v_a=(1, 0, 0))
        trace = run_quantum_dense(s, antipodal_pair((1, 0, 0)), SingleParticleDecoder("x"), 50_000, 3)
        assert abs(trace.empirical_mi - 1.0) < 0.02

    def test_y_axis_state_measured_in_y_basis(self):
        s = z_product_state(v_a=(0, 1, 0))
        trace = run_quantum_dense(s, antipodal_pair((0, 1, 0)), SingleParticleDecoder("y"), 50_000, 3)
        assert abs(trace.empirical_mi - 1.0) < 0.02

    def test_qudit_protocol_with_weyl_encoding(self):
        from densecap import max_entangled_state

        s = max_entangled_state(3)
        # single-particle readout of the maximally mixed sender carries nothing
        trace = run_quantum_dense(s, weyl_set(3), SingleParticleDecoder("z"), 30_000, 5)
        assert trace.empirical_mi < 0.01

    def test_counts_shape_and_total(self):
        trace = run_quantum_dense(bell_state(), CANONICAL, BellDecoder(), 5_000, 1)
        assert trace.joint_counts.shape == (4, 4)
        assert trace.joint_counts.sum() == 5_000
        assert trace.trials == 5_000
        assert trace.seed == 1

    def test_mi_bounded_by_holevo_plus_sampling(self):
        tolerance = 3.0 / math.sqrt(50_000)
        cases = [
            (bell_state(), CANONICAL, BellDecoder()),
            (z_product_state(), antipodal_pair((0, 0, 1)), SingleParticleDecoder("z")),
            (werner_state(0.6), CANONICAL, BellDecoder()),
            (z_product_state(v_a=(0.6, 0, 0)), antipodal_pair((0.6, 0, 0)), SingleParticleDecoder("z")),
        ]
        for s, e, decoder in cases:
            from densecap import lift_ensemble

            lifted = lift_ensemble(e, s.dim_b, "a")
            chi = holevo_chi(lifted, s.joint)
            trace = run_quantum_dense(s, e, decoder, 50_000, 11)
            assert trace.empirical_mi <= chi + tolerance

    def test_seed_determinism(self):
        a = run_quantum_dense(bell_state(), CANONICAL, BellDecoder(), 2_000, 42)
        b = run_quantum_dense(bell_state(), CANONICAL, BellDecoder(), 2_000, 42)
        assert np.array_equal(a.joint_counts, b.joint_counts)
        assert a.empirical_mi == b.empirical_mi
        c = run_quantum_dense(bell_state(), CANONICAL, BellDecoder(), 2_000, 43)
        assert not np.array_equal(a.joint_counts, c.joint_counts)

    def test_invalid_trials(self):
        with pytest.raises(InvalidTrials):
            run_quantum_dense(bell_state(), CANONICAL, BellDecoder(), 0, 0)

    def test_dimension_mismatches(self):
        with pytest.raises(DimensionMismatch):
            run_quantum_dense(bell_state(), weyl_set(3), BellDecoder(), 10, 0)
        s23 = BipartiteState.from_product(from_bloch((0, 0, 1)), DensityMatrix(np.eye(3) / 3))
        with pytest.raises(DimensionMismatch):
            run_quantum_dense(s23, CANONICAL, BellDecoder(), 10, 0)
        with pytest.raises(DimensionMismatch):
            run_quantum_dense(
                BipartiteState.from_product(DensityMatrix(np.eye(3) / 3), from_bloch((0, 0, 1))),
                weyl_set(3),
                SingleParticleDecoder("x"),
                10,
                0,
            )

    def test_marginal_of_signals_matches_sampler(self):
        # empirical outcome frequencies approach the Born probabilities
        s = werner_state(0.5)
        trace = run_quantum_dense(s, CANONICAL, BellDecoder(), 200_000, 13)
        freq = trace.joint_counts / trace.joint_counts.sum()
        from densecap import lift_ensemble

        lifted = lift_ensemble(CANONICAL, 2, "a")
        from densecap.qstate import _BELL_VECTORS

        basis = [_BELL_VECTORS[k] for k in ("psi+", "phi+", "phi-", "psi-")]
        for a, u in enumerate(lifted.unitaries):
            sig = u @ s.joint.matrix @ u.conj().T
            born = np.array([np.real(v.conj() @ sig @ v) for v in basis]) * 0.25
            assert np.max(np.abs(freq[a] - born)) < 0.01

    def test_to_json(self):
        trace = run_quantum_dense(bell_state(), CANONICAL, BellDecoder(), 100, 2)
        obj = trace.to_json()
        assert obj["trials"] == 100
        assert sum(sum(row) for row in obj["counts"]) == 100
        assert obj["seed"] == 2


class TestClassicalProtocol:
    def test_key_recovers_one_bit(self):
        trace = run_classical_dense(ClassicalJointState.maximally_correlated(), True, 100_000, 7)
        assert abs(trace.empirical_mi - 1.0) < 0.01
        # decoding is deterministic: outcome equals message in every trial
        assert trace.joint_counts[0, 1] == 0
        assert trace.joint_counts[1, 0] == 0

    def test_without_key_no_information(self):
        trace = run_classical_dense(ClassicalJointState.maximally_correlated(), False, 100_000, 7)
        assert trace.empirical_mi < 0.01

    def test_uncorrelated_key_is_noise(self):
        trace = run_classical_dense(ClassicalJointState.uncorrelated_uniform(), True, 100_000, 7)
        assert trace.empirical_mi < 0.02

    def test_biased_joint_distribution(self):
        # p(00) = 0.9, p(11) = 0.1: still perfectly correlated, still one bit
        state = ClassicalJointState(np.array([[0.9, 0.0], [0.0, 0.1]]))
        trace = run_classical_dense(state, True, 50_000, 3)
        assert abs(trace.empirical_mi - 1.0) < 0.01

    def test_seed_determinism(self):
        a = run_classical_dense(ClassicalJointState.maximally_correlated(), True, 5_000, 0)
        b = run_classical_dense(ClassicalJointState.maximally_correlated(), True, 5_000, 0)
        assert np.array_equal(a.joint_counts, b.joint_counts)

    def test_invalid_trials(self):
        with pytest.raises(InvalidTrials):
            run_classical_dense(ClassicalJointState.maximally_correlated(), True, 0, 0)

    def test_state_validation(self):
        with pytest.raises(InvalidState):
            ClassicalJointState(np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(InvalidState):
            ClassicalJointState(np.array([[1.5, 0.0], [0.0, -0.5]]))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidState):
                ClassicalJointState(np.array([[bad, 0.0], [0.0, 1.0]]))


class TestEmpiricalMi:
    def test_perfect_channel(self):
        counts = np.diag([25, 25, 25, 25])
        assert empirical_mutual_information(counts) == pytest.approx(2.0, abs=1e-12)

    def test_independent_table(self):
        counts = np.full((2, 2), 100)
        assert empirical_mutual_information(counts) == pytest.approx(0.0, abs=1e-12)

    def test_bounded_by_alphabet_sizes(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            counts = rng.integers(0, 50, size=(4, 3))
            if counts.sum() == 0:
                continue
            mi = empirical_mutual_information(counts)
            assert 0.0 <= mi <= min(math.log2(4), math.log2(3)) + 1e-12

    def test_empty_table(self):
        assert empirical_mutual_information(np.zeros((2, 2))) == 0.0


def test_trace_rejects_inconsistent_totals():
    from densecap import ProtocolTrace

    with pytest.raises(ValueError):
        ProtocolTrace(10, np.array([[1, 0], [0, 1]]), 0.0, 0)


def test_single_particle_reduction_matches_partial_trace():
    # decoder sees Tr_B of the encoded state
    s = werner_state(0.3)
    u = CANONICAL.unitaries[2]
    lifted = np.kron(u, np.eye(2))
    sig = lifted @ s.joint.matrix @ lifted.conj().T
    reduced = partial_trace(DensityMatrix(sig), (2, 2), "A")
    expected = u @ s.reduced_a.matrix @ u.conj().T
    assert np.allclose(reduced.matrix, expected, atol=1e-12)


SINGLE_BASES = {"x": np.array([[1, 1], [1, -1]]) / math.sqrt(2)}


def quantum_law(s, e, decoder):
    """Message-major law prior[a] * q[a, b] from the Born rule, computed here rather than by protosim."""
    if isinstance(decoder, BellDecoder):
        basis = [_BELL_VECTORS[k] for k in ("psi+", "phi+", "phi-", "psi-")]
        signals = [np.kron(u, np.eye(2)) @ s.joint.matrix @ np.kron(u, np.eye(2)).conj().T for u in e.unitaries]
    else:
        basis = SINGLE_BASES.get(decoder.basis, np.eye(s.dim_a))
        reduced = _partial_trace_array(s.joint.matrix, s.dims, "A")
        signals = [u @ reduced @ u.conj().T for u in e.unitaries]
    q = np.clip([[np.real(np.conj(v) @ sig @ v) for v in basis] for sig in signals], 0.0, None)
    return (e.prior[:, None] * q / q.sum(axis=1, keepdims=True)).ravel()


def classical_law(joint):
    """Law of the cells (j_A, j_B, k): the shared bits and a uniform message bit."""
    return np.array([joint.probabilities[j_a, j_b] / 2 for j_a, j_b, _ in itertools.product((0, 1), repeat=3)])


def fold_classical(cells, use_key):
    """(message, decoded) table of per-cell values, one cell at a time."""
    table = np.zeros((2, 2), dtype=cells.dtype)
    for (j_a, j_b, k), c in zip(itertools.product((0, 1), repeat=3), cells):
        table[k, j_a ^ k ^ (j_b if use_key else 0)] += c
    return table


def reference_draw(p, trials, seed):
    """One multinomial draw over the nonzero cells of p, as conditional binomials from random.Random(seed).

    Cell i, in cell order, takes Binomial(left, p_i / tail_i), tail_i being the sum of the nonzero
    cells from i on added from the last one back; the last nonzero cell takes what is left.
    """
    nonzero = [i for i in range(p.size) if p[i] > 0]
    tail, mass = {}, 0.0
    for i in reversed(nonzero):
        mass = float(p[i]) + mass
        tail[i] = mass
    rng, left, cells = random.Random(seed), trials, np.zeros(p.size, dtype=np.int64)
    for i in nonzero[:-1]:
        k = protosim._binomial(rng, left, float(p[i]) / tail[i])
        cells[i], left = k, left - k
    cells[nonzero[-1]] = left
    return cells


QUANTUM_CASES = {
    "bell": (bell_state(), CANONICAL, BellDecoder()),
    "single-x": (werner_state(0.6), CANONICAL, SingleParticleDecoder("x")),
    "weyl3-skewed": (max_entangled_state(3), WEYL3_SKEWED, SingleParticleDecoder("z")),
    "weyl10": (max_entangled_state(10), weyl_set(10), SingleParticleDecoder("z")),
}
CLASSICAL_CASES = {
    "keyed": (ClassicalJointState.maximally_correlated(), True),
    "no-key-skewed": (SKEWED_JOINT, False),
}
ALL_CASES = [*QUANTUM_CASES, *CLASSICAL_CASES]


def case_run(case):
    """A case's runner and its arguments up to trials and seed."""
    if case in QUANTUM_CASES:
        return run_quantum_dense, QUANTUM_CASES[case]
    return run_classical_dense, CLASSICAL_CASES[case]


def sampled_counts(case, trials, seed):
    run, args = case_run(case)
    return run(*args, trials, seed).joint_counts


def reference_cells(case):
    """The law of a case's sampled cells."""
    if case in QUANTUM_CASES:
        return quantum_law(*QUANTUM_CASES[case])
    return classical_law(CLASSICAL_CASES[case][0])


def reference_table(case, cells):
    """Per-cell values arranged as the case's (message, outcome) table."""
    if case in QUANTUM_CASES:
        return cells.reshape(QUANTUM_CASES[case][1].prior.size, -1)
    return fold_classical(cells, CLASSICAL_CASES[case][1])


def reference_law(case):
    return reference_table(case, reference_cells(case))


def drawn(run, *args):
    """A runner's count table and the cell law it handed to the draw."""
    with mock.patch.object(protosim, "_sample_counts", wraps=protosim._sample_counts) as draw:
        counts = run(*args).joint_counts
    return counts, draw.call_args.args[0]


class TestBlockedSampler:
    """Cell order, zero cells and memory of the count-table draw (named for the blocked sampler it replaced)."""

    # the replaced sampler's block edges, kept as trial counts from 1 to 200,003
    @pytest.mark.parametrize("trials", [1, 16_383, 16_384, 16_385, 65_535, 65_536, 65_537, 200_003])
    @pytest.mark.parametrize("case", ALL_CASES)
    def test_equals_monolithic_sampler(self, case, trials):
        # the runner's cells are the reference cells in the same order; the reference draw then
        # reads the runner's bits, since one ulp in a probability can move a count by one
        run, args = case_run(case)
        counts, p = drawn(run, *args, trials, 23)
        assert np.allclose(p, reference_cells(case), rtol=0, atol=1e-15)
        assert np.array_equal(counts, reference_table(case, reference_draw(p, trials, 23)))

    def test_zero_prior_message_never_sampled(self):
        counts = sampled_counts("weyl3-skewed", 50_000, 4)
        assert counts[2].sum() == 0
        assert np.all(counts.sum(axis=1)[np.array(WEYL3_SKEWED.prior) > 0] > 0)

    def test_zero_cells_stay_zero_at_max_trials(self):
        # ten cells of 0.1 sum to 1 - 2**-53: an inverse CDF forced to end in 1.0 drew the zero cell
        counts = protosim._sample_counts(np.array([0.1] * 10 + [0.0]), MAX_TRIALS, 6)
        assert counts[-1] == 0
        assert counts.sum() == MAX_TRIALS
        trace = run_quantum_dense(*QUANTUM_CASES["weyl3-skewed"], MAX_TRIALS, 6)
        assert trace.joint_counts[2].sum() == 0
        assert trace.joint_counts.sum() == MAX_TRIALS

    def test_max_trials_under_a_second(self):
        start = time.perf_counter()
        trace = run_quantum_dense(bell_state(), CANONICAL, BellDecoder(), MAX_TRIALS, 7)
        assert time.perf_counter() - start < 1.0
        assert np.array_equal(trace.joint_counts, np.diag(np.diag(trace.joint_counts)))

    def test_memory_flat_in_trial_count(self):
        def peak_mb(trials):
            tracemalloc.start()
            try:
                run_quantum_dense(bell_state(), CANONICAL, BellDecoder(), trials, 3)
                return tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()

        peak_mb(1_000)  # first-call caches
        small, large = peak_mb(250_000), peak_mb(4_000_000)
        assert abs(large - small) < 1.0

    def test_working_set_bounded(self):
        # the draw holds only per-cell arrays
        run_quantum_dense(bell_state(), CANONICAL, BellDecoder(), 1_000, 3)  # first-call caches
        tracemalloc.start()
        try:
            run_quantum_dense(bell_state(), CANONICAL, BellDecoder(), 4_000_000, 3)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak < 1.5


def assert_within_six_sigma(counts, law):
    mean = counts.sum() * law
    assert np.all(counts[law == 0] == 0)
    sd = np.sqrt(mean * (1 - law))
    assert np.all(np.abs(counts - mean)[law > 0] <= 6 * sd[law > 0])


class TestSampledLaw:
    """Counts at 10^6 trials against each protocol's law, computed here rather than from the sampler's CDF."""

    def test_weyl3_skewed_single_particle(self):
        s, e, decoder = QUANTUM_CASES["weyl3-skewed"]
        born = np.array([np.real(np.diag(u @ s.reduced_a.matrix @ u.conj().T)) for u in e.unitaries])
        counts = run_quantum_dense(s, e, decoder, 10**6, 31).joint_counts
        assert_within_six_sigma(counts, e.prior[:, None] * born)

    def test_classical_no_key_skewed(self):
        law = np.zeros((2, 2))
        for j_a, j_b, k in itertools.product((0, 1), repeat=3):
            law[k, j_a ^ k] += SKEWED_JOINT.probabilities[j_a, j_b] / 2
        counts = run_classical_dense(SKEWED_JOINT, False, 10**6, 32).joint_counts
        assert_within_six_sigma(counts, law)

    @pytest.mark.parametrize("case", ["weyl3-skewed", "no-key-skewed"])
    def test_single_trial_over_seeds(self, case):
        # one trial per seed: the first draw of each seed's stream follows the law
        counts = sum(sampled_counts(case, 1, seed) for seed in range(20_000))
        assert_within_six_sigma(counts, reference_law(case))


@settings(max_examples=40, deadline=None, database=None)
@given(
    d=st.integers(2, 6),
    weights=st.lists(st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.0 / 3]), min_size=36, max_size=36),
    seed=st.integers(0, 2**128 - 1),
    trials=st.integers(1, 10**10),
)
def test_random_priors_equal_reference_draw(d, weights, seed, trials):
    # Weyl priors with zero messages on a random state, read out on A alone
    prior = np.array(weights[: d * d]) + (sum(weights[: d * d]) == 0.0)  # all zero: uniform
    e = EncodingEnsemble(d, weyl_set(d).unitaries, prior / prior.sum())
    s = random_bipartite_state((d, 2), np.random.default_rng(seed))
    decoder = SingleParticleDecoder("z")
    counts, p = drawn(run_quantum_dense, s, e, decoder, trials, seed)
    assert np.allclose(p, quantum_law(s, e, decoder), rtol=0, atol=1e-15)
    assert np.array_equal(counts.ravel(), reference_draw(p, trials, seed))


def binomial_chi_square(n, p, draws, seed):
    """Pearson statistic and degrees of freedom of `draws` variates against the math.comb pmf, cells pooled to >= 5 expected."""
    rng, seen = random.Random(seed), {}
    for _ in range(draws):
        k = protosim._binomial(rng, n, p)
        seen[k] = seen.get(k, 0) + 1
    stat, cells, observed, expected = 0.0, 0, 0, 0.0
    for k in range(n + 1):
        observed += seen.get(k, 0)
        expected += draws * math.comb(n, k) * p**k * (1 - p) ** (n - k)
        if expected >= 5 or k == n:
            stat, cells, observed, expected = stat + (observed - expected) ** 2 / expected, cells + 1, 0, 0.0
    assert sum(seen.values()) == draws and min(seen) >= 0 and max(seen) <= n
    return stat, cells - 1


class TestBinomial:
    """The count table's Binomial(n, p) sampler: Devroye's geometric method below n p = 10, BTRS above."""

    @pytest.mark.parametrize(
        "n, p",
        [(5, 0.3), (30, 0.2), (1000, 0.002), (40, 0.5), (100, 0.37), (1000, 0.02), (200, 0.9), (12, 0.97)],
        ids=["geometric", "geometric-30", "geometric-sparse", "btrs-half", "btrs", "btrs-sparse", "btrs-complement",
             "geometric-complement"],
    )
    def test_chi_square_against_pmf(self, n, p):
        stat, dof = binomial_chi_square(n, p, 40_000, 17)
        # the statistic is chi-square with dof degrees of freedom: mean dof, sd sqrt(2 dof)
        assert stat < dof + 6 * math.sqrt(2 * dof)

    def test_edges(self):
        rng = random.Random(0)
        state = rng.getstate()
        assert protosim._binomial(rng, 0, 0.4) == 0
        assert protosim._binomial(rng, 9, 0.0) == 0
        assert protosim._binomial(rng, 9, 1.0) == 9
        assert rng.getstate() == state  # the edges draw nothing

    @pytest.mark.parametrize("p", [3e-10, 0.3, 0.5, 1 - 3e-10], ids=["geometric", "btrs", "btrs-half", "complement"])
    def test_max_trials(self, p):
        n = MAX_TRIALS
        for seed in range(5):
            k = protosim._binomial(random.Random(seed), n, p)
            assert type(k) is int and 0 <= k <= n
            assert abs(k - n * p) <= 6 * math.sqrt(n * p * (1 - p))

    @pytest.mark.parametrize("n, p, head", [(5, 0.3, [0.0] * 6), (1000, 0.5, [0.0, 0.95, 0.0])], ids=["geometric", "btrs"])
    def test_random_of_zero_does_not_raise(self, n, p, head):
        # geometric: log(1 - 0.0) is 0, so each of the n successes waits 0 failures; BTRS: u = 0.0 is rejected,
        # u = 0.95 lands in range outside the squeeze, and v = 0.0 accepts
        def zeros_first():
            return mock.patch.object(random.Random, "random", side_effect=itertools.chain(head, iter(random.Random(3).random, None)))

        with zeros_first() as u:
            k = protosim._binomial(random.Random(0), n, p)
        assert u.call_count == len(head) and 0 <= k <= n
        with zeros_first():
            counts = protosim._sample_counts(np.array([p, 0.0, 1 - p]), n, 0)
        assert counts[1] == 0 and counts.sum() == n


class TestSeedAndTrials:
    RUNS = {
        "quantum": lambda trials, seed: run_quantum_dense(bell_state(), CANONICAL, BellDecoder(), trials, seed),
        "classical": lambda trials, seed: run_classical_dense(SKEWED_JOINT, True, trials, seed),
    }

    @pytest.mark.parametrize(
        "trials, seed, error",
        [(10, -1, ValueError), (10, 2**128, ValueError), (10, 1.5, TypeError), (2.5, 0, TypeError)],
        ids=["seed-negative", "seed-2**128", "seed-1.5", "trials-2.5"],
    )
    @pytest.mark.parametrize("protocol", ["quantum", "classical"])
    def test_rejected_before_the_draw(self, protocol, trials, seed, error):
        with mock.patch.object(protosim, "_sample_counts") as draw, pytest.raises(error):
            self.RUNS[protocol](trials, seed)
        draw.assert_not_called()

    @pytest.mark.parametrize("protocol", ["quantum", "classical"])
    def test_integer_likes_become_ints(self, protocol):
        trace = self.RUNS[protocol](np.int64(10), np.uint64(2**64 - 1))
        assert type(trace.trials) is int and type(trace.seed) is int
        assert trace.to_json()["seed"] == 2**64 - 1
        assert self.RUNS[protocol](10, 2**128 - 1).joint_counts.sum() == 10
