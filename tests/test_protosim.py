import itertools
import math
import tracemalloc
from types import SimpleNamespace

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
from densecap.encodings import EncodingEnsemble
from densecap.qstate import DensityMatrix
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


def monolithic_quantum_counts(s, e, decoder, trials, seed):
    """Reference counts over the message-major joint CDF of prior[a] * q[a, b]."""
    q = protosim._outcome_distributions(s, e, decoder)
    cum = np.cumsum(e.prior[:, None] * q)
    cum[-1] = 1.0
    return monolithic_kernel_counts(cum, trials, seed).reshape(q.shape)


def monolithic_classical_counts(s, use_key, trials, seed):
    """Reference counts over the cells (j, k) of probability p_j / 2, folded per trial."""
    cum = np.cumsum(np.repeat(s.probabilities.reshape(-1) / 2, 2))
    cum[-1] = 1.0
    u = np.random.Generator(np.random.Philox(key=seed)).random(trials)
    cell = np.searchsorted(cum[:-1], u, side="right")
    joint, k = cell >> 1, cell & 1
    received = (joint >> 1) ^ k
    decoded = received ^ (joint & 1) if use_key else received
    return np.bincount(k * 2 + decoded, minlength=4).reshape(2, 2)


QUANTUM_CASES = {
    "bell": (bell_state(), CANONICAL, BellDecoder()),
    "single-x": (werner_state(0.6), CANONICAL, SingleParticleDecoder("x")),
    "weyl3-skewed": (max_entangled_state(3), WEYL3_SKEWED, SingleParticleDecoder("z")),
    # 1,000 joint cells with thresholds k/1,000: most buckets are whole, the rest fall back
    "weyl10": (max_entangled_state(10), weyl_set(10), SingleParticleDecoder("z")),
}
CLASSICAL_CASES = {
    "keyed": (ClassicalJointState.maximally_correlated(), True),
    "no-key-skewed": (SKEWED_JOINT, False),
}


def sampled_counts(case, trials, seed):
    if case in QUANTUM_CASES:
        return run_quantum_dense(*QUANTUM_CASES[case], trials, seed).joint_counts
    return run_classical_dense(*CLASSICAL_CASES[case], trials, seed).joint_counts


def reference_counts(case, trials, seed):
    if case in QUANTUM_CASES:
        return monolithic_quantum_counts(*QUANTUM_CASES[case], trials, seed)
    return monolithic_classical_counts(*CLASSICAL_CASES[case], trials, seed)


ALL_CASES = [*QUANTUM_CASES, *CLASSICAL_CASES]


class TestBlockedSampler:
    @pytest.mark.parametrize("case", ALL_CASES)
    def test_partition_invariance(self, case, monkeypatch):
        tables = []
        for block in (1, 7, 16_384, 65_536):
            monkeypatch.setattr(protosim, "_BLOCK_TRIALS", block)
            tables.append(sampled_counts(case, 3_001, 17))
        assert all(np.array_equal(tables[0], t) for t in tables[1:])
        assert tables[0].sum() == 3_001

    @pytest.mark.parametrize("trials", [1, 16_383, 16_384, 16_385, 65_535, 65_536, 65_537, 200_003])
    @pytest.mark.parametrize("case", ALL_CASES)
    def test_equals_monolithic_sampler(self, case, trials):
        assert np.array_equal(sampled_counts(case, trials, 23), reference_counts(case, trials, 23))

    def test_zero_prior_message_never_sampled(self):
        counts = sampled_counts("weyl3-skewed", 50_000, 4)
        assert counts[2].sum() == 0
        assert np.all(counts.sum(axis=1)[np.array(WEYL3_SKEWED.prior) > 0] > 0)

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
        # one block's words and index buffers: 0.52 MB traced; 0.92 MB with two words
        # per trial, 2.54 MB with two words per trial and 65,536-trial blocks
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


# cumulative thresholds: multiples of 1/256 lie on every bucket edge (b >= 8
# whenever there is a threshold), their neighbours one ulp away lie just
# inside a bucket, 1 + 2**-52 is a cumulative sum that rounded above 1, and
# a small pool of values makes repeated thresholds (zero probabilities) likely
THRESHOLDS = st.one_of(
    st.integers(0, 256).map(lambda k: k / 256),
    st.integers(1, 255).map(lambda k: float(np.nextafter(k / 256, 0.0))),
    st.integers(1, 255).map(lambda k: float(np.nextafter(k / 256, 1.0))),
    st.floats(0.0, 1.0),
    st.sampled_from([0.1, 0.3, 0.7, 1.0, 1.0 + 2**-52]),
)


def monolithic_kernel_counts(cum, trials, seed):
    """Unblocked reference sampler: one variate per trial, cell #{cum[:-1] <= u}."""
    u = np.random.Generator(np.random.Philox(key=seed)).random(trials)
    return np.bincount(np.searchsorted(cum[:-1], u, side="right"), minlength=cum.size)


class TestGuideTableSampler:
    def test_fallback_counts_ties_like_searchsorted(self, monkeypatch):
        rng = np.random.default_rng(8)
        cum = np.append(np.sort(rng.random(9)), 1.0)
        # words whose variate (w >> 11) * 2**-53 equals a threshold, the top word of
        # that variate, the variate one step below it, and random words
        on = (cum[:-1] * 2.0**53).astype(np.uint64) << np.uint64(11)
        words = np.concatenate(
            [on, on + np.uint64(2**11 - 1), on - np.uint64(2**11), rng.integers(0, 2**64, 50, dtype=np.uint64)]
        )
        want = np.searchsorted(cum[:-1], (words >> np.uint64(11)) * 2.0**-53, side="right")
        assert np.all(want[:9] == np.arange(1, 10))
        # 10 cells give 2**11 buckets; each threshold splits its bucket, so these words fall back
        assert np.all(protosim._guide_table(cum, 11)[on >> np.uint64(53)] < 0)

        def sampled(chunk):  # the kernel on a stream that hands out `chunk`
            monkeypatch.setattr(np.random, "Philox", lambda key: SimpleNamespace(random_raw=lambda n: chunk[:n].copy()))
            return protosim._sample_counts(cum, chunk.size, 0)

        assert all(sampled(words[i : i + 1])[cell] == 1 for i, cell in enumerate(want))
        assert np.array_equal(sampled(words), np.bincount(want, minlength=cum.size))

    def test_large_alphabet_within_table_budget(self):
        # 15,000 cells: the table stops at 2**18 entries, and up to 6% of trials fall back
        rng = np.random.default_rng(5)
        cum = np.append(np.sort(rng.random(14_999)), 1.0)
        tracemalloc.start()
        try:
            got = protosim._sample_counts(cum, 70_000, 9)
            peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, monolithic_kernel_counts(cum, 70_000, 9))
        assert peak_mb < 16.0

    @settings(max_examples=80, deadline=None, database=None)
    @given(
        n=st.integers(1, 1_200),
        seed=st.integers(0, 2**128 - 1),
        trials=st.integers(1, 20_000),
        data=st.data(),
    )
    def test_tables_equal_monolithic(self, n, seed, trials, data):
        # up to 150 thresholds drawn here and the rest uniform from the seed: drawing all
        # of a table near the 2**18 cap (n > 1,025) here took up to 0.25 s per example
        k = min(n - 1, 150)
        drawn = data.draw(st.lists(THRESHOLDS, min_size=k, max_size=k), label="thresholds")
        bulk = np.random.default_rng(seed).random(n - 1 - k)
        cum = np.append(np.sort(np.concatenate([drawn, bulk])), 1.0)
        assert np.array_equal(protosim._sample_counts(cum, trials, seed), monolithic_kernel_counts(cum, trials, seed))

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        d=st.integers(2, 10),
        seed=st.integers(0, 2**63 - 1),
        trials=st.integers(1, 20_000),
        data=st.data(),
    )
    def test_quantum_equals_monolithic(self, d, seed, trials, data):
        weights = data.draw(
            st.lists(st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.0 / 3]), min_size=d * d, max_size=d * d)
        )
        prior = np.array(weights) + (sum(weights) == 0.0)  # all zero: uniform
        e = EncodingEnsemble(d, weyl_set(d).unitaries, prior / prior.sum())
        if data.draw(st.booleans(), label="maximally entangled"):
            s = max_entangled_state(d)
        else:
            s = random_bipartite_state((d, 2), np.random.default_rng(seed))
        decoder = SingleParticleDecoder("z")
        got = run_quantum_dense(s, e, decoder, trials, seed).joint_counts
        assert np.array_equal(got, monolithic_quantum_counts(s, e, decoder, trials, seed))

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        cells=st.lists(st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.1, 0.3, 0.6]), min_size=4, max_size=4),
        use_key=st.booleans(),
        seed=st.integers(0, 2**128 - 1),
        trials=st.integers(1, 20_000),
    )
    def test_classical_equals_monolithic(self, cells, use_key, seed, trials):
        p = np.array(cells) + (sum(cells) == 0.0)  # all zero: uniform
        joint = ClassicalJointState((p / p.sum()).reshape(2, 2))
        got = run_classical_dense(joint, use_key, trials, seed).joint_counts
        assert np.array_equal(got, monolithic_classical_counts(joint, use_key, trials, seed))
