"""Property-based tests (hypothesis) of the toolkit's invariants."""

import math
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from densecap import (  # noqa: E402
    BellDecoder,
    ClassicalJointState,
    OrthonormalFrame,
    SingleParticleDecoder,
    canonical_qubit_set,
    dense_capacity,
    max_entangled_state,
    mutual_information,
    normal_capacity,
    protosim,
    run_classical_dense,
    run_quantum_dense,
    von_neumann_entropy,
    weyl_set,
    werner_state,
)
from densecap.encodings import EncodingEnsemble  # noqa: E402
from densecap.sampling import random_bipartite_state  # noqa: E402


# the residual tolerance of `densecap capacity` (--tol default) and `verify`
IDENTITY_TOL = 1e-9

CANONICAL = canonical_qubit_set(OrthonormalFrame.standard())
WEYL3_SKEWED = EncodingEnsemble(3, weyl_set(3).unitaries, [0.3, 0.1, 0.0, 0.05, 0.15, 0.1, 0.1, 0.15, 0.05])


def _simulate(case: str, trials: int, seed: int) -> np.ndarray:
    if case == "bell":
        return run_quantum_dense(werner_state(0.7), CANONICAL, BellDecoder(), trials, seed).joint_counts
    if case == "weyl3":
        s = max_entangled_state(3)
        return run_quantum_dense(s, WEYL3_SKEWED, SingleParticleDecoder("z"), trials, seed).joint_counts
    joint = ClassicalJointState(np.array([[0.6, 0.25], [0.0, 0.15]]))
    return run_classical_dense(joint, case == "classical-keyed", trials, seed).joint_counts


@settings(max_examples=40, deadline=None, database=None)
@given(
    case=st.sampled_from(["bell", "weyl3", "classical-keyed", "classical-raw"]),
    seed=st.integers(min_value=0, max_value=2**63 - 1),
    trials=st.integers(min_value=1, max_value=5_000),
    block=st.integers(min_value=1, max_value=6_000),
)
def test_block_partition_invariance(case, seed, trials, block):
    whole = _simulate(case, trials, seed)
    with mock.patch.object(protosim, "_BLOCK_TRIALS", block):
        blocked = _simulate(case, trials, seed)
    assert np.array_equal(whole, blocked)
    assert blocked.sum() == trials


@settings(max_examples=60, deadline=None, database=None)
@given(
    d_a=st.integers(min_value=2, max_value=4),
    d_b=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**63 - 1),
    data=st.data(),
)
def test_capacity_identities_on_every_split(d_a, d_b, seed, data):
    rank = data.draw(st.integers(min_value=1, max_value=d_a * d_b), label="rank")
    s = random_bipartite_state((d_a, d_b), np.random.default_rng(seed), rank=rank)
    s_a, s_b = von_neumann_entropy(s.reduced_a), von_neumann_entropy(s.reduced_b)
    c_ab, c_ba = dense_capacity(s, "a2b"), dense_capacity(s, "b2a")
    mi = mutual_information(s)
    # difference identity: C_dense - C_normal(sender) = I(A:B) in both directions
    assert abs(c_ab - normal_capacity(s.reduced_a) - mi) < IDENTITY_TOL
    assert abs(c_ba - normal_capacity(s.reduced_b) - mi) < IDENTITY_TOL
    # asymmetry identity: C(A->B) - C(B->A) = log2 d_A - log2 d_B + S(B) - S(A)
    assert abs((c_ab - c_ba) - (math.log2(d_a) - math.log2(d_b) + s_b - s_a)) < IDENTITY_TOL
