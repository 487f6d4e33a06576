"""Property-based tests (hypothesis) of the toolkit's invariants."""

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
    max_entangled_state,
    protosim,
    run_classical_dense,
    run_quantum_dense,
    weyl_set,
    werner_state,
)
from densecap.encodings import EncodingEnsemble  # noqa: E402


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
