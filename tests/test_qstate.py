import math
import os
import subprocess
import sys

import numpy as np
import pytest

import densecap
from densecap import (
    BipartiteState,
    BlochNormExceeded,
    BlochVector,
    DensityMatrix,
    DimensionMismatch,
    InvalidDimension,
    InvalidState,
    ParseError,
    bell_state,
    correlation_decompose,
    correlation_reconstruct,
    from_bloch,
    max_entangled_state,
    partial_trace,
    pure_state,
    state_from_json,
    state_to_json,
    tensor,
    to_bloch,
    von_neumann_entropy,
    werner_state,
)
from densecap.qstate import (
    _gamma_arrays,
    _kron,
    _partial_trace_array,
    _reconstruct_arrays,
    _term_tables,
    gellmann_basis,
)
from densecap.sampling import (
    random_bipartite_state,
    random_density_matrix,
    random_unitary,
)


def partial_trace_oracle(m: np.ndarray, d_a: int, d_b: int, keep: str) -> np.ndarray:
    """Direct four-index summation, independent of the reshape route."""
    if keep == "A":
        out = np.zeros((d_a, d_a), dtype=complex)
        for i in range(d_a):
            for j in range(d_a):
                out[i, j] = sum(m[i * d_b + b, j * d_b + b] for b in range(d_b))
    else:
        out = np.zeros((d_b, d_b), dtype=complex)
        for i in range(d_b):
            for j in range(d_b):
                out[i, j] = sum(m[a * d_b + i, a * d_b + j] for a in range(d_a))
    return out


def scalar_entropy(eigs) -> float:
    return -sum(x * math.log2(x) for x in eigs if x > 0)


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidState):
            DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidState):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InvalidState):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_accepts_tiny_negative_eigenvalue(self):
        m = DensityMatrix(np.diag([1.0 + 5e-11, -5e-11]))
        assert m.eigenvalues()[0] == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(InvalidState):
            DensityMatrix(m)

    def test_matrix_is_read_only(self):
        m = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError):
            m.matrix[0, 0] = 1.0

    def test_spectrum_cached_and_read_only(self, monkeypatch):
        m = DensityMatrix(np.diag([0.75, 0.25]))

        def no_eig(*args, **kwargs):
            raise AssertionError("spectrum recomputed")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eig)
        assert m.eigenvalues().tolist() == [0.25, 0.75]
        assert von_neumann_entropy(m) == pytest.approx(scalar_entropy([0.25, 0.75]), abs=1e-15)
        with pytest.raises(ValueError):
            m.eigenvalues()[0] = 1.0


class TestValidatedSpectra:
    """The batched checks behind DensityMatrix, one bad matrix in a stack."""

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([[0.5, np.nan], [np.nan, 0.5]]),
            np.array([[0.5, 0.1], [0.3, 0.5]]),
            np.eye(2),
            np.diag([1.5, -0.5]),
        ],
        ids=["non-finite", "non-hermitian", "trace", "negative"],
    )
    def test_each_check_fires_inside_a_stack(self, bad):
        from densecap.qstate import _validated_spectra

        with pytest.raises(InvalidState) as single:
            DensityMatrix(bad)
        stack = np.stack([np.eye(2) / 2, bad.astype(complex), np.diag([1.0, 0.0])])
        with pytest.raises(InvalidState) as batched:
            _validated_spectra(stack)
        assert str(batched.value) == str(single.value)

    def test_spectra_match_density_matrix(self):
        from densecap.qstate import _validated_spectra

        rng = np.random.default_rng(11)
        mats = [random_density_matrix(3, rng).matrix for _ in range(6)]
        mats.append(np.diag([1.0 + 5e-11, -5e-11, 0.0]))
        spectra = _validated_spectra(np.stack(mats))
        for m, row in zip(mats, spectra):
            assert np.array_equal(row, DensityMatrix(m).eigenvalues())

    @pytest.mark.parametrize("d", [2, 4, 9, 10])
    def test_batched_entropies_match_bitwise(self, d):
        from densecap.qstate import _spectrum_entropies, _spectrum_entropy

        rng = np.random.default_rng(d)
        eigs = np.sort(rng.dirichlet(np.ones(d), size=200), axis=1)
        eigs[::3, : d // 2] = 0.0
        eigs[1::5, 0] = 0.0
        batched = _spectrum_entropies(eigs)
        single = np.array([_spectrum_entropy(row) for row in eigs])
        assert np.array_equal(batched.view(np.int64), single.view(np.int64))


class TestBloch:
    def test_total_mixture(self):
        assert np.allclose(from_bloch((0, 0, 0)).matrix, np.eye(2) / 2)

    def test_north_pole(self):
        assert np.allclose(from_bloch((0, 0, 1)).matrix, np.diag([1.0, 0.0]))

    def test_x_axis_by_hand(self):
        # (1 + 0.6 sx) / 2 expanded entrywise
        expected = np.array([[0.5, 0.3], [0.3, 0.5]])
        assert np.allclose(from_bloch((0.6, 0, 0)).matrix, expected, atol=1e-15)

    def test_norm_exceeded(self):
        with pytest.raises(BlochNormExceeded):
            from_bloch((0.8, 0.8, 0.8))
        with pytest.raises(BlochNormExceeded):
            BlochVector(1.0 + 1e-6, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_components_rejected(self, bad):
        with pytest.raises(InvalidState):
            BlochVector(bad, 0.0, 0.0)
        with pytest.raises(InvalidState):
            from_bloch((0.0, 0.0, bad))

    def test_round_trip_on_unit_ball(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            v = rng.uniform(-1, 1, 3)
            v *= rng.uniform(0, 1) / np.linalg.norm(v)
            back = to_bloch(from_bloch(tuple(v)))
            assert np.allclose(back.as_array(), v, atol=1e-12)

    def test_to_bloch_rejects_qudit(self):
        with pytest.raises(DimensionMismatch):
            to_bloch(random_density_matrix(3, np.random.default_rng(0)))


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        rho_a = partial_trace(bell_state().joint, (2, 2), "A")
        assert np.allclose(rho_a.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_recovers_factor(self):
        rng = np.random.default_rng(3)
        a = random_density_matrix(2, rng)
        b = random_density_matrix(3, rng)
        joint = tensor(a, b)
        assert np.allclose(partial_trace(joint, (2, 3), "A").matrix, a.matrix, atol=1e-12)
        assert np.allclose(partial_trace(joint, (2, 3), "B").matrix, b.matrix, atol=1e-12)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
    def test_matches_index_contraction_oracle(self, dims):
        rng = np.random.default_rng(dims[0] * 10 + dims[1])
        for _ in range(20):
            s = random_density_matrix(dims[0] * dims[1], rng)
            for keep in ("A", "B"):
                expected = partial_trace_oracle(s.matrix, dims[0], dims[1], keep)
                assert np.allclose(partial_trace(s, dims, keep).matrix, expected, atol=1e-13)

    def test_trace_preserved(self):
        rng = np.random.default_rng(4)
        s = random_density_matrix(6, rng)
        reduced = partial_trace(s, (2, 3), "B")
        assert abs(np.trace(reduced.matrix) - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            partial_trace(random_density_matrix(6, np.random.default_rng(0)), (2, 2), "A")


class TestEntropy:
    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(DensityMatrix(np.eye(2) / 2)) == pytest.approx(1.0, abs=1e-12)

    def test_pure_state(self):
        assert von_neumann_entropy(from_bloch((0, 0, 1))) == pytest.approx(0.0, abs=1e-12)

    def test_werner_half_by_hand(self):
        # eigenvalues (1 + 3p)/4 and three copies of (1 - p)/4 at p = 1/2
        expected = scalar_entropy([5 / 8, 1 / 8, 1 / 8, 1 / 8])
        assert expected == pytest.approx(1.548795, abs=1e-6)
        assert von_neumann_entropy(werner_state(0.5).joint) == pytest.approx(expected, abs=1e-12)

    def test_entropy_in_range(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 4):
            for _ in range(20):
                s = von_neumann_entropy(random_density_matrix(d, rng))
                assert -1e-12 <= s <= math.log2(d) + 1e-12

    def test_additivity(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            a = random_density_matrix(2, rng)
            b = random_density_matrix(3, rng)
            lhs = von_neumann_entropy(tensor(a, b))
            rhs = von_neumann_entropy(a) + von_neumann_entropy(b)
            assert abs(lhs - rhs) < 1e-10

    def test_unitary_invariance(self):
        rng = np.random.default_rng(7)
        for d in (2, 4):
            for _ in range(25):
                rho = random_density_matrix(d, rng)
                u = random_unitary(d, rng)
                rotated = DensityMatrix(u @ rho.matrix @ u.conj().T)
                assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) < 1e-10


class TestCorrelationTensor:
    def test_product_state_has_zero_gamma(self):
        rng = np.random.default_rng(8)
        s = BipartiteState.from_product(random_density_matrix(2, rng), random_density_matrix(2, rng))
        assert np.max(np.abs(correlation_decompose(s))) < 1e-14

    def test_bell_gamma_diagonal(self):
        # expand |psi+><psi+| = (1x1 + sx.sx - sy.sy + sz.sz)/4 by hand
        gamma = correlation_decompose(bell_state())
        assert np.allclose(gamma, np.diag([0.25, -0.25, 0.25]), atol=1e-14)

    def test_werner_gamma_scales_linearly(self):
        bell_gamma = correlation_decompose(bell_state())
        for p in (0.2, 0.5, 0.9):
            assert np.allclose(correlation_decompose(werner_state(p)), p * bell_gamma, atol=1e-13)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_reconstruction(self, dims):
        rng = np.random.default_rng(dims[0] + 10 * dims[1])
        for _ in range(10):
            s = random_bipartite_state(dims, rng)
            rebuilt = correlation_reconstruct(s)
            assert np.linalg.norm(rebuilt.matrix - s.joint.matrix) < 1e-10

    def test_reduced_states_consistent(self):
        rng = np.random.default_rng(9)
        s = random_bipartite_state((2, 3), rng)
        assert np.allclose(
            s.reduced_a.matrix, partial_trace_oracle(s.joint.matrix, 2, 3, "A"), atol=1e-12
        )
        assert np.allclose(
            s.reduced_b.matrix, partial_trace_oracle(s.joint.matrix, 2, 3, "B"), atol=1e-12
        )

    def test_bad_dims_rejected(self):
        with pytest.raises(DimensionMismatch):
            BipartiteState(random_density_matrix(6, np.random.default_rng(1)), (2, 2))

    @pytest.mark.parametrize("dims", [(1, 4), (4, 1), (-2, -2)])
    def test_factor_below_two_rejected(self, dims):
        with pytest.raises(InvalidDimension):
            BipartiteState(random_density_matrix(4, np.random.default_rng(1)), dims)


def einsum_gamma(joint, reduced_a, reduced_b):
    """The unoptimized three-operand einsum that gamma replaced, the bitwise reference."""
    d_a, d_b = reduced_a.shape[-1], reduced_b.shape[-1]
    basis_a, basis_b = gellmann_basis(d_a).lambdas, gellmann_basis(d_b).lambdas
    four = (joint - _kron(reduced_a, reduced_b)).reshape(*joint.shape[:-2], d_a, d_b, d_a, d_b)
    return np.real(np.einsum("cij,dkl,...jlik->...cd", basis_a, basis_b, four)) / (d_a * d_b)


def einsum_reconstruct(gamma, reduced_a, reduced_b):
    """The unoptimized three-operand einsum that the reconstruction replaced."""
    d_a, d_b = reduced_a.shape[-1], reduced_b.shape[-1]
    basis_a, basis_b = gellmann_basis(d_a).lambdas, gellmann_basis(d_b).lambdas
    corr = np.einsum("...cd,cij,dkl->...ikjl", gamma, basis_a, basis_b)
    return _kron(reduced_a, reduced_b) + corr.reshape(*gamma.shape[:-2], d_a * d_b, d_a * d_b)


def rank_r_states(rng, n: int, dim: int, rank: int) -> np.ndarray:
    g = rng.standard_normal((n, dim, rank)) + 1j * rng.standard_normal((n, dim, rank))
    m = g @ g.conj().transpose(0, 2, 1)
    return m / np.trace(m, axis1=1, axis2=2)[:, None, None]


class TestSparseCorrelationKernels:
    @pytest.mark.parametrize("d_b", range(2, 7))
    @pytest.mark.parametrize("d_a", range(2, 7))
    def test_bitwise_equal_to_einsum(self, d_a, d_b):
        rng = np.random.default_rng(100 * d_a + d_b)
        dim = d_a * d_b
        for rank in (1, 2, dim):
            joints = rank_r_states(rng, 5, dim, rank)
            reduced = [_partial_trace_array(joints, (d_a, d_b), side) for side in "AB"]
            for k in (slice(None), 0):  # the stack and one unbatched state
                j, r_a, r_b = joints[k], reduced[0][k], reduced[1][k]
                gamma = _gamma_arrays(j, r_a, r_b)
                assert np.array_equal(gamma, einsum_gamma(j, r_a, r_b))
                assert np.array_equal(_reconstruct_arrays(gamma, r_a, r_b), einsum_reconstruct(gamma, r_a, r_b))
            s = BipartiteState(DensityMatrix(joints[0]), (d_a, d_b))
            gamma = einsum_gamma(s.joint.matrix, s.reduced_a.matrix, s.reduced_b.matrix)
            assert np.array_equal(correlation_decompose(s), gamma)
            rebuilt = einsum_reconstruct(gamma, s.reduced_a.matrix, s.reduced_b.matrix)
            assert np.array_equal(correlation_reconstruct(s).matrix, rebuilt)

    def test_tables_built_once_per_split(self, monkeypatch):
        from densecap import qstate

        built = []

        def counted(d):
            built.append(d)
            return gellmann_basis(d)

        monkeypatch.setattr(qstate, "gellmann_basis", counted)
        _term_tables.cache_clear()
        rng = np.random.default_rng(3)
        for _ in range(3):
            s = random_bipartite_state((3, 4), rng)
            correlation_reconstruct(s)
        assert built == [3, 4]


class TestNamedStates:
    def test_bell_states_orthonormal(self):
        kets = [bell_state(k).joint.matrix for k in ("psi+", "psi-", "phi+", "phi-")]
        for i, a in enumerate(kets):
            for j, b in enumerate(kets):
                overlap = np.trace(a @ b).real
                assert overlap == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)

    def test_werner_range(self):
        with pytest.raises(InvalidState):
            werner_state(1.2)
        with pytest.raises(InvalidState):
            werner_state(-0.5)

    def test_werner_matrices_stack_matches_single_states(self):
        from densecap.qstate import werner_matrices

        ps = np.linspace(-1 / 3, 1.0, 7)
        stack = werner_matrices(ps)
        for p, m in zip(ps, stack):
            assert np.array_equal(m, werner_state(float(p)).joint.matrix)
        with pytest.raises(InvalidState, match="werner parameter 1.5 outside"):
            werner_matrices(np.array([0.0, 1.5, -0.5]))

    def test_werner_matrices_match_bell_state_mixture(self):
        from densecap.qstate import werner_matrices

        ps = np.concatenate([[-1 / 3, 0.0, 1.0], np.random.default_rng(5).uniform(-1 / 3, 1.0, 200)])
        p = ps[:, None, None]
        expected = p * bell_state().joint.matrix + (1.0 - p) * np.eye(4, dtype=complex) / 4.0
        assert np.array_equal(werner_matrices(ps), expected)

    def test_max_entangled_marginals(self):
        for d in (2, 3, 4):
            s = max_entangled_state(d)
            assert np.allclose(s.reduced_a.matrix, np.eye(d) / d, atol=1e-12)

    def test_pure_state_normalizes(self):
        s = pure_state(np.array([2.0, 0.0]))
        assert np.allclose(s.matrix, np.diag([1.0, 0.0]))


def test_import_builds_no_state():
    # a fresh process: importing the CLI, and running the body of every module it loads on
    # first use, makes no BLAS call such as np.linalg.norm
    script = (
        "import numpy.linalg\n"
        "calls = []\n"
        "norm = numpy.linalg.norm\n"
        "numpy.linalg.norm = lambda *a, **k: calls.append(1) or norm(*a, **k)\n"
        "import densecap.cli\n"
        "for module in ('capacity', 'encodings', 'entanglement', 'protosim', 'sampling'):\n"
        "    vars(getattr(densecap, module))\n"
        "print(len(calls))\n"
    )
    src = os.path.dirname(os.path.dirname(densecap.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "0\n"


# the maximally mixed 6-dim state in the JSON matrix form, with a "dims" split added by each row that uses it
MIXED6 = {"dim": 6, "matrix": np.stack([np.eye(6) / 6, np.zeros((6, 6))], -1).tolist()}


class TestJson:
    def test_matrix_round_trip(self):
        rng = np.random.default_rng(12)
        s = random_density_matrix(3, rng)
        back = state_from_json(state_to_json(s))
        assert isinstance(back, DensityMatrix)
        assert np.allclose(back.matrix, s.matrix, atol=1e-15)

    def test_bipartite_round_trip(self):
        s = BipartiteState(random_density_matrix(6, np.random.default_rng(13)), (2, 3))
        back = state_from_json(state_to_json(s))
        assert isinstance(back, BipartiteState) and back.dims == (2, 3)
        assert np.array_equal(back.joint.matrix, s.joint.matrix)

    @pytest.mark.parametrize("dims, error", [([2, 2], DimensionMismatch), ([1, 6], InvalidDimension)])
    def test_dims_that_do_not_split_the_matrix(self, dims, error):
        with pytest.raises(error):
            state_from_json({**MIXED6, "dims": dims})

    def test_bloch_form(self):
        s = state_from_json({"bloch": [0.6, 0.0, 0.0]})
        assert np.allclose(s.matrix, [[0.5, 0.3], [0.3, 0.5]])

    def test_tensor_form(self):
        obj = {"tensor": {"a": {"bloch": [0, 0, 1]}, "b": {"bloch": [0, 0, -1]}}}
        s = state_from_json(obj)
        assert isinstance(s, BipartiteState)
        assert np.allclose(s.joint.matrix, np.diag([0, 1.0, 0, 0]))

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            state_from_json({"bloch": [1, 2]})
        with pytest.raises(ParseError):
            state_from_json({"dim": 2, "matrix": [[1, 0], [0, 0]]})
        with pytest.raises(ParseError):
            state_from_json({"something": 1})
        with pytest.raises(ParseError):
            state_from_json([1, 2, 3])

    # np.asarray reads true as 1, float() reads "0.5" as 0.5 and None as NaN, and int() truncates 2.7
    # to 2, but none of these is a state
    @pytest.mark.parametrize(
        "obj",
        [
            {"bloch": [True, 0, 0]},
            {"dim": 2, "matrix": [[[True, 0], [0, 0]], [[0, 0], [False, 0]]]},
            {"dim": True, "matrix": [[[1, 0]]]},
            {"dim": 2.7, "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]},
            {"dim": "2", "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]},
            {"bloch": ["0.5", 0, 0]},
            {"bloch": [None, 0, 0]},
            {"bloch": [0.5j, 0, 0]},
            {"bloch": [np.bool_(True), 0, 0]},
            {"bloch": [10**400, 0, 0]},
            {"dim": 2, "matrix": [[["0.5", 0], [0, 0]], [[0, 0], [0.5, 0]]]},
            {"dim": 2, "matrix": [[[0.5, 0], [None, 0]], [[None, 0], [0.5, 0]]]},
            {**MIXED6, "dims": [2]},
            {**MIXED6, "dims": [2, 3.5]},
            {**MIXED6, "dims": "2,3"},
            {**MIXED6, "dims": [True, 6]},
            {"tensor": {"a": {"bloch": [0, 0, 1]}, "b": {**MIXED6, "dims": [2, 3]}}},
        ],
        ids=[
            "bloch-true", "matrix-boolean", "dim-true", "dim-2.7", "dim-string", "bloch-string", "bloch-null",
            "bloch-complex", "bloch-numpy-bool", "bloch-int-overflow", "matrix-string", "matrix-null",
            "dims-one", "dims-3.5", "dims-string", "dims-true", "tensor-factor-dims",
        ],
    )
    def test_non_numbers_rejected(self, obj):
        with pytest.raises(ParseError):
            state_from_json(obj)

    # library callers may pass numpy scalars: any real type but a boolean is a number
    @pytest.mark.parametrize("kind", [np.float64, np.float32, np.int64])
    def test_numpy_real_entries_accepted(self, kind):
        zero, one = kind(0), kind(1)
        matrix = [[[one, zero], [zero, zero]], [[zero, zero], [zero, zero]]]
        assert np.array_equal(state_from_json({"dim": 2, "matrix": matrix}).matrix, np.diag([1.0, 0.0]))
        assert np.array_equal(state_from_json({"bloch": [zero, zero, one]}).matrix, np.diag([1.0, 0.0]))

    def test_nested_tensor_rejected_without_recursion(self):
        obj = {"bloch": [0, 0, 1]}
        for _ in range(100_000):
            obj = {"tensor": {"a": obj, "b": {"bloch": [0, 0, 1]}}}
        with pytest.raises(ParseError, match="single-system"):
            state_from_json(obj)

    def test_whole_float_dim_accepted(self):
        s = state_from_json({"dim": 2.0, "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]})
        assert np.array_equal(s.matrix, np.eye(2) / 2)
