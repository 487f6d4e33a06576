import numpy as np
import pytest

from densecap import (
    DenseCapError,
    EncodingEnsemble,
    FrameNotOrthonormal,
    InvalidDimension,
    InvalidEnsemble,
    OperatorBasis,
    OrthonormalFrame,
    ParseError,
    antipodal_pair,
    canonical_qubit_set,
    ensemble_from_json,
    ensemble_to_json,
    from_bloch,
    gellmann_basis,
    lift_ensemble,
    verify_orthogonality,
    weyl_set,
)
from densecap.qstate import PAULI_X, PAULI_Y, PAULI_Z
from densecap.sampling import (
    random_density_matrix,
    random_orthonormal_frame,
    random_unitary,
)


def gram_oracle(unitaries):
    """Explicit double-loop trace computation."""
    n = len(unitaries)
    g = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            g[a, b] = np.trace(unitaries[a].conj().T @ unitaries[b])
    return g


def standard_gellmann_3():
    """The eight standard 3x3 traceless Hermitian matrices, Tr L^2 = 2."""
    l1 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
    l2 = np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]])
    l3 = np.diag([1.0, -1.0, 0.0]).astype(complex)
    l4 = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex)
    l5 = np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]])
    l6 = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
    l7 = np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]])
    l8 = np.diag([1.0, 1.0, -2.0]).astype(complex) / np.sqrt(3)
    return [l1, l2, l3, l4, l5, l6, l7, l8]


class TestFrame:
    def test_standard_frame(self):
        f = OrthonormalFrame.standard()
        assert np.allclose(f.rows(), np.eye(3))

    def test_rejects_skewed_frame(self):
        with pytest.raises(FrameNotOrthonormal):
            OrthonormalFrame([1, 0, 0], [0.5, 0.5, 0], [0, 0, 1])

    def test_completeness(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            f = random_orthonormal_frame(rng)
            rows = f.rows()
            assert np.max(np.abs(rows @ rows.T - np.eye(3))) < 1e-12
            outer = sum(np.outer(n, n) for n in rows)
            assert np.max(np.abs(outer - np.eye(3))) < 1e-12


class TestCanonicalSet:
    def test_standard_axes_give_paulis(self):
        e = canonical_qubit_set(OrthonormalFrame.standard())
        for got, want in zip(e.unitaries, [np.eye(2), PAULI_X, PAULI_Y, PAULI_Z]):
            assert np.allclose(got, want)
        assert np.allclose(e.prior, 0.25)

    def test_rotated_frame_trace_orthogonality(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            e = canonical_qubit_set(random_orthonormal_frame(rng))
            gram = gram_oracle(e.unitaries)
            assert np.max(np.abs(gram - 2.0 * np.eye(4))) < 1e-12

    def test_unitaries_hermitian_and_unimodular(self):
        rng = np.random.default_rng(2)
        e = canonical_qubit_set(random_orthonormal_frame(rng))
        for u in e.unitaries:
            assert np.max(np.abs(u - u.conj().T)) < 1e-12
            assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-12

    def test_frame_twirl_reaches_total_mixture(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            e = canonical_qubit_set(random_orthonormal_frame(rng))
            rho = random_density_matrix(2, rng).matrix
            avg = sum(p * u @ rho @ u.conj().T for p, u in zip(e.prior, e.unitaries))
            assert np.linalg.norm(avg - np.eye(2) / 2) < 1e-12

    def test_operator_twirl_annihilates_paulis(self):
        rng = np.random.default_rng(4)
        e = canonical_qubit_set(random_orthonormal_frame(rng))
        for sigma in (PAULI_X, PAULI_Y, PAULI_Z):
            out = sum(p * u @ sigma @ u.conj().T for p, u in zip(e.prior, e.unitaries))
            assert np.max(np.abs(out)) < 1e-12


class TestAntipodalPair:
    def test_north_pole_becomes_south_pole(self):
        e = antipodal_pair((0, 0, 1))
        u = e.unitaries[1]
        flipped = u @ from_bloch((0, 0, 1)).matrix @ u.conj().T
        assert np.allclose(flipped, np.diag([0.0, 1.0]), atol=1e-12)
        assert np.allclose(e.prior, [0.5, 0.5])

    def test_x_axis_flip_matches_sigma_z_conjugation(self):
        # conjugating (1 + 0.6 sx)/2 by sz flips the x component
        rho = from_bloch((0.6, 0, 0)).matrix
        expected = PAULI_Z @ rho @ PAULI_Z
        e = antipodal_pair((1, 0, 0))
        u = e.unitaries[1]
        assert np.allclose(u @ rho @ u.conj().T, expected, atol=1e-12)

    def test_average_is_total_mixture(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            v = rng.uniform(-1, 1, 3)
            v *= rng.uniform(0.05, 1) / np.linalg.norm(v)
            e = antipodal_pair(tuple(v))
            rho = from_bloch(tuple(v)).matrix
            u = e.unitaries[1]
            avg = 0.5 * rho + 0.5 * (u @ rho @ u.conj().T)
            assert np.linalg.norm(avg - np.eye(2) / 2) < 1e-12

    def test_zero_vector_falls_back_to_not_gate(self):
        e = antipodal_pair((0.0, 0.0, 0.0))
        assert np.allclose(e.unitaries[0], np.eye(2))
        assert np.allclose(e.unitaries[1], PAULI_X)


class TestGellmann:
    def test_d2_is_pauli_in_xyz_order(self):
        basis = gellmann_basis(2)
        for got, want in zip(basis.lambdas, (PAULI_X, PAULI_Y, PAULI_Z)):
            assert np.allclose(got, want)

    def test_d3_matches_rescaled_standard_set(self):
        mine = gellmann_basis(3).lambdas
        standard = [np.sqrt(1.5) * m for m in standard_gellmann_3()]
        # same set up to ordering
        matched = set()
        for lam in mine:
            hits = [i for i, s in enumerate(standard) if np.allclose(lam, s, atol=1e-14)]
            assert len(hits) == 1
            matched.add(hits[0])
        assert matched == set(range(8))

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_count_traceless_orthogonal(self, d):
        basis = gellmann_basis(d)
        assert len(basis.lambdas) == d * d - 1
        for lam in basis.lambdas:
            assert abs(np.trace(lam)) < 1e-14
        stack = np.stack(basis.lambdas)
        gram = np.einsum("aij,bji->ab", stack, stack)
        assert np.max(np.abs(gram - d * np.eye(d * d - 1))) < 1e-12

    def test_invalid_dimension(self):
        with pytest.raises(InvalidDimension):
            gellmann_basis(1)

    @pytest.mark.parametrize(
        "d,lambdas",
        [(2, (PAULI_X, PAULI_Y)), (3, gellmann_basis(3).lambdas[:5])],
        ids=["pauli_xy", "gellmann3_first5"],
    )
    def test_incomplete_basis_rejected(self, d, lambdas):
        # orthogonal and traceless, but d^2 - 1 elements are needed
        with pytest.raises(ValueError, match="d\\^2 - 1"):
            OperatorBasis(d, lambdas)


@pytest.mark.parametrize("build,field", [(gellmann_basis, "lambdas"), (weyl_set, "unitaries")])
def test_cached_and_read_only(build, field):
    first = build(3)
    assert build(3) is first
    for m in getattr(first, field):
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 0.0


@pytest.mark.parametrize(
    "family,shape",
    [
        (lambda: weyl_set(3).unitaries, (9, 3, 3)),
        (lambda: gellmann_basis(3).lambdas, (8, 3, 3)),
        (lambda: canonical_qubit_set(OrthonormalFrame.standard()).unitaries, (4, 2, 2)),
        (lambda: lift_ensemble(weyl_set(2), 3, "b").unitaries, (4, 6, 6)),
    ],
    ids=["weyl", "gellmann", "qubit_set", "lift"],
)
def test_families_are_read_only_stacks(family, shape):
    stack = family()
    assert isinstance(stack, np.ndarray) and stack.shape == shape
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 0.0


def test_ensemble_copies_the_callers_stack():
    us = np.stack([np.eye(2, dtype=complex), PAULI_X])
    e = EncodingEnsemble(2, us, np.array([0.5, 0.5]))
    assert us.flags.writeable and not np.shares_memory(us, e.unitaries)


class TestWeylSet:
    def test_d2_equals_paulis_up_to_phase(self):
        e = weyl_set(2)
        paulis = [np.eye(2), PAULI_X, PAULI_Y, PAULI_Z]
        for u in e.unitaries:
            overlaps = [abs(np.trace(p.conj().T @ u)) for p in paulis]
            assert max(overlaps) == pytest.approx(2.0, abs=1e-12)

    def test_d3_gram_by_direct_computation(self):
        e = weyl_set(3)
        assert len(e.unitaries) == 9
        gram = gram_oracle(e.unitaries)
        assert np.max(np.abs(gram - 3.0 * np.eye(9))) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_unimodular_and_orthogonal(self, d):
        e = weyl_set(d)
        assert len(e.unitaries) == d * d
        for u in e.unitaries:
            assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-11
        _, ok = verify_orthogonality(e)
        assert ok

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_qudit_twirl(self, d):
        rng = np.random.default_rng(d)
        stack = np.stack(weyl_set(d).unitaries)
        for _ in range(20):
            rho = random_density_matrix(d, rng).matrix
            avg = np.einsum("aij,jk,alk->il", stack, rho, stack.conj()) / (d * d)
            assert np.linalg.norm(avg - np.eye(d) / d) < 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_basis_twirl_vanishes(self, d):
        # sum_a U_a L U_a^dag = 0 for every traceless basis element
        stack = np.stack(weyl_set(d).unitaries)
        for lam in gellmann_basis(d).lambdas:
            xi = np.einsum("aij,jk,alk->il", stack, lam, stack.conj())
            assert np.max(np.abs(xi)) < 1e-11

    def test_invalid_dimension(self):
        with pytest.raises(InvalidDimension):
            weyl_set(1)


class TestNoLocalOrthogonalExtension:
    def test_product_form_gram_is_twice_local_trace(self):
        e = weyl_set(2)
        lifted = lift_ensemble(e, 2, side="a")
        local = gram_oracle(e.unitaries)
        joint = gram_oracle(lifted.unitaries)
        assert np.allclose(joint, 2.0 * local, atol=1e-12)

    def test_no_fifth_orthogonal_unitary(self):
        # the four canonical unitaries span the 2x2 operator space, so any
        # further unitary overlaps one of them with |Tr| >= 1
        rng = np.random.default_rng(6)
        basis = canonical_qubit_set(OrthonormalFrame.standard()).unitaries
        for _ in range(100):
            u = random_unitary(2, rng)
            coeffs = np.array([np.trace(b.conj().T @ u) / 2.0 for b in basis])
            assert np.sum(np.abs(coeffs) ** 2) == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(2.0 * coeffs)) >= 1.0 - 1e-12


class TestVerifyOrthogonality:
    def test_canonical_set_passes(self):
        gram, ok = verify_orthogonality(canonical_qubit_set(OrthonormalFrame.standard()))
        assert ok
        assert np.allclose(gram, np.eye(4), atol=1e-12)

    def test_degenerate_ensemble_fails(self):
        e = EncodingEnsemble(2, (np.eye(2), np.eye(2)), np.array([0.5, 0.5]))
        gram, ok = verify_orthogonality(e)
        assert not ok
        assert np.allclose(gram, np.ones((2, 2)))

    def test_weyl_5(self):
        gram, ok = verify_orthogonality(weyl_set(5))
        assert ok
        assert np.max(np.abs(gram - np.eye(25))) < 1e-12


class TestEnsemble:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            EncodingEnsemble(2, (np.array([[1.0, 0], [0, 0.5]]),), np.array([1.0]))

    @pytest.mark.parametrize("d", [1, 0])
    def test_rejects_dimension_below_two(self, d):
        with pytest.raises(InvalidDimension):
            EncodingEnsemble(d, (np.eye(max(d, 1)),), np.array([1.0]))

    def test_rejects_bad_prior(self):
        with pytest.raises(ValueError):
            EncodingEnsemble(2, (np.eye(2),), np.array([0.5]))
        with pytest.raises(ValueError):
            EncodingEnsemble(2, (np.eye(2), PAULI_X), np.array([1.5, -0.5]))

    def test_invalid_ensemble_is_a_toolkit_error(self):
        with pytest.raises(InvalidEnsemble):
            EncodingEnsemble(2, (np.full((2, 2), np.nan),), np.array([1.0]))
        with pytest.raises(InvalidEnsemble):
            EncodingEnsemble(2, (np.eye(2),), np.array([np.nan]))
        assert issubclass(InvalidEnsemble, DenseCapError)

    def test_non_unitary_error_names_the_matrix(self):
        us = (np.eye(2), PAULI_X, np.array([[1.0, 0], [0, 0.5]]), PAULI_Z)
        with pytest.raises(InvalidEnsemble, match="matrix 2 is not unitary"):
            EncodingEnsemble(2, us, np.full(4, 0.25))

    def test_lift_acts_on_chosen_side(self):
        e = antipodal_pair((0, 0, 1))
        left = lift_ensemble(e, 3, side="a")
        right = lift_ensemble(e, 3, side="b")
        assert left.dim == right.dim == 6
        for u, l, r in zip(e.unitaries, left.unitaries, right.unitaries):
            assert np.array_equal(l, np.kron(u, np.eye(3)))
            assert np.array_equal(r, np.kron(np.eye(3), u))

    def test_json_round_trip(self):
        e = weyl_set(3)
        back = ensemble_from_json(ensemble_to_json(e))
        assert back.dim == 3
        for a, b in zip(back.unitaries, e.unitaries):
            assert np.allclose(a, b, atol=1e-15)
        assert np.allclose(back.prior, e.prior)

    def test_json_parse_error(self):
        with pytest.raises(ParseError):
            ensemble_from_json({"dim": 2})
        with pytest.raises(ParseError):
            ensemble_from_json({"dim": 2, "unitaries": [[[1, 0], [0, 1]]]})
        with pytest.raises(ParseError):
            ensemble_from_json({"dim": 2, "unitaries": []})

    # int() truncates 2.5 to 2, np.asarray reads true as 1, float() reads "0.25" as 0.25 and None as NaN,
    # and reshape flattens a nested prior: none is an ensemble
    @pytest.mark.parametrize(
        "change",
        [
            {"dim": 2.5},
            {"dim": True, "unitaries": [[[[1, 0]]]]},
            {"prior": [[0.25, 0.25], [0.25, 0.25]]},
            {"prior": [True, False, False, False]},
            {"prior": ["0.25"] * 4},
            {"prior": [None] * 4},
            {"unitaries": [[[["1", 0], [0, 0]], [[0, 0], [1, 0]]]], "prior": [1]},
            {"unitaries": [[[[1, 0], [0, None]], [[0, 0], [1, 0]]]], "prior": [1]},
        ],
        ids=["dim-2.5", "dim-true", "nested-prior", "boolean-prior", "string-prior", "null-prior", "string-entry",
             "null-entry"],
    )
    def test_json_non_numbers_rejected(self, change):
        with pytest.raises(ParseError):
            ensemble_from_json({**ensemble_to_json(weyl_set(2)), **change})
