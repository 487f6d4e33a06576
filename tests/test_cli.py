import json
import math
from pathlib import Path

import numpy as np
import pytest

from densecap import capacity as cap
from densecap import BipartiteState, ensemble_to_json, state_to_json, werner_state
from densecap.capacity import _averaged_states
from densecap.cli import _MODE_ONLY, load_state, main
from densecap.encodings import EncodingEnsemble, _qubit_set_stack, weyl_set
from densecap.qstate import PAULI_X, DensityMatrix, _kron
from densecap.sampling import _frame_rows, _random_states

# the 6x6 state of the cross_check_2x3 golden file
STATE_2X3 = str(Path(__file__).parent / "data" / "golden" / "state_2x3.json")


def mixed_state_json(dim: int, declared=None) -> dict:
    """The maximally mixed state of dimension dim in the JSON form, with "dim": declared if given."""
    m = np.eye(dim) / dim
    return {"dim": dim if declared is None else declared, "matrix": np.stack([m, 0 * m], -1).tolist()}


def identity_ensemble_json(dim: int, declared=None) -> dict:
    """The one-unitary ensemble {1} of dimension dim in the JSON form, with "dim": declared if given."""
    u = np.eye(dim)
    return {"dim": dim if declared is None else declared, "unitaries": [np.stack([u, 0 * u], -1).tolist()]}


# small input files of the size tests, by the word that names each in an argv
SIZE_FILES = {
    "@mixed20": mixed_state_json(20),
    "@mixed22": mixed_state_json(22),
    "@mixed22-split": {**mixed_state_json(22), "dims": [11, 2]},
    "@ensemble11": identity_ensemble_json(11),
    "@dim4.9": mixed_state_json(4, 4.9),
    "@dim2.7": mixed_state_json(2, 2.7),
    "@ensemble-dim2.7": identity_ensemble_json(2, 2.7),
}


def with_size_files(tmp_path, argv: list[str]) -> list[str]:
    """argv with each word of SIZE_FILES replaced by the path of a file that holds its JSON."""
    for word in set(argv) & set(SIZE_FILES):
        (tmp_path / f"{word[1:]}.json").write_text(json.dumps(SIZE_FILES[word]))
    return [str(tmp_path / f"{word[1:]}.json") if word in SIZE_FILES else word for word in argv]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


class TestCapacityCommand:
    def test_bell_state(self, capsys):
        code, payload = run_json(capsys, ["capacity", "--state", "bell"])
        assert code == 0
        assert payload["c_dense_ab"] == pytest.approx(2.0, abs=1e-9)
        assert payload["residual_ab"] < 1e-9
        assert payload["pass"] is True

    def test_werner_half_spot_values(self, capsys):
        code, payload = run_json(capsys, ["capacity", "--state", "werner:0.5"])
        assert code == 0
        assert payload["c_dense_ab"] == pytest.approx(0.451205, abs=1e-6)
        assert payload["mutual_info"] == pytest.approx(0.451205, abs=1e-6)

    def test_product_state_dense_equals_normal(self, capsys, tmp_path):
        obj = {"tensor": {"a": {"bloch": [0, 0, 1]}, "b": {"bloch": [0.3, 0, 0]}}}
        path = tmp_path / "prod.json"
        path.write_text(json.dumps(obj))
        code, payload = run_json(capsys, ["capacity", "--state", str(path)])
        assert code == 0
        assert payload["c_dense_ab"] == pytest.approx(payload["c_normal_a"], abs=1e-9)
        assert payload["mutual_info"] == pytest.approx(0.0, abs=1e-9)

    def test_single_qubit_reports_normal_capacity_only(self, capsys):
        code, payload = run_json(capsys, ["capacity", "--state", "bloch:0.6,0,0"])
        assert code == 0
        assert payload["c_normal"] == pytest.approx(0.278072, abs=1e-6)
        assert "c_dense_ab" not in payload

    def test_sweep_csv_row_count_and_monotonicity(self, capsys):
        code, out = run(capsys, [
            "capacity", "--state", "werner", "--sweep", "0:1:0.05", "--format", "csv",
        ])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "param,c_normal,c_dense_ab,c_dense_ba,mutual_info"
        assert len(lines) == 22  # header + 21 rows
        dense = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(b >= a - 1e-12 for a, b in zip(dense, dense[1:]))

    def test_cross_check_mode(self, capsys):
        code, payload = run_json(capsys, [
            "capacity", "--state", "werner:0.7", "--cross-check",
        ])
        assert code == 0
        assert payload["cross_check"]["difference"] < 1e-6
        assert payload["cross_check"]["converged"] is True

    def test_max_entangled_qutrits(self, capsys):
        code, payload = run_json(capsys, ["capacity", "--state", "max-entangled:3"])
        assert code == 0
        assert payload["c_dense_ab"] == pytest.approx(2 * math.log2(3), abs=1e-9)

    def test_dims_flag_splits_raw_matrix(self, capsys, tmp_path):
        s = werner_state(0.5)
        path = tmp_path / "w.json"
        obj = state_to_json(s.joint)
        path.write_text(json.dumps(obj))
        code, payload = run_json(capsys, ["capacity", "--state", str(path), "--dims", "2,2"])
        assert code == 0
        assert payload["dims"] == [2, 2]

    def test_unequal_split_cross_check_passes(self, capsys, tmp_path):
        from densecap.sampling import random_density_matrix

        path = tmp_path / "rho6.json"
        rho = random_density_matrix(6, np.random.default_rng(40))
        path.write_text(json.dumps(state_to_json(rho)))
        code, payload = run_json(capsys, [
            "capacity", "--state", str(path), "--dims", "2,3", "--cross-check",
        ])
        assert code == 0
        assert payload["asymmetry_residual"] < 1e-9
        assert payload["cross_check"]["difference"] < 1e-6

    def test_cross_check_b_to_a(self, capsys):
        code, payload = run_json(capsys, [
            "capacity", "--state", STATE_2X3, "--dims", "2,3", "--cross-check", "--direction", "b2a",
        ])
        assert code == 0 and payload["pass"] is True
        report = payload["cross_check"]
        assert report["direction"] == "b2a"
        assert report["difference"] < 1e-6
        assert report["chi"] == pytest.approx(payload["c_dense_ba"], abs=1e-6)

    def test_state_file_keeps_its_split(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state_to_json(BipartiteState(load_state(STATE_2X3), (2, 3)))))
        code, payload = run_json(capsys, ["capacity", "--state", str(path)])
        assert code == 0 and payload["pass"] is True and payload["dims"] == [2, 3]
        # --dims takes precedence over the file's split
        code, payload = run_json(capsys, ["capacity", "--state", str(path), "--dims", "3,2"])
        assert code == 0 and payload["dims"] == [3, 2]


class TestVerifyCommand:
    @pytest.mark.parametrize("d", [2, 3])
    def test_default_checks_pass(self, capsys, d):
        code, payload = run_json(capsys, [
            "verify", "--d", str(d), "--samples", "50", "--seed", "1",
        ])
        assert code == 0
        assert payload["pass"] is True
        names = {c["check"] for c in payload["checks"]}
        assert "weyl_twirl" in names and "difference_identity" in names
        if d == 2:
            assert "frame_twirl" in names

    def test_two_element_ensemble_fails_twirl(self, capsys, tmp_path):
        e = EncodingEnsemble(2, (np.eye(2, dtype=complex), PAULI_X), np.array([0.5, 0.5]))
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(ensemble_to_json(e)))
        code, payload = run_json(capsys, [
            "verify", "--samples", "100", "--ensemble", str(path),
        ])
        assert code == 1
        by_name = {c["check"]: c for c in payload["checks"]}
        assert by_name["ensemble_gram"]["pass"] is True
        assert by_name["ensemble_twirl"]["pass"] is False
        assert by_name["ensemble_twirl"]["max_residual"] > 0.1

    def test_weyl_ensemble_from_file_passes(self, capsys, tmp_path):
        from densecap import weyl_set

        path = tmp_path / "weyl3.json"
        path.write_text(json.dumps(ensemble_to_json(weyl_set(3))))
        code, payload = run_json(capsys, [
            "verify", "--ensemble", str(path), "--samples", "20",
        ])
        assert code == 0 and payload["pass"] is True
        assert payload["d"] == 3  # the ensemble's, not the --d default

    def test_rejects_bad_dimension(self, capsys):
        code = main(["verify", "--d", "9"])
        assert code == 3

    def test_csv_format(self, capsys):
        code, out = run(capsys, ["verify", "--d", "2", "--samples", "10", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "check,max_residual,tolerance,pass"
        assert all(line.endswith("True") for line in lines[1:])


def _reference_jsonable(value):
    # each float rounded to 12 significant digits, numpy values as Python ones
    if isinstance(value, (float, np.floating)):
        return float(f"{float(value):.12g}")
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        return _reference_jsonable(value.tolist())
    if isinstance(value, dict):
        return {k: _reference_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reference_jsonable(v) for v in value]
    return value


def reference_json(value) -> str:
    """The CLI's JSON text of value, through the standard library's encoder."""
    return json.dumps(_reference_jsonable(value), indent=2)


def reference_sweep(spec: str, fmt: str, tol: float = 1e-9) -> str:
    """stdout of `capacity --state werner --sweep spec`, as the row-by-row path wrote it:
    every point in one stack, then one dict per row through _json_text, or one CSV line per row."""
    from densecap.capacity import _stack_columns
    from densecap.cli import _json_text, _parse_sweep
    from densecap.qstate import _validated_spectra, werner_matrices

    p0, step, n = _parse_sweep(spec)
    params = p0 + step * np.arange(n)
    joints = werner_matrices(params)
    cols, _, _ = _stack_columns(joints, _validated_spectra(joints), (2, 2))
    worst = np.maximum(np.maximum(cols["residual_ab"], cols["residual_ba"]), cols["asymmetry_residual"])
    ok = bool(np.all(worst < tol))
    params = params.tolist()
    cols = {key: col.tolist() for key, col in cols.items()}
    if fmt == "csv":
        lines = ["param,c_normal,c_dense_ab,c_dense_ba,mutual_info"]
        for row in zip(params, cols["c_normal_a"], cols["c_dense_ab"], cols["c_dense_ba"], cols["mutual_info"]):
            lines.append(",".join(f"{float(x):.12g}" for x in row))
        return "\n".join(lines) + "\n"
    payload = {
        "command": "capacity",
        "family": "werner",
        "sweep": spec,
        "rows": [dict(param=p, **{key: col[i] for key, col in cols.items()}) for i, p in enumerate(params)],
        "pass": ok,
    }
    return _json_text(payload) + "\n"


def reference_twirl(e: EncodingEnsemble, rho: DensityMatrix) -> float:
    """Distance from 1/d of rho twirled by e, through the library's average_state."""
    return float(np.linalg.norm(cap.average_state(e, rho).matrix - np.eye(e.dim) / e.dim))


def reference_verify_ensemble(e: EncodingEnsemble, samples: int, seed: int) -> str:
    """stdout of `verify --ensemble` for the ensemble e, computed sample by sample from the library."""
    from densecap.encodings import verify_orthogonality
    from densecap.sampling import random_density_matrix

    rng = np.random.default_rng(seed)
    gram, _ = verify_orthogonality(e)
    residuals = [
        ("ensemble_gram", float(np.max(np.abs(gram - np.eye(len(e))))), 1e-10),
        ("ensemble_twirl", max(reference_twirl(e, random_density_matrix(e.dim, rng)) for _ in range(samples)), 1e-10),
    ]
    checks = [{"check": n, "max_residual": r, "tolerance": t, "pass": r < t} for n, r, t in residuals]
    payload = {
        "command": "verify", "d": e.dim, "samples": samples, "seed": seed, "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
    return reference_json(payload) + "\n"


def reference_verify(d: int, samples: int, seed: int) -> str:
    """stdout of `verify --d d`, computed sample by sample from the library."""
    from densecap.capacity import _capacity_row
    from densecap.encodings import (
        canonical_qubit_set, gellmann_basis, lift_ensemble, verify_orthogonality, weyl_set,
    )
    from densecap.qstate import correlation_reconstruct
    from densecap.sampling import (
        random_bipartite_state, random_density_matrix, random_orthonormal_frame,
    )

    rng = np.random.default_rng(seed)
    checks = []

    def record(name, residual, tolerance):
        checks.append({"check": name, "max_residual": residual, "tolerance": tolerance, "pass": residual < tolerance})

    if d == 2:
        worst = 0.0
        for _ in range(samples):
            e = canonical_qubit_set(random_orthonormal_frame(rng))
            worst = max(worst, reference_twirl(e, random_density_matrix(2, rng)))
        record("frame_twirl", worst, 1e-12)
    weyl = weyl_set(d)
    gram, _ = verify_orthogonality(weyl)
    record("weyl_gram", float(np.max(np.abs(d * gram - d * np.eye(len(weyl))))), 1e-12)
    states = [random_density_matrix(d, rng) for _ in range(samples)]
    record("weyl_twirl", max(reference_twirl(weyl, rho) for rho in states), 1e-10)
    basis = np.stack(gellmann_basis(d).lambdas)
    basis_gram = np.einsum("aij,bji->ab", basis, basis)
    record("gellmann_orthogonality", float(np.max(np.abs(basis_gram - d * np.eye(d * d - 1)))), 1e-12)
    identity = asym = averaged = rebuilt = 0.0
    for _ in range(samples):
        s = random_bipartite_state((d, d), rng)
        row = _capacity_row(s)
        identity = max(identity, row["residual_ab"], row["residual_ba"])
        asym = max(asym, row["asymmetry_residual"])
        sender = canonical_qubit_set(random_orthonormal_frame(rng)) if d == 2 else weyl
        avg = cap.average_state(lift_ensemble(sender, d, "a"), s.joint)
        expected = np.kron(np.eye(d) / d, s.reduced_b.matrix)
        averaged = max(averaged, float(np.linalg.norm(avg.matrix - expected)))
        rebuilt = max(rebuilt, float(np.linalg.norm(correlation_reconstruct(s).matrix - s.joint.matrix)))
    record("difference_identity", identity, 1e-9)
    record("asymmetry", asym, 1e-9)
    record("averaged_state", averaged, 1e-10)
    record("correlation_reconstruction", rebuilt, 1e-10)
    payload = {
        "command": "verify", "d": d, "samples": samples, "seed": seed, "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
    return reference_json(payload) + "\n"


class TestBlockedVerify:
    # 300 samples span a full block and a partial one
    @pytest.mark.parametrize("samples", [1, 20, 300])
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_matches_per_sample_reference(self, capsys, d, seed, samples):
        code, out = run(capsys, ["verify", "--d", str(d), "--samples", str(samples), "--seed", str(seed)])
        assert code == 0
        assert out == reference_verify(d, samples, seed)

    @pytest.mark.parametrize("samples", [1, 20, 300])
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("name", ["weyl7", "weyl10", "antipodal"])
    def test_ensemble_matches_per_sample_reference(self, capsys, tmp_path, name, seed, samples):
        from densecap import antipodal_pair, ensemble_from_json

        e = {"weyl7": weyl_set(7), "weyl10": weyl_set(10), "antipodal": antipodal_pair((0.3, 0.0, 0.4))}[name]
        path = tmp_path / "ensemble.json"
        path.write_text(json.dumps(ensemble_to_json(e)))
        code, out = run(capsys, ["verify", "--ensemble", str(path), "--samples", str(samples), "--seed", str(seed)])
        assert code == (name == "antipodal")  # a pair twirls no state to the total mixture
        assert out == reference_verify_ensemble(ensemble_from_json(json.loads(path.read_text())), samples, seed)

    def test_memory_flat_in_samples(self, capsys):
        import tracemalloc

        from densecap.cli import VERIFY_BLOCK

        def peak(samples):
            tracemalloc.start()
            try:
                assert main(["verify", "--d", "4", "--samples", str(samples), "--seed", "3"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                capsys.readouterr()

        main(["verify", "--d", "4", "--samples", "1"])  # fill the basis caches first
        one, four = peak(VERIFY_BLOCK), peak(4 * VERIFY_BLOCK)
        assert four <= 1.5 * one, (one, four)


def per_sample_averages(prior, lifts, joints):
    """The averaged states of verify, one np.einsum per sample."""
    spec = "a,aij,jk,alk->il"
    path = np.einsum_path(spec, prior, lifts[0], joints[0], lifts[0].conj(), optimize=True)[0]
    return np.stack([np.einsum(spec, prior, u, rho, u.conj(), optimize=path) for u, rho in zip(lifts, joints)])


class TestAveragedStates:
    @staticmethod
    def states(rng, samples, dim):
        return _random_states(rng.standard_normal((samples, 2 * dim * dim)), dim)

    @pytest.mark.parametrize("samples", [1, 7, 256])
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_shared_weyl_lift(self, d, samples):
        weyl = weyl_set(d)
        lift = _kron(np.stack(weyl.unitaries), np.eye(d, dtype=complex))
        joints = self.states(np.random.default_rng([d, samples]), samples, d * d)
        expected = per_sample_averages(weyl.prior, np.broadcast_to(lift, (samples, *lift.shape)), joints)
        assert np.array_equal(_averaged_states(weyl.prior, lift, joints), expected)

    @pytest.mark.parametrize("samples", [1, 7, 256])
    def test_per_sample_frame_lifts(self, samples):
        rng = np.random.default_rng(samples)
        joints = self.states(rng, samples, 4)
        frames = _frame_rows(rng.standard_normal((samples, 3, 3)))
        lifts = _kron(_qubit_set_stack(frames), np.eye(2, dtype=complex))
        prior = np.full(4, 0.25)
        expected = per_sample_averages(prior, lifts, joints)
        assert np.array_equal(_averaged_states(prior, lifts, joints), expected)

    # the twirl shapes have n = D^2 unitaries, where the einsum contracts the prior
    # first; the library's average_state of each state alone is their reference
    @pytest.mark.parametrize("samples", [1, 7, 256])
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
    def test_shared_weyl_twirl(self, d, samples):
        weyl = weyl_set(d)
        states = self.states(np.random.default_rng([d, samples]), samples, d)
        expected = np.stack([cap.average_state(weyl, DensityMatrix(rho)).matrix for rho in states])
        assert np.array_equal(_averaged_states(weyl.prior, weyl.unitaries, states), expected)

    @pytest.mark.parametrize("samples", [1, 7, 256])
    def test_per_sample_frame_twirls(self, samples):
        rng = np.random.default_rng([2, samples])
        states = self.states(rng, samples, 2)
        sets = _qubit_set_stack(_frame_rows(rng.standard_normal((samples, 3, 3))))
        prior = np.full(4, 0.25)
        expected = np.stack([
            cap.average_state(EncodingEnsemble(2, us, prior), DensityMatrix(rho)).matrix for us, rho in zip(sets, states)
        ])
        assert np.array_equal(_averaged_states(prior, sets, states), expected)


class TestRandomStates:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_match_random_density_matrix(self, d):
        from densecap.sampling import random_density_matrix

        for rank in range(1, d + 1):
            rng = np.random.default_rng([d, rank])
            expected = np.stack([random_density_matrix(d, rng, rank=rank).matrix for _ in range(3)])
            rng = np.random.default_rng([d, rank])
            assert np.array_equal(_random_states(rng.standard_normal((3, 2 * d * rank)), d, rank), expected)


class TestSimulateCommand:
    def test_quantum_default_bell(self, capsys):
        code, payload = run_json(capsys, [
            "simulate", "--protocol", "quantum", "--trials", "20000", "--seed", "5",
        ])
        assert code == 0
        assert abs(payload["empirical_mi"] - 2.0) < 0.05

    def test_quantum_single_particle(self, capsys):
        code, payload = run_json(capsys, [
            "simulate", "--protocol", "quantum", "--decoder", "single:z",
            "--trials", "20000", "--seed", "5",
        ])
        assert code == 0
        assert payload["empirical_mi"] < 0.01

    def test_classical_with_key(self, capsys):
        code, payload = run_json(capsys, [
            "simulate", "--protocol", "classical", "--trials", "20000", "--seed", "5",
        ])
        assert code == 0
        assert abs(payload["empirical_mi"] - 1.0) < 0.02

    def test_classical_without_key(self, capsys):
        code, payload = run_json(capsys, [
            "simulate", "--protocol", "classical", "--no-use-key",
            "--trials", "20000", "--seed", "5",
        ])
        assert code == 0
        assert payload["empirical_mi"] < 0.02

    def test_classical_custom_joint(self, capsys):
        code, payload = run_json(capsys, [
            "simulate", "--protocol", "classical", "--joint", "0.25,0.25,0.25,0.25",
            "--trials", "20000", "--seed", "5",
        ])
        assert code == 0
        assert payload["empirical_mi"] < 0.02

    def test_csv_count_table(self, capsys):
        code, out = run(capsys, [
            "simulate", "--protocol", "classical", "--trials", "1000",
            "--seed", "1", "--format", "csv",
        ])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "message,outcome,count"
        counts = [int(line.split(",")[2]) for line in lines[1:]]
        assert sum(counts) == 1000

    def test_bad_decoder(self, capsys):
        assert main(["simulate", "--decoder", "teleport"]) == 3


class TestEntanglementCommand:
    def test_bell_state(self, capsys):
        code, payload = run_json(capsys, [
            "entanglement", "--state", "bell", "--restarts", "4",
        ])
        assert code == 0
        assert payload["value"] == pytest.approx(2.0, abs=1e-6)
        assert payload["oracle"]["two_ef"] == pytest.approx(2.0, abs=1e-9)
        assert payload["pass"] is True

    def test_separable_mixture(self, capsys):
        code, payload = run_json(capsys, [
            "entanglement", "--state", "werner:0.2", "--restarts", "8",
        ])
        assert code == 0
        assert payload["value"] < 1e-3

    def test_werner_decomposition_on_request(self, capsys):
        code, payload = run_json(capsys, [
            "entanglement", "--state", "werner:0.8", "--restarts", "16",
            "--show-decomposition",
        ])
        assert code == 0
        dec = payload["decomposition"]
        assert abs(sum(dec["weights"]) - 1.0) < 1e-9
        assert len(dec["vectors"]) == len(dec["weights"])


class TestErrorPaths:
    def test_missing_file_exit_2(self, capsys):
        assert main(["capacity", "--state", "/nonexistent/state.json"]) == 2

    def test_malformed_json_exit_3(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["capacity", "--state", str(path)]) == 3

    def test_invalid_state_exit_4(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        entries = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        path.write_text(json.dumps({"dim": 2, "matrix": entries}))
        assert main(["capacity", "--state", str(path)]) == 4

    def test_bad_bloch_norm_exit_4(self, capsys):
        assert main(["capacity", "--state", "bloch:1,1,1"]) == 4

    def test_bad_sweep_spec_exit_3(self, capsys):
        assert main(["capacity", "--state", "werner", "--sweep", "0:1"]) == 3

    def test_bad_werner_parameter_exit_3(self, capsys):
        assert main(["capacity", "--state", "werner:x"]) == 3

    @pytest.mark.parametrize("command", ["capacity", "entanglement", "simulate"])
    def test_bare_werner_state_exit_3(self, capsys, command):
        assert main([command, "--state", "werner"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --state needs werner:p with a number p, got 'werner'\n"

    @pytest.mark.parametrize("spec", ["bloch:nan,0,0", "bloch:inf,0,0"])
    def test_non_finite_bloch_exit_4(self, capsys, spec):
        assert main(["capacity", "--state", spec]) == 4
        assert capsys.readouterr().out == ""

    def test_nan_matrix_entry_exit_4(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"dim": 2, "matrix": [[[0.5, 0], [NaN, 0]], [[NaN, 0], [0.5, 0]]]}')
        assert main(["capacity", "--state", str(path)]) == 4

    def test_negative_seed_exit_3(self, capsys):
        assert main(["simulate", "--trials", "10", "--seed", "-1"]) == 3
        assert capsys.readouterr().err.startswith("error: --seed")

    @pytest.mark.parametrize("argv", [["simulate", "--trials", "10"], ["verify", "--samples", "10"]])
    def test_seed_beyond_philox_key_exit_3(self, capsys, argv):
        assert main([*argv, "--seed", str(2**128)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --seed") and captured.err.count("\n") == 1

    def test_largest_seed_accepted(self, capsys):
        assert main(["simulate", "--trials", "10", "--seed", str(2**128 - 1)]) == 0

    @pytest.mark.parametrize("joint", ["nan,0,0,1", "inf,0,0,1", "0.3,0.3,0.3,0.3"])
    def test_bad_classical_joint_exit_4(self, capsys, joint):
        argv = ["simulate", "--protocol", "classical", "--joint", joint, "--trials", "1000"]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("protocol", ["quantum", "classical"])
    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_non_positive_trials_exit_3(self, capsys, protocol, trials):
        assert main(["simulate", "--protocol", protocol, f"--trials={trials}"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --trials") and captured.err.count("\n") == 1

    def test_directory_state_exit_3(self, capsys, tmp_path):
        assert main(["capacity", "--state", str(tmp_path)]) == 3

    @pytest.mark.parametrize("spec", ["0:nan:0.1", "0:inf:0.1", "0:1:nan", "-inf:1:0.1"])
    def test_non_finite_sweep_exit_3(self, capsys, spec):
        assert main(["capacity", "--state", "werner", f"--sweep={spec}"]) == 3

    @pytest.mark.parametrize("dims", ["1,4", "4,1", "-2,-2"])
    def test_split_factor_below_two_exit_4(self, capsys, dims):
        assert main(["capacity", "--state", "bell", f"--dims={dims}"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_single_system_cross_check_exit_4(self, capsys):
        # the cross-check needs a bipartite split, which a lone qubit has not
        assert main(["capacity", "--state", "bloch:0,0,1", "--cross-check"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot infer a bipartite split of dimension 2; pass --dims\n"

    @pytest.mark.parametrize("restarts", ["0", "-3"])
    def test_non_positive_restarts_exit_3(self, capsys, restarts):
        assert main(["entanglement", "--state", "werner:0.8", f"--restarts={restarts}"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --restarts") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-9"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["capacity", "--state", "werner:0.5"],
            ["capacity", "--state", "werner", "--sweep", "0:1:0.5"],
            ["entanglement", "--state", "werner:0.8"],
        ],
        ids=["capacity", "capacity-sweep", "entanglement"],
    )
    def test_bad_tol_exit_3(self, capsys, argv, tol):
        assert main([*argv, f"--tol={tol}"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --tol") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "extra",
        [["--state", "werner:0.5"], ["--state", "bell"], ["--dims", "1,4"], ["--dims", "2,2"], ["--cross-check"]],
        ids=["werner-p", "bell", "dims-1-4", "dims-2-2", "cross-check"],
    )
    def test_sweep_with_conflicting_flag_exit_3(self, capsys, extra):
        argv = ["capacity", "--state", "werner", "--sweep", "0:1:0.5", *extra]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --sweep") and captured.err.count("\n") == 1

    def test_out_of_range_sweep_point_exit_4(self, capsys):
        assert main(["capacity", "--state", "werner", "--sweep=-0.5:1:0.25"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: werner parameter -0.5 outside [-1/3, 1]\n"

    def test_oversized_sweep_rejected_before_allocation(self, capsys, monkeypatch):
        import densecap.cli as cli

        def no_alloc(*args, **kwargs):
            raise AssertionError("sweep grid allocated")

        monkeypatch.setattr(cli.np, "arange", no_alloc)
        assert main(["capacity", "--state", "werner", "--sweep", "0:1:1e-12"]) == 3
        assert main(["capacity", "--state", "werner", "--sweep", "0:1:1e-6"]) == 3
        assert main(["capacity", "--state", "werner", "--sweep=-1e308:1e308:1"]) == 3

    @pytest.mark.parametrize(
        "argv, stage",
        [
            (["verify", "--samples", "1000001"], "_gaussian_blocks"),
            (["verify", "--samples", "100000000"], "_gaussian_blocks"),
            (["simulate", "--trials", "10000000001"], "load_state"),
            (["simulate", "--protocol", "classical", "--trials", "99999999999999999999"], "sim.run_classical_dense"),
            (["capacity", "--state", "max-entangled:11"], "max_entangled_state"),
            (["capacity", "--state", "max-entangled:1000"], "max_entangled_state"),
            (["entanglement", "--restarts", "1001"], "load_state"),
            (["entanglement", "--restarts", "100000000"], "load_state"),
            (["entanglement", "--state", "werner:0.8", "--m", "17"], "ent.convex_roof"),
            (["entanglement", "--state", "werner:0.8", "--m", "100000000"], "ent.convex_roof"),
            (["entanglement", "--state", "werner:0.8", "--m", "0"], "ent.convex_roof"),
            (["entanglement", "--state", "werner:0.8", "--m", "-3"], "ent.convex_roof"),
            (["capacity", "--state", "@mixed22", "--dims", "11,2", "--cross-check"], "cap._capacity_row"),
            (["entanglement", "--state", "@mixed22", "--dims", "11,2"], "ent.convex_roof"),
            (["simulate", "--state", "@mixed22", "--dims", "11,2"], "enc.weyl_set"),
            (["verify", "--ensemble", "@ensemble11"], "enc.verify_orthogonality"),
            (["simulate", "--ensemble", "@ensemble11"], "sim.run_quantum_dense"),
            (["capacity", "--state", "@dim4.9"], "cap._capacity_row"),
            (["capacity", "--state", "@dim2.7"], "cap.normal_capacity"),
            (["verify", "--ensemble", "@ensemble-dim2.7"], "enc.verify_orthogonality"),
            (["capacity", "--state", "@mixed22-split"], "cap._capacity_row"),
        ],
    )
    def test_size_caps_exit_3_before_allocation(self, capsys, monkeypatch, tmp_path, argv, stage):
        import densecap.cli as cli

        argv = with_size_files(tmp_path, argv)

        def no_alloc(*args, **kwargs):
            raise AssertionError(f"{stage} reached")

        owner, _, name = stage.rpartition(".")
        monkeypatch.setattr(getattr(cli, owner) if owner else cli, name, no_alloc)
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_largest_sizes_accepted(self, capsys, tmp_path):
        from densecap.cli import MAX_DIM

        assert main(["capacity", "--state", f"max-entangled:{MAX_DIM}"]) == 0
        assert main(["entanglement", "--state", "werner:0.8", "--m", "16", "--restarts", "2"]) == 0
        assert main(with_size_files(tmp_path, ["capacity", "--state", "@mixed20", "--dims", "10,2"])) == 0

    # np.asarray reads true as 1 and false as 0, float() reads "0.5" as 0.5 and None as NaN, but none
    # of these is a state (dims like 4.9: size-cap rows)
    @pytest.mark.parametrize(
        "state",
        [
            {"bloch": [True, 0, 0]},
            {"tensor": {"a": {"bloch": [0, 0, 1]}, "b": {"bloch": [0, False, 1]}}},
            {"dim": 2, "matrix": [[[True, 0], [0, 0]], [[0, 0], [False, 0]]]},
            mixed_state_json(1, True),
            {"bloch": ["0.5", 0, 0]},
            {"dim": 2, "matrix": [[["0.5", 0], [0, 0]], [[0, 0], [0.5, 0]]]},
            {"dim": 2, "matrix": [[[0.5, 0], [None, 0]], [[None, 0], [0.5, 0]]]},
            {"bloch": [10**400, 0, 0]},
            {**mixed_state_json(6), "dims": [2]},
            {**mixed_state_json(6), "dims": [2, 3.5]},
            {**mixed_state_json(6), "dims": "2,3"},
            {**mixed_state_json(6), "dims": [True, 6]},
            {"tensor": {"a": {"bloch": [0, 0, 1]}, "b": {**mixed_state_json(6), "dims": [2, 3]}}},
        ],
        ids=["bloch-true", "tensor-false", "matrix-true", "dim-true", "bloch-string", "matrix-string", "matrix-null",
             "bloch-int-overflow", "dims-one", "dims-3.5", "dims-string", "dims-true", "tensor-factor-dims"],
    )
    def test_boolean_in_state_file_exit_3(self, capsys, tmp_path, state):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state))
        assert main(["capacity", "--state", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("dims", [[2, 2], [1, 6]])
    def test_state_file_dims_not_a_split_exit_4(self, capsys, tmp_path, dims):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({**mixed_state_json(6), "dims": dims}))
        assert main(["capacity", "--state", str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["verify", "simulate"])
    @pytest.mark.parametrize(
        "ensemble, code",
        [
            ({"dim": 2, "unitaries": [[[[1, 0], [0, 0]], [[0, 0], [0.5, 0]]]]}, 4),
            ({"dim": 2, "unitaries": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]], "prior": [0.5]}, 4),
            ({"dim": 2, "unitaries": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]], "prior": [float("nan")]}, 4),
            ({"dim": 2, "unitaries": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]] * 2, "prior": [1.5, -0.5]}, 4),
            ({"dim": 2, "unitaries": []}, 3),
            ({"dim": float("inf"), "unitaries": [[[[1, 0]]]]}, 3),
            ({"dim": 1, "unitaries": [[[[1, 0]]]]}, 4),
            (identity_ensemble_json(2, 2.7), 3),
            ({**identity_ensemble_json(2), "prior": [True]}, 3),
            ({"dim": 2, "unitaries": identity_ensemble_json(2)["unitaries"] * 4, "prior": [[0.25, 0.25]] * 2}, 3),
            ({**identity_ensemble_json(2), "prior": ["1"]}, 3),
            ({**identity_ensemble_json(2), "prior": [None]}, 3),
        ],
        ids=[
            "non-unitary", "prior-length", "nan-prior", "negative-prior", "empty", "infinite-dim", "dim-1",
            "dim-2.7", "boolean-prior", "nested-prior", "string-prior", "null-prior",
        ],
    )
    def test_bad_ensemble_one_line_error(self, capsys, tmp_path, command, ensemble, code):
        path = tmp_path / "ensemble.json"
        path.write_text(json.dumps(ensemble))
        argv = [command, "--ensemble", str(path)]
        argv += ["--samples", "5"] if command == "verify" else ["--trials", "5"]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    # json.load raises RecursionError past ~1,000 levels; 3,000 tensors nest 6,000 objects
    @pytest.mark.parametrize("nesting", ["lists", "tensors"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["capacity", "--state"], ["entanglement", "--state"], ["simulate", "--state"],
            ["simulate", "--ensemble"], ["verify", "--ensemble"],
        ],
        ids=["capacity-state", "entanglement-state", "simulate-state", "simulate-ensemble", "verify-ensemble"],
    )
    def test_deeply_nested_file_exit_3(self, capsys, tmp_path, argv, nesting):
        path = tmp_path / "nested.json"
        if nesting == "lists":
            path.write_text("[" * 100_000 + "]" * 100_000)
        else:
            path.write_text('{"tensor": {"a": ' * 3000 + '{"bloch": [0, 0, 1]}' + ', "b": {"bloch": [0, 0, 1]}}}' * 3000)
        assert main([*argv, str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--samples", "abc"], ["capacity", "--tol"], ["nonsense"], [], ["simulate", "--protocol", "x"]],
        ids=["non-numeric", "missing-value", "unknown-command", "no-command", "bad-choice"],
    )
    def test_malformed_command_line_exit_3(self, capsys, argv):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_directory_out_exit_3(self, capsys, tmp_path):
        assert main(["capacity", "--state", "bell", "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_largest_sweep_accepted(self):
        from densecap.cli import MAX_SWEEP_POINTS, _parse_sweep

        assert _parse_sweep("0:0.999999:0.000001")[2] == MAX_SWEEP_POINTS


def weyl2_file(tmp_path) -> str:
    path = tmp_path / "weyl2.json"
    path.write_text(json.dumps(ensemble_to_json(weyl_set(2))))
    return str(path)


def forbid_reads(monkeypatch) -> None:
    import densecap.cli as cli

    def no_read(*args, **kwargs):
        raise AssertionError("a file was read or a state built")

    for name in ("load_state", "_load_json"):
        monkeypatch.setattr(cli, name, no_read)


def one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


# the argv that gives each flag of cli._MODE_ONLY ("@weyl2" names an ensemble file)
FLAG_ARGV = {
    ("capacity", "--sweep"): ["--sweep", "0:1:0.5"],
    ("capacity", "--dims"): ["--dims", "2,2"],
    ("capacity", "--cross-check"): ["--cross-check"],
    ("capacity", "--direction"): ["--direction", "b2a"],
    ("verify", "--d"): ["--d", "3"],
    ("simulate", "--state"): ["--state", "werner:0.5"],
    ("simulate", "--dims"): ["--dims", "2,2"],
    ("simulate", "--ensemble"): ["--ensemble", "@weyl2"],
    ("simulate", "--decoder"): ["--decoder", "single:x"],
    ("simulate", "--joint"): ["--joint", "0.6,0.25,0,0.15"],
    ("simulate", "--use-key"): ["--no-use-key"],
    ("entanglement", "--show-decomposition"): ["--show-decomposition"],
}
# (flag that sets a mode, its value there) -> (argv outside the mode, argv inside it)
MODE_ARGV = {
    ("--state", "werner"): (["--state", "bell"], ["--state", "werner"]),
    ("--sweep", None): (["--state", "werner", "--sweep", "0:1:0.5"], []),
    ("--cross-check", True): ([], ["--cross-check"]),
    ("--ensemble", None): (["--ensemble", "@weyl2"], []),
    ("--protocol", "quantum"): (["--protocol", "classical"], ["--protocol", "quantum"]),
    ("--protocol", "classical"): (["--protocol", "quantum"], ["--protocol", "classical"]),
    ("--format", "json"): (["--format", "csv"], ["--format", "json"]),
}
# small sizes, so that each command in its mode runs fast
SMALL = {
    "verify": ["--samples", "5"],
    "simulate": ["--trials", "50"],
    "entanglement": ["--state", "werner:0.8", "--restarts", "16"],
}


class TestFlagTable:
    @staticmethod
    def argv(tmp_path, command, *parts):
        argv = [command, *SMALL.get(command, []), *(word for part in parts for word in part)]
        return [weyl2_file(tmp_path) if word == "@weyl2" else word for word in argv]

    @pytest.mark.parametrize(
        "command, flag, mode, value",
        [(*key, mode, value) for key, (_, modes) in _MODE_ONLY.items() for mode, value in modes.items()],
    )
    def test_outside_its_mode_exit_3(self, capsys, monkeypatch, tmp_path, command, flag, mode, value):
        argv = self.argv(tmp_path, command, FLAG_ARGV[command, flag], MODE_ARGV[mode, value][0])
        forbid_reads(monkeypatch)
        assert main(argv) == 3, argv
        err = one_error_line(capsys)
        assert flag in err and mode in err, err

    @pytest.mark.parametrize("command, flag", list(_MODE_ONLY))
    def test_inside_its_mode_exit_0(self, capsys, tmp_path, command, flag):
        inside = [MODE_ARGV[mode, value][1] for mode, value in _MODE_ONLY[command, flag][1].items()]
        argv = self.argv(tmp_path, command, FLAG_ARGV[command, flag], *inside)
        assert main(argv) == 0, argv
        captured = capsys.readouterr()
        assert captured.out and captured.err == ""

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["simulate", "--joint", "0.6,0.25,0,0.15", "--no-use-key"], "--joint needs --protocol classical"),
            (["simulate", "--protocol", "classical", "--ensemble", "nonexistent.json"], "--ensemble needs"),
            (["simulate", "--protocol", "classical", "--state", "werner:0.5", "--decoder", "single:x"], "--state"),
            (["verify", "--ensemble", "nonexistent.json", "--d", "9"], "--ensemble cannot be combined with --d"),
            (["capacity", "--direction", "b2a"], "--direction needs --cross-check"),
            (["capacity", "--state", "werner", "--sweep", "0:1:0.5", "--direction", "b2a"], "--sweep cannot"),
            (["entanglement", "--show-decomposition", "--format", "csv"], "--show-decomposition needs --format json"),
            (["capacity", "--seed", "5"], "unrecognized arguments: --seed 5"),
        ],
    )
    def test_flag_that_cannot_apply_exit_3(self, capsys, monkeypatch, argv, error):
        forbid_reads(monkeypatch)
        assert main(argv) == 3
        assert one_error_line(capsys).startswith(f"error: {error}")

    # the shapes of the benchmark's commands; "@4" names a 4x4 state file, "@2x3" a 6x6 one
    @pytest.mark.parametrize(
        "argv",
        [
            ["capacity", "--state", "werner", "--sweep", "0:1:0.5"],
            ["capacity", "--state", "werner", "--sweep", "0:1:0.5", "--format", "csv"],
            ["capacity", "--state", "@4", "--cross-check"],
            ["capacity", "--state", "@2x3", "--dims", "2,3", "--cross-check"],
            ["verify", "--d", "2", "--samples", "5", "--seed", "3"],
            ["verify", "--d", "3", "--samples", "5", "--seed", "3"],
            ["simulate", "--protocol", "quantum", "--decoder", "bell", "--trials", "50", "--seed", "3"],
            ["simulate", "--protocol", "quantum", "--decoder", "single:z", "--trials", "50", "--seed", "3"],
            ["simulate", "--protocol", "classical", "--use-key", "--trials", "50", "--seed", "3"],
            ["entanglement", "--state", "werner:0.8", "--restarts", "2"],
            ["entanglement", "--state", "@4", "--restarts", "2", "--seed", "3"],
            ["entanglement", "--state", "@2x3", "--dims", "2,3", "--restarts", "2", "--seed", "3"],
        ],
    )
    def test_benchmark_argv_shapes_accepted(self, capsys, tmp_path, argv):
        four = tmp_path / "werner.json"
        four.write_text(json.dumps(state_to_json(werner_state(0.5).joint)))
        files = {"@4": str(four), "@2x3": STATE_2X3}
        assert main([files.get(word, word) for word in argv]) == 0, argv
        captured = capsys.readouterr()
        assert captured.out and captured.err == ""


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--protocol", "quantum", "--trials", "5000", "--seed", "9"],
            ["verify", "--d", "3", "--samples", "300"],
            ["entanglement", "--state", "werner:0.85", "--restarts", "4"],
        ],
        ids=["simulate", "verify", "entanglement"],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        _, first = run(capsys, argv)
        _, second = run(capsys, argv)
        assert first == second

    # both ends of [-1/3, 1] give a rank-deficient joint state
    @pytest.mark.parametrize(
        "spec",
        ["-0.3125:1:0.0625", "-0.3333333333333333:0.5:0.03125"],
        ids=["up-to-one", "from-minus-third"],
    )
    def test_sweep_rows_match_single_state(self, capsys, spec):
        from densecap.cli import _parse_sweep

        code, payload = run_json(capsys, ["capacity", "--state", "werner", f"--sweep={spec}"])
        assert code == 0
        p0, step, n = _parse_sweep(spec)
        params = [p0 + step * k for k in range(n)]
        assert len(payload["rows"]) == len(params) > 20
        for p, row in zip(params, payload["rows"]):
            _, single = run_json(capsys, ["capacity", "--state", f"werner:{p!r}"])
            for key, value in row.items():
                assert value == (float(f"{p:.12g}") if key == "param" else single[key]), (p, key)

    def test_out_flag_writes_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code = main(["capacity", "--state", "bell", "--out", str(path)])
        capsys.readouterr()
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["pass"] is True


@pytest.mark.parametrize("fmt", ["json", "csv"])
class TestSweepBlocks:
    @pytest.mark.parametrize(
        "spec",
        ["0:1:0.0004", "-0.3333333333333333:1:0.0005", "-0.3333333333333333:0.5:0.03125", "0:1:0.02", "0.25:0.25:1"],
        ids=["partial-last-block", "minus-third-to-one", "from-minus-third", "one-block", "single-point"],
    )
    def test_matches_row_by_row_path(self, capsys, fmt, spec):
        code, out = run(capsys, ["capacity", "--state", "werner", f"--sweep={spec}", "--format", fmt])
        assert code == 0
        assert out == reference_sweep(spec, fmt)

    @pytest.mark.parametrize("block", [1, 5, 7])
    def test_small_blocks(self, capsys, monkeypatch, fmt, block):
        import densecap.cli as cli

        monkeypatch.setattr(cli, "SWEEP_BLOCK", block)
        # 21 points (a partial last block), 10 points (two blocks of 5), one point
        for spec in ("0:1:0.05", "0:0.9:0.1", "0.5:0.5:1"):
            code, out = run(capsys, ["capacity", "--state", "werner", f"--sweep={spec}", "--format", fmt])
            assert code == 0
            assert out == reference_sweep(spec, fmt), (block, spec)

    def test_out_flag(self, capsys, tmp_path, fmt):
        path = tmp_path / f"sweep.{fmt}"
        spec = "0:1:0.0004"
        code, out = run(capsys, ["capacity", "--state", "werner", f"--sweep={spec}", "--format", fmt, "--out", str(path)])
        assert code == 0 and out == ""
        assert path.read_text() == reference_sweep(spec, fmt)

    def test_failing_tolerance(self, capsys, fmt):
        spec = "0:1:0.0004"
        code, out = run(capsys, ["capacity", "--state", "werner", f"--sweep={spec}", "--format", fmt, "--tol", "1e-17"])
        assert code == 1
        assert out == reference_sweep(spec, fmt, tol=1e-17)
        assert fmt == "csv" or json.loads(out)["pass"] is False

    def test_out_of_range_in_a_later_block_writes_nothing(self, capsys, tmp_path, fmt):
        from densecap.cli import SWEEP_BLOCK, _parse_sweep

        spec = "0:1.5:0.0005"
        p0, step, n = _parse_sweep(spec)
        params = p0 + step * np.arange(n)
        assert params[SWEEP_BLOCK - 1] <= 1.0  # the first block is in range
        path = tmp_path / "sweep.out"
        for out_flag in ([], ["--out", str(path)]):
            argv = ["capacity", "--state", "werner", f"--sweep={spec}", "--format", fmt, *out_flag]
            assert main(argv) == 4
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: werner parameter {params[params > 1.0][0]} outside [-1/3, 1]\n"
        assert not path.exists()

    def test_memory_flat_in_sweep_length(self, capsys, tmp_path, fmt):
        import tracemalloc

        def peak(step):
            tracemalloc.start()
            try:
                argv = ["capacity", "--state", "werner", "--sweep", f"0:1:{step}", "--format", fmt]
                assert main([*argv, "--out", str(tmp_path / "sweep.out")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(0.0002), peak(0.00002)  # 5,001 and 50,001 points
        assert large <= 1.5 * small, (small, large)


def test_sweep_holds_no_grid():
    """The largest sweep's memory does not depend on its length: parsing it and
    streaming its first blocks peak as a sweep of a tenth its length does (the
    later blocks repeat the same work, which test_memory_flat_in_sweep_length
    checks through the whole command)."""
    import tracemalloc
    from itertools import islice

    from densecap.cli import _parse_sweep, _sweep_blocks

    def peak(spec):
        tracemalloc.start()
        try:
            list(islice(_sweep_blocks(*_parse_sweep(spec)), 2))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak("0:0.99999:0.00001"), peak("0:0.999999:0.000001")  # 100,000 and 1,000,000 points
    assert large <= 1.5 * small, (small, large)


def test_csv_quotes_fields_with_separators(capsys, tmp_path):
    import csv

    code, out = run(capsys, ["capacity", "--state", "bloch:0,0,1", "--format", "csv"])
    assert code == 0
    assert out == 'param,c_normal,c_dense_ab,c_dense_ba,mutual_info\n"bloch:0,0,1",1,,,\n'
    path = tmp_path / 'pair,"a".json'
    path.write_text(json.dumps(state_to_json(werner_state(0.5))))
    code, out = run(capsys, ["capacity", "--state", str(path), "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert [len(row) for row in rows] == [5, 5]
    assert rows[1][0] == str(path)


def test_parser_built_once_and_keeps_no_state(capsys):
    from densecap.cli import build_parser

    assert build_parser() is build_parser()
    code, out = run(capsys, ["capacity", "--state", "werner:0.5", "--format", "csv", "--cross-check"])
    assert code == 0 and out.startswith("param,")
    code, payload = run_json(capsys, ["capacity"])  # every default again, none left from the call before
    assert code == 0 and payload["state"] == "bell" and "cross_check" not in payload


def test_load_state_names():
    from densecap import BipartiteState, DensityMatrix

    assert isinstance(load_state("bell"), BipartiteState)
    assert isinstance(load_state("werner:0.5"), BipartiteState)
    assert isinstance(load_state("max-entangled:4"), BipartiteState)
    assert isinstance(load_state("bloch:0,0,0"), DensityMatrix)


def count_decompositions(monkeypatch) -> list:
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestDecompositionCounts:
    def test_sweep_is_batched(self, capsys, monkeypatch):
        calls = count_decompositions(monkeypatch)
        code, payload = run_json(capsys, ["capacity", "--state", "werner", "--sweep", "0:1:0.001"])
        assert code == 0 and len(payload["rows"]) == 1001
        # one block: the joint states and their two reductions
        assert len(calls) == 3

    def test_werner_state_decomposes_once(self, monkeypatch):
        calls = count_decompositions(monkeypatch)
        werner_state(0.3)
        assert len(calls) == 1

    def test_verify_decomposes_only_what_it_reads(self, capsys, monkeypatch):
        calls = count_decompositions(monkeypatch)
        assert main(["verify", "--d", "3", "--samples", "600"]) == 0
        capsys.readouterr()
        # 3 blocks, each with the joint states, two reductions, averaged and rebuilt states;
        # the twirled states are never decomposed
        assert len(calls) == 15

    def test_cross_check_count_independent_of_signal_count(self, capsys, monkeypatch):
        calls = count_decompositions(monkeypatch)
        counts = []
        for d in (2, 3, 4):  # d_A^2 = 4, 9 and 16 signal states
            calls.clear()
            code, payload = run_json(capsys, ["capacity", "--state", f"max-entangled:{d}", "--cross-check"])
            assert code == 0 and payload["cross_check"]["iterations"] == 1
            counts.append(len(calls))
        # the state and its two reductions, the signal stack and the optimizer's one eigh
        assert counts == [5, 5, 5]

    @pytest.mark.parametrize("direction", ["a2b", "b2a"])
    def test_dense_capacity_decomposes_one_reduction(self, monkeypatch, direction):
        from densecap.capacity import _capacity_row
        from densecap.sampling import random_bipartite_state

        s = random_bipartite_state((3, 3), np.random.default_rng(12))
        calls = count_decompositions(monkeypatch)
        value = cap.dense_capacity(s, direction)
        assert len(calls) == 1
        assert value == _capacity_row(s)["c_dense_ab" if direction == "a2b" else "c_dense_ba"]

    def test_capacity_row_reuses_cached_spectra(self, monkeypatch):
        from densecap.capacity import _capacity_row
        from densecap.qstate import von_neumann_entropy
        from densecap.sampling import random_bipartite_state

        s = random_bipartite_state((2, 3), np.random.default_rng(4))
        s.reduced_a, s.reduced_b
        calls = count_decompositions(monkeypatch)
        row = _capacity_row(s)
        assert calls == []
        s_a, s_b, s_ab = (von_neumann_entropy(r) for r in (s.reduced_a, s.reduced_b, s.joint))
        assert row["c_normal_a"] == math.log2(2) - s_a
        assert row["c_normal_b"] == math.log2(3) - s_b
        assert row["c_dense_ab"] == math.log2(2) + s_b - s_ab
        assert row["c_dense_ba"] == math.log2(3) + s_a - s_ab
        assert row["mutual_info"] == max(s_a + s_b - s_ab, 0.0)
        assert row["residual_ab"] < 1e-9 and row["asymmetry_residual"] < 1e-9


def test_max_norm_matches_per_matrix_norms():
    from densecap.cli import _max_norm

    rng = np.random.default_rng(21)
    for _ in range(300):
        n = int(rng.integers(2, 82))
        scale = 10.0 ** rng.uniform(-17, 0)
        shape = (int(rng.integers(1, 30)), n, n)
        diffs = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        assert _max_norm(diffs) == max(float(np.linalg.norm(m)) for m in diffs)
