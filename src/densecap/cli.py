"""Batch command-line front end.

Loads states from files or built-in names, computes capacities and the
capacity-difference identity, runs randomized verification of the twirl
and orthogonality identities, simulates the protocols, and evaluates the
convex-roof functional.  Output is JSON or CSV; exit code 0 means every
requested check passed (2/3/4 flag missing files, parse errors, and
invalid states).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import capacity as cap
from . import entanglement as ent
from . import protosim as sim
from .encodings import (
    OrthonormalFrame,
    canonical_qubit_set,
    ensemble_from_json,
    gellmann_basis,
    lift_ensemble,
    verify_orthogonality,
    weyl_set,
)
from .errors import DenseCapError, InvalidState, ParseError
from .qstate import (
    BipartiteState,
    DensityMatrix,
    bell_state,
    _partial_trace_array,
    _spectrum_entropies,
    _validated_spectra,
    correlation_reconstruct,
    from_bloch,
    max_entangled_state,
    state_from_json,
    von_neumann_entropy,
    werner_matrices,
    werner_state,
)
from .sampling import (
    random_bipartite_state,
    random_density_matrix,
    random_orthonormal_frame,
)


MAX_SWEEP_POINTS = 1_000_000


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _jsonable(value):
    if isinstance(value, float):
        return float(_fmt(value))
    if isinstance(value, (np.floating,)):
        return float(_fmt(float(value)))
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _emit_json(payload: dict, out: str | None) -> None:
    _emit(json.dumps(_jsonable(payload), indent=2), out)


def _emit_csv(header: list[str], rows: list[list], out: str | None) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) if isinstance(x, float) else str(x) for x in row))
    _emit("\n".join(lines), out)


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except IsADirectoryError:
        raise ParseError(f"{path} is a directory, not a JSON file") from None
    except ValueError as exc:  # JSONDecodeError, or bytes that are not text
        raise ParseError(f"{path}: {exc}") from None


def load_state(spec: str) -> DensityMatrix | BipartiteState:
    """Resolve a --state argument: built-in name or JSON file path."""
    if spec == "bell":
        return bell_state()
    if spec.startswith("werner:"):
        try:
            return werner_state(float(spec.split(":", 1)[1]))
        except ValueError:
            raise ParseError(f"bad werner parameter in {spec!r}") from None
    if spec.startswith("max-entangled:"):
        try:
            return max_entangled_state(int(spec.split(":", 1)[1]))
        except ValueError:
            raise ParseError(f"bad dimension in {spec!r}") from None
    if spec.startswith("bloch:"):
        parts = spec.split(":", 1)[1].split(",")
        if len(parts) != 3:
            raise ParseError(f"bloch state needs three components, got {spec!r}")
        try:
            return from_bloch(tuple(float(p) for p in parts))
        except ValueError:
            raise ParseError(f"bad bloch components in {spec!r}") from None
    return state_from_json(_load_json(spec))


def _as_bipartite(state, dims_flag: str | None) -> BipartiteState:
    if dims_flag:
        parts = dims_flag.split(",")
        if len(parts) != 2:
            raise ParseError(f"--dims needs two integers, got {dims_flag!r}")
        try:
            dims = (int(parts[0]), int(parts[1]))
        except ValueError:
            raise ParseError(f"--dims needs two integers, got {dims_flag!r}") from None
        joint = state.joint if isinstance(state, BipartiteState) else state
        return BipartiteState(joint, dims)
    if isinstance(state, BipartiteState):
        return state
    root = math.isqrt(state.dim)
    if root * root != state.dim:
        raise InvalidState(
            f"cannot infer a bipartite split of dimension {state.dim}; pass --dims"
        )
    return BipartiteState(state, (root, root))


def _capacity_columns(d_a: int, d_b: int, s_a, s_b, s_ab) -> dict:
    """Capacities and identity residuals from S(rho_A), S(rho_B), S(rho_AB).

    The entropies are numbers or equal-length arrays (one entry per
    state), and so is every column of the result.  The operation order
    is that of capacity.normal_capacity, dense_capacity and
    mutual_information, so the numbers match them bit for bit.
    """
    c_normal_a = math.log2(d_a) - s_a
    c_normal_b = math.log2(d_b) - s_b
    c_ab = math.log2(d_a) + s_b - s_ab
    c_ba = math.log2(d_b) + s_a - s_ab
    mi = s_a + s_b - s_ab
    mi = np.where(mi < 0.0, 0.0, mi)
    return {
        "c_normal_a": c_normal_a,
        "c_normal_b": c_normal_b,
        "c_dense_ab": c_ab,
        "c_dense_ba": c_ba,
        "mutual_info": mi,
        "residual_ab": np.abs((c_ab - c_normal_a) - mi),
        "residual_ba": np.abs((c_ba - c_normal_b) - mi),
        "asymmetry_residual": np.abs(
            (c_ab - c_ba) - (math.log2(d_a) - math.log2(d_b) + s_b - s_a)
        ),
    }


def _capacity_row(s: BipartiteState) -> dict:
    entropies = (von_neumann_entropy(r) for r in (s.reduced_a, s.reduced_b, s.joint))
    return {key: float(x) for key, x in _capacity_columns(s.dim_a, s.dim_b, *entropies).items()}


def _werner_sweep_columns(params: np.ndarray) -> dict:
    """_capacity_columns of the Werner states at every p in params.

    One batched eigvalsh per stack (joints and both reductions), with
    every DensityMatrix check applied to each matrix of the stack.
    """
    joints = werner_matrices(params)
    s_ab, s_a, s_b = (
        _spectrum_entropies(_validated_spectra(m))
        for m in (
            joints,
            _partial_trace_array(joints, (2, 2), "A"),
            _partial_trace_array(joints, (2, 2), "B"),
        )
    )
    return _capacity_columns(2, 2, s_a, s_b, s_ab)


def _parse_sweep(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ParseError(f"--sweep needs p0:p1:step, got {spec!r}")
    try:
        p0, p1, step = (float(p) for p in parts)
    except ValueError:
        raise ParseError(f"--sweep needs numbers, got {spec!r}") from None
    if not all(math.isfinite(x) for x in (p0, p1, step)):
        raise ParseError(f"--sweep needs finite numbers, got {spec!r}")
    if step <= 0 or p1 < p0:
        raise ParseError(f"--sweep needs p0 <= p1 and step > 0, got {spec!r}")
    # capped before rounding: (p1 - p0) / step can overflow to inf
    count = int(round(min((p1 - p0) / step, MAX_SWEEP_POINTS))) + 1
    if count > MAX_SWEEP_POINTS:
        raise ParseError(f"--sweep {spec!r} has more than {MAX_SWEEP_POINTS:,} points")
    values = p0 + step * np.arange(count)
    return values[values <= p1 + 1e-12]


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise ParseError(f"--tol must be finite and > 0, got {tol}")


def cmd_capacity(args) -> int:
    _check_tol(args.tol)
    if args.sweep:
        if args.state != "werner":
            raise ParseError(f"--sweep sets p itself; pass --state werner, got {args.state!r}")
        if args.dims or args.cross_check:
            raise ParseError("--sweep cannot be combined with --dims or --cross-check")
        params = _parse_sweep(args.sweep)
        cols = _werner_sweep_columns(params)
        worst = np.maximum(np.maximum(cols["residual_ab"], cols["residual_ba"]), cols["asymmetry_residual"])
        ok = bool(np.all(worst < args.tol))
        params = params.tolist()
        cols = {key: col.tolist() for key, col in cols.items()}
        if args.format == "csv":
            _emit_csv(
                ["param", "c_normal", "c_dense_ab", "c_dense_ba", "mutual_info"],
                list(zip(params, cols["c_normal_a"], cols["c_dense_ab"], cols["c_dense_ba"], cols["mutual_info"])),
                args.out,
            )
        else:
            payload = {
                "command": "capacity",
                "family": "werner",
                "sweep": args.sweep,
                "rows": [
                    dict(param=p, **{key: col[i] for key, col in cols.items()})
                    for i, p in enumerate(params)
                ],
                "pass": ok,
            }
            _emit_json(payload, args.out)
        return 0 if ok else 1

    state = load_state(args.state)
    if isinstance(state, DensityMatrix) and not args.dims:
        root = math.isqrt(state.dim)
        if root * root != state.dim:
            # single system: only the normal capacity is defined
            payload = {
                "command": "capacity",
                "state": args.state,
                "dim": state.dim,
                "c_normal": cap.normal_capacity(state),
                "pass": True,
            }
            if args.format == "csv":
                _emit_csv(
                    ["param", "c_normal", "c_dense_ab", "c_dense_ba", "mutual_info"],
                    [[args.state, payload["c_normal"], "", "", ""]],
                    args.out,
                )
            else:
                _emit_json(payload, args.out)
            return 0
    s = _as_bipartite(state, args.dims)
    row = _capacity_row(s)
    ok = max(row["residual_ab"], row["residual_ba"], row["asymmetry_residual"]) < args.tol
    payload = {"command": "capacity", "state": args.state, "dims": list(s.dims), **row}
    if args.cross_check:
        report = cap.dense_capacity_via_ensemble(s, args.direction)
        closed = cap.dense_capacity(s, args.direction)
        payload["cross_check"] = {
            "direction": args.direction,
            "closed_form": closed,
            "difference": abs(report.chi - closed),
            **report.to_json(),
        }
        ok = ok and payload["cross_check"]["difference"] < 1e-6
    payload["pass"] = ok
    if args.format == "csv":
        _emit_csv(
            ["param", "c_normal", "c_dense_ab", "c_dense_ba", "mutual_info"],
            [[args.state, row["c_normal_a"], row["c_dense_ab"], row["c_dense_ba"], row["mutual_info"]]],
            args.out,
        )
    else:
        _emit_json(payload, args.out)
    return 0 if ok else 1


def _max_twirl_residual(e, states, target) -> float:
    stack = np.stack(e.unitaries)
    worst = 0.0
    for rho in states:
        avg = np.einsum("a,aij,jk,alk->il", e.prior, stack, rho, stack.conj())
        worst = max(worst, float(np.linalg.norm(avg - target)))
    return worst


def cmd_verify(args) -> int:
    if not 2 <= args.d <= 6:
        raise ParseError(f"--d must be in 2..6, got {args.d}")
    if args.samples < 1:
        raise ParseError(f"--samples must be >= 1, got {args.samples}")
    d = args.d
    rng = np.random.default_rng(args.seed)
    checks: list[dict] = []

    def record(name: str, residual: float, tolerance: float) -> None:
        checks.append(
            {"check": name, "max_residual": residual, "tolerance": tolerance, "pass": residual < tolerance}
        )

    if args.ensemble:
        e = ensemble_from_json(_load_json(args.ensemble))
        gram, _ = verify_orthogonality(e)
        record("ensemble_gram", float(np.max(np.abs(gram - np.eye(len(e))))), 1e-10)
        states = [random_density_matrix(e.dim, rng).matrix for _ in range(args.samples)]
        target = np.eye(e.dim) / e.dim
        record("ensemble_twirl", _max_twirl_residual(e, states, target), 1e-10)
    else:
        if d == 2:
            worst = 0.0
            for _ in range(args.samples):
                frame = random_orthonormal_frame(rng)
                e = canonical_qubit_set(frame)
                rho = random_density_matrix(2, rng).matrix
                worst = max(worst, _max_twirl_residual(e, [rho], np.eye(2) / 2.0))
            record("frame_twirl", worst, 1e-12)
        weyl = weyl_set(d)
        gram, _ = verify_orthogonality(weyl)
        record("weyl_gram", float(np.max(np.abs(d * gram - d * np.eye(len(weyl))))), 1e-12)
        states = [random_density_matrix(d, rng).matrix for _ in range(args.samples)]
        record("weyl_twirl", _max_twirl_residual(weyl, states, np.eye(d) / d), 1e-10)
        basis = np.stack(gellmann_basis(d).lambdas)
        basis_gram = np.einsum("aij,bji->ab", basis, basis)
        record(
            "gellmann_orthogonality",
            float(np.max(np.abs(basis_gram - d * np.eye(d * d - 1)))),
            1e-12,
        )

        identity_worst = 0.0
        asym_worst = 0.0
        averaged_worst = 0.0
        reconstruct_worst = 0.0
        eye_d = np.eye(d)
        weyl_lifted = None if d == 2 else lift_ensemble(weyl_set(d), d, "a")
        for _ in range(args.samples):
            s = random_bipartite_state((d, d), rng)
            row = _capacity_row(s)
            identity_worst = max(identity_worst, row["residual_ab"], row["residual_ba"])
            asym_worst = max(asym_worst, row["asymmetry_residual"])
            if weyl_lifted is None:
                lifted = lift_ensemble(canonical_qubit_set(random_orthonormal_frame(rng)), d, "a")
            else:
                lifted = weyl_lifted
            avg = cap.average_state(lifted, s.joint)
            expected = np.kron(eye_d / d, s.reduced_b.matrix)
            averaged_worst = max(averaged_worst, float(np.linalg.norm(avg.matrix - expected)))
            rebuilt = correlation_reconstruct(s)
            reconstruct_worst = max(
                reconstruct_worst, float(np.linalg.norm(rebuilt.matrix - s.joint.matrix))
            )
        record("difference_identity", identity_worst, 1e-9)
        record("asymmetry", asym_worst, 1e-9)
        record("averaged_state", averaged_worst, 1e-10)
        record("correlation_reconstruction", reconstruct_worst, 1e-10)

    ok = all(c["pass"] for c in checks)
    if args.format == "csv":
        _emit_csv(
            ["check", "max_residual", "tolerance", "pass"],
            [[c["check"], c["max_residual"], c["tolerance"], c["pass"]] for c in checks],
            args.out,
        )
    else:
        payload = {
            "command": "verify",
            "d": d,
            "samples": args.samples,
            "seed": args.seed,
            "checks": checks,
            "pass": ok,
        }
        _emit_json(payload, args.out)
    return 0 if ok else 1


def _parse_decoder(spec: str):
    if spec == "bell":
        return sim.BellDecoder()
    if spec == "single" or spec.startswith("single:"):
        basis = spec.split(":", 1)[1] if ":" in spec else "z"
        if basis not in ("x", "y", "z"):
            raise ParseError(f"decoder basis must be x, y, or z, got {basis!r}")
        return sim.SingleParticleDecoder(basis)
    raise ParseError(f"decoder must be 'bell' or 'single[:basis]', got {spec!r}")


def cmd_simulate(args) -> int:
    if args.trials < 1:
        raise ParseError(f"--trials must be >= 1, got {args.trials}")
    if args.protocol == "quantum":
        s = _as_bipartite(load_state(args.state or "bell"), args.dims)
        if args.ensemble:
            e = ensemble_from_json(_load_json(args.ensemble))
        elif s.dim_a == 2:
            e = canonical_qubit_set(OrthonormalFrame.standard())
        else:
            e = weyl_set(s.dim_a)
        trace = sim.run_quantum_dense(s, e, _parse_decoder(args.decoder), args.trials, args.seed)
    else:
        if args.joint:
            parts = args.joint.split(",")
            if len(parts) != 4:
                raise ParseError(f"--joint needs four probabilities, got {args.joint!r}")
            try:
                table = np.array([float(p) for p in parts]).reshape(2, 2)
            except ValueError:
                raise ParseError(f"--joint needs numbers, got {args.joint!r}") from None
            state = sim.ClassicalJointState(table)
        else:
            state = sim.ClassicalJointState.maximally_correlated()
        trace = sim.run_classical_dense(state, args.use_key, args.trials, args.seed)

    if args.format == "csv":
        rows = [
            [a, b, int(trace.joint_counts[a, b])]
            for a in range(trace.joint_counts.shape[0])
            for b in range(trace.joint_counts.shape[1])
        ]
        _emit_csv(["message", "outcome", "count"], rows, args.out)
    else:
        payload = {"command": "simulate", "protocol": args.protocol, **trace.to_json()}
        _emit_json(payload, args.out)
    return 0


def cmd_entanglement(args) -> int:
    _check_tol(args.tol)
    if args.restarts < 1:
        raise ParseError(f"--restarts must be >= 1, got {args.restarts}")
    s = _as_bipartite(load_state(args.state), args.dims)
    result = ent.convex_roof(s, m=args.m, restarts=args.restarts, tol=args.tol, seed=args.seed)
    record = result.to_json()
    payload = {
        "command": "entanglement",
        "state": args.state,
        "value": record["value"],
        "restarts_used": record["restarts_used"],
        "converged": record["converged"],
    }
    ok = result.converged
    oracle_gap = None
    if s.dims == (2, 2):
        c, ef = ent.concurrence_oracle(s)
        oracle_gap = abs(result.value - 2.0 * ef)
        payload["oracle"] = {"concurrence": c, "ef": ef, "two_ef": 2.0 * ef, "gap": oracle_gap}
        ok = oracle_gap < 5e-3
    payload["pass"] = ok
    if args.show_decomposition:
        payload["decomposition"] = record["decomposition"]
    if args.format == "csv":
        _emit_csv(
            ["value", "oracle_two_ef", "gap", "converged", "pass"],
            [[
                result.value,
                2.0 * payload["oracle"]["ef"] if oracle_gap is not None else "",
                oracle_gap if oracle_gap is not None else "",
                result.converged,
                ok,
            ]],
            args.out,
        )
    else:
        _emit_json(payload, args.out)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densecap",
        description="Noiseless-channel capacities with and without dense coding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("capacity", help="capacities, mutual information, identity residuals")
    p.add_argument("--state", default="bell", help="path or bell|werner:p|max-entangled:d|bloch:x,y,z")
    p.add_argument("--dims", default=None, help="bipartite split d_A,d_B for raw matrix input")
    p.add_argument("--direction", choices=["a2b", "b2a"], default="a2b")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--sweep", default=None, help="p0:p1:step sweep over the werner family")
    p.add_argument("--cross-check", action="store_true", help="also optimize the signal prior")
    common(p)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("verify", help="randomized twirl / orthogonality / identity checks")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--ensemble", default=None, help="check an ensemble JSON file instead")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="Monte-Carlo protocol simulation")
    p.add_argument("--protocol", choices=["quantum", "classical"], default="quantum")
    p.add_argument("--state", default=None, help="quantum: shared pair (default bell)")
    p.add_argument("--dims", default=None)
    p.add_argument("--ensemble", default=None, help="quantum: encoding ensemble JSON")
    p.add_argument("--decoder", default="bell", help="bell or single[:x|y|z]")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--joint", default=None, help="classical: p00,p01,p10,p11")
    p.add_argument("--use-key", action=argparse.BooleanOptionalAction, default=True)
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("entanglement", help="convex-roof correlation functional")
    p.add_argument("--state", default="bell")
    p.add_argument("--dims", default=None)
    p.add_argument("--m", type=int, default=None, help="decomposition cardinality")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--show-decomposition", action="store_true")
    common(p)
    p.set_defaults(func=cmd_entanglement)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise ParseError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DenseCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
