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
import bisect
import contextlib
import functools
import json
import math
import sys
from itertools import chain

import numpy as np

from . import capacity as cap, encodings as enc, entanglement as ent, protosim as sim, sampling
from .errors import DenseCapError, InvalidState, ParseError
from .qstate import (
    BipartiteState,
    DensityMatrix,
    bell_state,
    _gamma_arrays,
    _kron,
    _reconstruct_arrays,
    _validated_spectra,
    from_bloch,
    gellmann_basis,
    max_entangled_state,
    state_from_json,
    werner_matrices,
    werner_state,
)


# caps on sizes that a command line sets, checked before anything is allocated
MAX_SWEEP_POINTS = 1_000_000
MAX_DIM = 10
MAX_RESTARTS = 1_000
MAX_TRIALS = 10_000_000_000
# verify draws and checks its random samples in blocks of this many
VERIFY_BLOCK = 256
# a Werner sweep is computed and written in blocks of this many points
SWEEP_BLOCK = 1024
# capacity's CSV header, and the row keys of its columns after param
_CAPACITY_CSV_HEADER = ["param", "c_normal", "c_dense_ab", "c_dense_ba", "mutual_info"]
_CAPACITY_CSV_KEYS = ("c_normal_a", "c_dense_ab", "c_dense_ba", "mutual_info")
# flags checked against a range once parsed: flag -> (test, the values it allows)
_RANGES = {
    "--d": (lambda n: 2 <= n <= 6, "in 2..6"),
    "--samples": (lambda n: 1 <= n <= MAX_SWEEP_POINTS, f"in 1..{MAX_SWEEP_POINTS:,}"),
    "--trials": (lambda n: 1 <= n <= MAX_TRIALS, f"in 1..{MAX_TRIALS:,}"),
    "--restarts": (lambda n: 1 <= n <= MAX_RESTARTS, f"in 1..{MAX_RESTARTS:,}"),
    "--seed": (lambda n: 0 <= n < 2**128, "in 0..2**128 - 1"),  # the range of a Philox key
    "--tol": (lambda t: math.isfinite(t) and t > 0.0, "finite and > 0"),
}
# flags that apply in one mode only, each parsed to None so that a given one shows:
# (command, flag) -> (default, {flag that sets the mode: its value there, None for not given})
_MODE_ONLY = {
    ("capacity", "--sweep"): (None, {"--state": "werner"}),
    ("capacity", "--dims"): (None, {"--sweep": None}),
    ("capacity", "--cross-check"): (None, {"--sweep": None}),
    ("capacity", "--direction"): ("a2b", {"--sweep": None, "--cross-check": True}),
    ("verify", "--d"): (2, {"--ensemble": None}),
    ("simulate", "--state"): ("bell", {"--protocol": "quantum"}),
    ("simulate", "--dims"): (None, {"--protocol": "quantum"}),
    ("simulate", "--ensemble"): (None, {"--protocol": "quantum"}),
    ("simulate", "--decoder"): ("bell", {"--protocol": "quantum"}),
    ("simulate", "--joint"): ("0.5,0,0,0.5", {"--protocol": "classical"}),  # maximally correlated
    ("simulate", "--use-key"): (True, {"--protocol": "classical"}),
    ("entanglement", "--show-decomposition"): (None, {"--format": "json"}),
}


def _fmt(x: float) -> str:
    return "%.12g" % x


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x: float) -> str:
    """x rounded to 12 significant digits, in the text json.dumps gives that float.

    The sweep writes each value through this, faster than json.dumps.
    .12g already is the shortest round-trip text of the rounded value,
    except where repr adds ".0" to an integer, writes 1e12 <= |x| < 1e16
    in fixed notation, or shortens a subnormal.
    """
    text = "%.12g" % x
    if "e" not in text:
        return text if "." in text else _NONFINITE.get(text) or text + ".0"
    if abs(x) >= sys.float_info.min and not 12 <= int(text[text.index("e") + 1 :]) < 16:
        return text
    return repr(float(text))


def _jsonable(value):
    """value with each float rounded to 12 significant digits, numpy values as Python ones."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float):
        return float(_fmt(value))
    if isinstance(value, (np.ndarray, np.generic)):
        return _jsonable(value.tolist())
    return value


def _json_text(value) -> str:
    return json.dumps(_jsonable(value), indent=2)


def _open_out(out: str | None):
    return open(out, "w") if out else contextlib.nullcontext(sys.stdout)


def _csv_field(x) -> str:
    """x as a CSV field: floats by _fmt, quoted as RFC 4180 asks where it holds , " CR or LF."""
    text = _fmt(x) if isinstance(x, float) else str(x)
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def _finish(args, ok: bool, payload: dict, header: list[str], rows: list[list]) -> int:
    """Write payload as JSON, or header and rows as CSV, to --out or stdout; the exit code of ok."""
    if args.format == "csv":
        text = "\n".join(",".join(map(_csv_field, row)) for row in [header, *rows])
    else:
        text = _json_text(payload)
    with _open_out(args.out) as fh:
        fh.write(text + "\n")
    return 0 if ok else 1


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, bytes that are not text, or nesting too deep
        raise ParseError(f"{path}: {exc}") from None


def load_state(spec: str) -> DensityMatrix | BipartiteState:
    """Resolve a --state argument: built-in name or JSON file path."""
    if spec == "bell":
        return bell_state()
    if spec.partition(":")[0] == "werner":  # bare werner too: only --sweep sets p itself
        try:
            return werner_state(float(spec[len("werner:") :]))
        except ValueError:
            raise ParseError(f"--state needs werner:p with a number p, got {spec!r}") from None
    if spec.startswith("max-entangled:"):
        try:
            d = int(spec.split(":", 1)[1])
        except ValueError:
            raise ParseError(f"bad dimension in {spec!r}") from None
        if d > MAX_DIM:
            raise ParseError(f"{spec!r} exceeds the largest dimension, {MAX_DIM}")
        return max_entangled_state(d)
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
    """state split by --dims, else as its file splits it, else into two equal factors, none above MAX_DIM."""
    joint = state.joint if isinstance(state, BipartiteState) else state
    if dims_flag:
        try:
            d_a, d_b = (int(part) for part in dims_flag.split(","))
        except ValueError:  # a part that is not an integer, or not two parts
            raise ParseError(f"--dims needs two integers, got {dims_flag!r}") from None
    elif isinstance(state, BipartiteState):
        d_a, d_b = state.dims
    else:
        d_a = d_b = math.isqrt(state.dim)
        if d_a * d_b != state.dim:
            raise InvalidState(f"cannot infer a bipartite split of dimension {state.dim}; pass --dims")
    if max(d_a, d_b) > MAX_DIM:
        raise ParseError(f"split {d_a},{d_b} exceeds the largest dimension, {MAX_DIM}")
    return BipartiteState(joint, (d_a, d_b))


def _load_ensemble(path: str) -> enc.EncodingEnsemble:
    """The ensemble of a JSON file, of dimension at most MAX_DIM."""
    e = enc.ensemble_from_json(_load_json(path))
    if e.dim > MAX_DIM:
        raise ParseError(f"ensemble dimension {e.dim} exceeds the largest dimension, {MAX_DIM}")
    return e


def _parse_sweep(spec: str) -> tuple[float, float, int]:
    """The sweep's points p0 + step * k, k < n, as (p0, step, n); Python rounds them as numpy does."""
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
    return p0, step, bisect.bisect_right(range(count), p1 + 1e-12, key=lambda k: p0 + step * k)


def _sweep_blocks(p0: float, step: float, n: int):
    """The param and capacity columns of each block of SWEEP_BLOCK points, every point's range checked first."""
    above = bisect.bisect_right(range(n), 1.0, key=lambda k: p0 + step * k)
    # the points ascend, so the first outside [-1/3, 1], if any, is p0 or the first above 1
    werner_matrices([p0, p0 + step * min(above, n - 1)])
    for start in range(0, n, SWEEP_BLOCK):
        ps = p0 + step * np.arange(start, min(start + SWEEP_BLOCK, n))
        joints = werner_matrices(ps)
        cols, _, _ = cap._stack_columns(joints, _validated_spectra(joints), (2, 2))
        yield {"param": ps, **cols}


def _write_sweep(args, blocks) -> bool:
    """Write the sweep of an iterator of _sweep_blocks, formatting each column once; True if all pass."""
    first = next(blocks)
    if args.format == "csv":
        keys, number, sep = ("param", *_CAPACITY_CSV_KEYS), _fmt, "\n"
        head, template = ",".join(_CAPACITY_CSV_HEADER) + sep, ",".join(["%s"] * len(keys))
    else:  # one row template, and the payload around the rows, both laid out by _json_text
        keys, number, sep = list(first), _json_float, ",\n    "  # the rows sit two levels deep
        template = _json_text(dict.fromkeys(keys)).replace("\n", sep[1:]).replace("null", "%s")
        payload = {"command": "capacity", "family": "werner", "sweep": args.sweep, "rows": [None], "pass": None}
        head, middle, end = _json_text(payload).rsplit("null", 2)
    ok = True
    with _open_out(args.out) as fh:
        fh.write(head)
        for i, cols in enumerate(chain([first], blocks)):
            worst = np.maximum(np.maximum(cols["residual_ab"], cols["residual_ba"]), cols["asymmetry_residual"])
            ok = ok and bool(np.all(worst < args.tol))
            texts = []
            for key in keys:  # each distinct value (bit pattern) of a column is formatted once
                values, inverse = np.unique(cols[key].view(np.int64), return_inverse=True)
                texts.append(np.array(list(map(number, values.view(float).tolist())), dtype=object)[inverse].tolist())
            rows = sep.join([template] * len(texts[0])) % tuple(chain.from_iterable(zip(*texts)))
            fh.write(sep + rows if i else rows)
        fh.write("\n" if args.format == "csv" else middle + _json_text(ok) + end + "\n")
    return ok


def cmd_capacity(args) -> int:
    if args.sweep:
        return 0 if _write_sweep(args, _sweep_blocks(*_parse_sweep(args.sweep))) else 1

    state = load_state(args.state)
    single = isinstance(state, DensityMatrix) and not (args.dims or args.cross_check)
    if single and math.isqrt(state.dim) ** 2 != state.dim:  # only the normal capacity is defined
        c_normal = cap.normal_capacity(state)
        payload = {
            "command": "capacity",
            "state": args.state,
            "dim": state.dim,
            "c_normal": c_normal,
            "pass": True,
        }
        return _finish(args, True, payload, _CAPACITY_CSV_HEADER, [[args.state, c_normal, "", "", ""]])
    s = _as_bipartite(state, args.dims)
    row = cap._capacity_row(s)
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
    return _finish(args, ok, payload, _CAPACITY_CSV_HEADER, [[args.state, *(row[key] for key in _CAPACITY_CSV_KEYS)]])


def _gaussian_blocks(rng: np.random.Generator, samples: int, width: int):
    # one (n, width) draw reads the same numbers as n draws of width
    for start in range(0, samples, VERIFY_BLOCK):
        yield rng.standard_normal((min(VERIFY_BLOCK, samples - start), width))


def _max_norm(diffs: np.ndarray) -> float:
    """Largest Frobenius norm in a stack (s, n, n) of complex matrices.

    Each matrix keeps np.linalg.norm's bits: its real parts' strided BLAS dot
    plus its imaginary parts' (a row times its column is that dot in matmul),
    then one sqrt of the largest, as sqrt is monotone.  A norm over the
    stack's axes rounds differently.
    """
    flat = diffs.reshape(len(diffs), 1, -1)
    return math.sqrt((flat.real @ flat.real.swapaxes(1, 2) + flat.imag @ flat.imag.swapaxes(1, 2)).max())


def _twirl_residual(rng: np.random.Generator, samples: int, e=None) -> float:
    """Largest distance from 1/d of random states twirled by the ensemble e, or for
    e = None by the qubit set of a random frame, drawn before each qubit state."""
    d, frame = (2, 9) if e is None else (e.dim, 0)
    prior = np.full(4, 0.25) if e is None else e.prior
    worst = 0.0
    for draws in _gaussian_blocks(rng, samples, frame + 2 * d * d):
        if e is None:
            us = enc._qubit_set_stack(sampling._frame_rows(draws[:, :9].reshape(-1, 3, 3)))
        else:
            us = e.unitaries
        avg = cap._averaged_states(prior, us, sampling._random_states(draws[:, frame:], d))
        worst = max(worst, _max_norm(avg - np.eye(d) / d))
    return worst


def cmd_verify(args) -> int:
    d = args.d
    rng = np.random.default_rng(args.seed)
    checks: list[dict] = []

    def record(name: str, residual: float, tolerance: float) -> None:
        checks.append({"check": name, "max_residual": residual, "tolerance": tolerance, "pass": residual < tolerance})

    if args.ensemble:
        e = _load_ensemble(args.ensemble)
        d = e.dim
        gram, _ = enc.verify_orthogonality(e)
        record("ensemble_gram", float(np.max(np.abs(gram - np.eye(len(e))))), 1e-10)
        record("ensemble_twirl", _twirl_residual(rng, args.samples, e), 1e-10)
    else:
        if d == 2:
            record("frame_twirl", _twirl_residual(rng, args.samples), 1e-12)
        weyl = enc.weyl_set(d)
        gram, _ = enc.verify_orthogonality(weyl)
        record("weyl_gram", float(np.max(np.abs(d * gram - d * np.eye(len(weyl))))), 1e-12)
        record("weyl_twirl", _twirl_residual(rng, args.samples, weyl), 1e-10)
        basis = gellmann_basis(d).lambdas
        basis_gram = np.einsum("aij,bji->ab", basis, basis)
        record(
            "gellmann_orthogonality",
            float(np.max(np.abs(basis_gram - d * np.eye(d * d - 1)))),
            1e-12,
        )

        worst = np.zeros(4)  # difference identity, asymmetry, averaged state, reconstruction
        dd = d * d
        # the sender's ensemble: for d = 2 a random frame's qubit set, drawn after each state
        prior = np.full(4, 0.25) if d == 2 else weyl.prior
        if d > 2:  # one Weyl lift, shared by every sample
            lifts = enc.lift_ensemble(weyl, d).unitaries
        for draws in _gaussian_blocks(rng, args.samples, 2 * dd * dd + (9 if d == 2 else 0)):
            joints = sampling._random_states(draws, dd)
            cols, reduced_a, reduced_b = cap._stack_columns(joints, _validated_spectra(joints), (d, d))

            if d == 2:
                frames = sampling._frame_rows(draws[:, 2 * dd * dd :].reshape(-1, 3, 3))
                lifts = _kron(enc._qubit_set_stack(frames), np.eye(2, dtype=complex))
            avg = cap._averaged_states(prior, lifts, joints)
            _validated_spectra(avg)
            averaged = _max_norm(avg - _kron(np.eye(d) / d, reduced_b))
            del avg  # freed before the reconstruction, which sets the block's peak memory
            rebuilt = _reconstruct_arrays(_gamma_arrays(joints, reduced_a, reduced_b), reduced_a, reduced_b)
            _validated_spectra(rebuilt)
            worst = np.maximum(worst, [
                max(cols["residual_ab"].max(), cols["residual_ba"].max()),
                cols["asymmetry_residual"].max(),
                averaged,
                _max_norm(rebuilt - joints),
            ])
        names = ("difference_identity", "asymmetry", "averaged_state", "correlation_reconstruction")
        for name, residual, tolerance in zip(names, worst.tolist(), (1e-9, 1e-9, 1e-10, 1e-10)):
            record(name, residual, tolerance)

    ok = all(c["pass"] for c in checks)
    payload = {
        "command": "verify",
        "d": d,
        "samples": args.samples,
        "seed": args.seed,
        "checks": checks,
        "pass": ok,
    }
    header = ["check", "max_residual", "tolerance", "pass"]  # the keys of each check
    return _finish(args, ok, payload, header, [list(c.values()) for c in checks])


def cmd_simulate(args) -> int:
    if args.protocol == "quantum":
        s = _as_bipartite(load_state(args.state), args.dims)
        if args.ensemble:
            e = _load_ensemble(args.ensemble)
        elif s.dim_a == 2:
            e = enc.canonical_qubit_set(enc.OrthonormalFrame.standard())
        else:
            e = enc.weyl_set(s.dim_a)
        basis = args.decoder.partition(":")[2] or "z"  # of a single-particle decoder
        decoder = sim.BellDecoder() if args.decoder == "bell" else sim.SingleParticleDecoder(basis)
        trace = sim.run_quantum_dense(s, e, decoder, args.trials, args.seed)
    else:
        try:
            table = np.array([float(p) for p in args.joint.split(",")]).reshape(2, 2)
        except ValueError:  # a part that is not a number, or not four parts
            raise ParseError(f"--joint needs four numbers p00,p01,p10,p11, got {args.joint!r}") from None
        trace = sim.run_classical_dense(sim.ClassicalJointState(table), args.use_key, args.trials, args.seed)

    rows = [[a, b, n] for a, counts in enumerate(trace.joint_counts.tolist()) for b, n in enumerate(counts)]
    payload = {"command": "simulate", "protocol": args.protocol, **trace.to_json()}
    return _finish(args, True, payload, ["message", "outcome", "count"], rows)


def cmd_entanglement(args) -> int:
    s = _as_bipartite(load_state(args.state), args.dims)
    # no state needs more than (d_A d_B)^2 pure terms (Caratheodory)
    if args.m is not None and not 1 <= args.m <= s.joint.dim**2:
        raise ParseError(f"--m must be in 1..{s.joint.dim**2} for this state, got {args.m}")
    result = ent.convex_roof(s, m=args.m, restarts=args.restarts, tol=args.tol, seed=args.seed)
    payload = {
        "command": "entanglement",
        "state": args.state,
        "value": result.value,
        "restarts_used": result.restarts_used,
        "converged": result.converged,
    }
    ok = result.converged
    oracle = {}
    if s.dims == (2, 2):
        c, ef = ent.concurrence_oracle(s)
        oracle = {"concurrence": c, "ef": ef, "two_ef": 2.0 * ef, "gap": abs(result.value - 2.0 * ef)}
        payload["oracle"] = oracle
        ok = oracle["gap"] < 5e-3
    payload["pass"] = ok
    if args.show_decomposition:
        payload["decomposition"] = result.to_json()["decomposition"]
    row = [result.value, oracle.get("two_ef", ""), oracle.get("gap", ""), result.converged, ok]
    return _finish(args, ok, payload, ["value", "oracle_two_ef", "gap", "converged", "pass"], [row])


def _check_flags(args) -> None:
    """Reject a flag of _MODE_ONLY given outside its mode, then a flag of _RANGES
    given a value outside its range; set each flag of _MODE_ONLY not given to its default."""
    values = {"--" + dest.replace("_", "-"): value for dest, value in vars(args).items()}
    rows = [(flag, *row) for (command, flag), row in _MODE_ONLY.items() if command == args.command]
    for flag, _, modes in rows:
        for mode, value in modes.items():
            if values[flag] is not None and values[mode] != value:
                needs = f"{flag} needs {mode}" + ("" if value is True else f" {value}")
                raise ParseError(needs if value is not None else f"{mode} cannot be combined with {flag}")
    for flag, (test, allowed) in _RANGES.items():
        if values.get(flag) is not None and not test(values[flag]):
            raise ParseError(f"{flag} must be {allowed}, got {values[flag]}")
    for flag, default, _ in rows:
        if values[flag] is None:
            setattr(args, flag[2:].replace("-", "_"), default)


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a malformed command line as a ParseError: one `error:` line, exit 3."""

    def error(self, message):
        raise ParseError(message)


@functools.cache  # one parser per process, shared by every caller (main too), so never modify it
def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="densecap",
        description="Noiseless-channel capacities with and without dense coding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("capacity", help="capacities, mutual information, identity residuals")
    p.add_argument("--state", default="bell", help="path or bell|werner:p|max-entangled:d|bloch:x,y,z")
    p.add_argument("--dims", help="bipartite split d_A,d_B for raw matrix input")
    p.add_argument("--direction", choices=["a2b", "b2a"], help="with --cross-check (default a2b)")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--sweep", help="p0:p1:step sweep over the werner family")
    p.add_argument("--cross-check", action="store_true", default=None, help="also optimize the signal prior")
    common(p, seed=False)  # capacity draws nothing
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("verify", help="randomized twirl / orthogonality / identity checks")
    p.add_argument("--d", type=int, help="dimension (default 2)")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--ensemble", default=None, help="check an ensemble JSON file instead")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="Monte-Carlo protocol simulation")
    p.add_argument("--protocol", choices=["quantum", "classical"], default="quantum")
    p.add_argument("--state", help="quantum: shared pair (default bell)")
    p.add_argument("--dims", help="quantum: bipartite split d_A,d_B")
    p.add_argument("--ensemble", help="quantum: encoding ensemble JSON")
    decoders = ["bell", "single", "single:x", "single:y", "single:z"]
    p.add_argument("--decoder", choices=decoders, help="quantum (default bell; single measures z)")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--joint", help="classical: p00,p01,p10,p11 (default 0.5,0,0,0.5)")
    p.add_argument("--use-key", action=argparse.BooleanOptionalAction, help="classical (default on)")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("entanglement", help="convex-roof correlation functional")
    p.add_argument("--state", default="bell")
    p.add_argument("--dims", default=None)
    p.add_argument("--m", type=int, default=None, help="decomposition cardinality")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--show-decomposition", action="store_true", default=None, help="json only")
    common(p)
    p.set_defaults(func=cmd_entanglement)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_flags(args)
        return args.func(args)
    except (ParseError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # a missing or unreadable file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DenseCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
