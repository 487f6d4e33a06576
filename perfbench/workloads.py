"""The four benchmark workloads: inputs made from the seed, and output checks.

Every check compares the program's output with a reference the benchmark
computes itself with numpy (closed forms, entropies from its own
eigenvalues, the Wootters formula, Born-rule tables), so a change that
breaks a densecap function cannot also break its reference.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np


class CheckError(Exception):
    """The program's output disagrees with the benchmark's reference."""


@dataclass
class Op:
    """One closed-loop operation: a CLI command or one library call.

    `check(stdout)` returns (pass reported by the program, deviation from
    the reference in bits) and raises CheckError on a wrong value.
    """

    name: str
    argv: list[str]
    check: object
    library: bool = False
    units: dict = field(default_factory=dict)


@dataclass
class Workload:
    ops: list[Op]
    # deviations below this read as this: the reference's resolution
    err_floor: float


# --- references --------------------------------------------------------------


def _entropy(m: np.ndarray) -> float:
    lam = np.clip(np.linalg.eigvalsh(m), 0.0, 1.0)
    lam = lam[lam > 0.0]
    return float(-np.sum(lam * np.log2(lam)))


def _reduce(m: np.ndarray, dims: tuple[int, int], keep: str) -> np.ndarray:
    four = m.reshape(dims[0], dims[1], dims[0], dims[1])
    return np.einsum("ijkj->ik", four) if keep == "A" else np.einsum("ijil->jl", four)


def _h2(p: float) -> float:
    return 0.0 if p <= 0.0 or p >= 1.0 else -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def _two_ef(m: np.ndarray) -> float:
    """Twice the Wootters entanglement of formation of a two-qubit state."""
    yy = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
    mus = np.sort(np.sqrt(np.clip(np.linalg.eigvals(m @ yy @ m.conj() @ yy).real, 0.0, None)))[::-1]
    c = max(0.0, float(mus[0] - mus[1] - mus[2] - mus[3]))
    return 2.0 * _h2((1.0 + math.sqrt(max(0.0, 1.0 - c * c))) / 2.0)


def _eigen_cost(m: np.ndarray, dims: tuple[int, int]) -> float:
    """Decomposition cost of the eigendecomposition: an upper bound on E."""
    lam, vecs = np.linalg.eigh(m)
    cost = 0.0
    for p, v in zip(lam, vecs.T):
        if p > 1e-12:
            s = np.linalg.svd(v.reshape(dims), compute_uv=False) ** 2
            s = s[s > 0.0]
            cost += p * 2.0 * float(-np.sum(s * np.log2(s)))
    return cost


def _plugin_mi(counts: np.ndarray) -> float:
    p = counts / counts.sum()
    indep = np.outer(p.sum(axis=1), p.sum(axis=0))
    mask = p > 0
    return float(np.sum(p[mask] * np.log2(p[mask] / indep[mask])))


def _close(name: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        raise CheckError(f"{name}: got {got!r}, reference {want!r}")


# --- inputs ------------------------------------------------------------------


def _ginibre(rng: np.random.Generator, d: int, rank: int | None = None) -> np.ndarray:
    r = d if rank is None else rank
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    m = g @ g.conj().T
    m = m / np.trace(m).real
    return (m + m.conj().T) / 2.0


def _haar(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _state_json(m: np.ndarray) -> dict:
    return {"dim": int(m.shape[0]), "matrix": np.stack([m.real, m.imag], axis=-1).tolist()}


def _write(work: str, name: str, obj: dict) -> str:
    path = os.path.join(work, name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(0, 2**31)))


# --- capacity-cli ------------------------------------------------------------


def _werner_reference(p: float) -> dict:
    lam = np.array([(1 + 3 * p) / 4] + [(1 - p) / 4] * 3)
    lam = lam[lam > 0]
    s_ab = float(-np.sum(lam * np.log2(lam)))
    return {"c_normal": 0.0, "c_dense_ab": 2.0 - s_ab, "c_dense_ba": 2.0 - s_ab, "mutual_info": 2.0 - s_ab}


def _check_sweep(step: float, count: int, fmt: str):
    def check(out: str):
        if fmt == "json":
            payload = json.loads(out)
            rows = payload["rows"]
            table = [[r["param"], r["c_normal_a"], r["c_dense_ab"], r["c_dense_ba"], r["mutual_info"]] for r in rows]
            err = max(max(r["residual_ab"], r["residual_ba"]) for r in rows)
            reported = payload["pass"]
        else:
            lines = out.strip().split("\n")
            if lines[0] != "param,c_normal,c_dense_ab,c_dense_ba,mutual_info":
                raise CheckError(f"csv header {lines[0]!r}")
            table = [[float(x) for x in line.split(",")] for line in lines[1:]]
            err, reported = 0.0, True
        if len(table) != count:
            raise CheckError(f"sweep has {len(table)} rows, expected {count}")
        for i, (param, c_normal, c_ab, c_ba, mi) in enumerate(table):
            _close("param", param, i * step, 1e-11)
            ref = _werner_reference(i * step)
            for key, got in (("c_normal", c_normal), ("c_dense_ab", c_ab), ("c_dense_ba", c_ba), ("mutual_info", mi)):
                _close(f"p={param} {key}", got, ref[key], 1e-9)
        return reported, err

    return check


def _check_verify(out: str):
    payload = json.loads(out)
    for c in payload["checks"]:
        if not c["max_residual"] < c["tolerance"] or c["pass"] is not True:
            raise CheckError(f"verify check {c['check']} residual {c['max_residual']}")
    err = max(c["max_residual"] for c in payload["checks"] if c["check"] == "difference_identity")
    return payload["pass"], err


def _check_cross(m: np.ndarray, dims: tuple[int, int]):
    def check(out: str):
        p = json.loads(out)
        s_a, s_b, s_ab = _entropy(_reduce(m, dims, "A")), _entropy(_reduce(m, dims, "B")), _entropy(m)
        la, lb = math.log2(dims[0]), math.log2(dims[1])
        if p["dims"] != list(dims):
            raise CheckError(f"dims {p['dims']} != {list(dims)}")
        ref = {
            "c_normal_a": la - s_a,
            "c_normal_b": lb - s_b,
            "c_dense_ab": la + s_b - s_ab,
            "c_dense_ba": lb + s_a - s_ab,
            "mutual_info": s_a + s_b - s_ab,
        }
        for key, want in ref.items():
            _close(key, p[key], want, 1e-9)
        # C(A->B) - C(B->A) = log2 dA - log2 dB + S(B) - S(A) on every split
        _close("asymmetry identity", p["c_dense_ab"] - p["c_dense_ba"], la - lb + s_b - s_a, 1e-9)
        cc = p["cross_check"]
        _close("cross-check chi", cc["chi"], ref["c_dense_ab"], 1e-6)
        if not cc["converged"]:
            raise CheckError("cross-check optimizer did not converge")
        return p["pass"], max(p["residual_ab"], p["residual_ba"], cc["difference"])

    return check


def capacity_cli(rng: np.random.Generator, work: str, quick: bool) -> Workload:
    step = 0.01 if quick else 0.001
    samples = "20" if quick else "100"
    count = int(round(1 / step)) + 1
    ops = [
        Op("sweep-json", ["capacity", "--state", "werner", "--sweep", f"0:1:{step}"],
           _check_sweep(step, count, "json"), units={"points": count}),
        Op("sweep-csv", ["capacity", "--state", "werner", "--sweep", f"0:1:{step}", "--format", "csv"],
           _check_sweep(step, count, "csv"), units={"points": count}),
        Op("verify-d2", ["verify", "--d", "2", "--samples", samples, "--seed", _seed(rng)], _check_verify),
        Op("verify-d3", ["verify", "--d", "3", "--samples", samples, "--seed", _seed(rng)], _check_verify),
    ]
    for dims in ((2, 2), (3, 3), (2, 3)):
        m = _ginibre(rng, dims[0] * dims[1])
        path = _write(work, f"cross-{dims[0]}x{dims[1]}.json", _state_json(m))
        argv = ["capacity", "--state", path, "--cross-check"]
        if dims[0] != dims[1]:
            argv += ["--dims", f"{dims[0]},{dims[1]}"]
        ops.append(Op(f"cross-check-{dims[0]}x{dims[1]}", argv, _check_cross(m, dims)))
    return Workload(ops, err_floor=1e-12)


# --- prior-opt ---------------------------------------------------------------

# (d, states, base seed).  The base ensembles are fixed and each run applies
# a seeded global unitary and permutation: the capacity problem is unitarily
# invariant, so every seed costs the same number of optimizer iterations
# (1,090 and 870 here) while the matrices the program sees differ.
_PRIOR_FULL = [(8, 20, 3), (4, 10, 0)]
_PRIOR_QUICK = [(3, 6, 4)]


def _check_prior(mats: list[np.ndarray]):
    def check(out: str):
        r = json.loads(out)
        prior = np.array(r["prior"])
        if prior.shape != (len(mats),) or np.any(prior < 0) or abs(prior.sum() - 1) > 1e-9:
            raise CheckError("prior is not a distribution over the signal states")
        sigma = np.einsum("a,aij->ij", prior, np.stack(mats))
        mu, vecs = np.linalg.eigh(sigma)
        log_sigma = (vecs * np.log2(np.clip(mu, 1e-300, None))) @ vecs.conj().T
        entropies = np.array([_entropy(m) for m in mats])
        div = np.array([-s - np.trace(m @ log_sigma).real for m, s in zip(mats, entropies)])
        chi = _entropy(sigma) - float(prior @ entropies)
        _close("chi", r["chi"], chi, 1e-9)
        return r["converged"], float(div.max()) - chi

    return check


def prior_opt(rng: np.random.Generator, work: str, quick: bool) -> Workload:
    ops = []
    for d, n, base in _PRIOR_QUICK if quick else _PRIOR_FULL:
        base_rng = np.random.default_rng(base)
        mats = [_ginibre(base_rng, d) for _ in range(n)]
        v = _haar(rng, d)
        mats = [v @ mats[i] @ v.conj().T for i in rng.permutation(n)]
        mats = [(m + m.conj().T) / 2.0 for m in mats]
        path = _write(work, f"ensemble-d{d}-n{n}.json", {"states": [_state_json(m) for m in mats]})
        ops.append(Op(f"optimize-d{d}-n{n}", [path], _check_prior(mats), library=True))
    # the optimizer stops once the gap is below its default tolerance 1e-9
    return Workload(ops, err_floor=1e-9)


# --- roof --------------------------------------------------------------------


def _check_roof(m: np.ndarray, dims: tuple[int, int]):
    def check(out: str):
        p = json.loads(out)
        value = p["value"]
        if not 0.0 <= value <= _eigen_cost(m, dims) + 1e-9:
            raise CheckError(f"roof value {value} outside [0, eigendecomposition cost]")
        if dims != (2, 2):
            return p["pass"], 0.0
        two_ef = _two_ef(m)
        if not two_ef - 1e-6 <= value <= two_ef + 5e-3:
            raise CheckError(f"roof value {value} vs oracle 2E_F {two_ef}")
        return p["pass"], abs(value - two_ef)

    return check


def roof(rng: np.random.Generator, work: str, quick: bool) -> Workload:
    restarts = ["--restarts", "2" if quick else "4"]
    bell = np.zeros((4, 4))
    bell[np.ix_([0, 3], [0, 3])] = 0.5
    ops = []
    # The Werner grid and its restart seed (the CLI default) are fixed: the
    # search's sweep count, and so its time, moves by +-15% with p and seed.
    for p in [0.6] if quick else [0.6, 0.85]:
        m = p * bell + (1 - p) * np.eye(4) / 4
        ops.append(Op(f"werner-{p}", ["entanglement", "--state", f"werner:{p}", *restarts], _check_roof(m, (2, 2))))
    for i, rank in enumerate((2,) if quick else (2, 3, 3)):
        m = _ginibre(rng, 4, rank)
        path = _write(work, f"roof-{i}.json", _state_json(m))
        argv = ["entanglement", "--state", path, *restarts, "--seed", _seed(rng)]
        ops.append(Op(f"rank{rank}-{i}", argv, _check_roof(m, (2, 2))))
    m = _ginibre(rng, 6, 2)
    path = _write(work, "roof-2x3.json", _state_json(m))
    argv = ["entanglement", "--state", path, "--dims", "2,3", *restarts, "--seed", _seed(rng)]
    ops.append(Op("rank2-2x3", argv, _check_roof(m, (2, 3))))
    # seeded searches land 1e-5..3e-4 bits above the oracle; the CLI accepts 5e-3
    return Workload(ops, err_floor=1e-3)


# --- simulate ----------------------------------------------------------------


def _check_sim(expected: np.ndarray, trials: int):
    """Counts against Born-rule probabilities, 6 sigma per cell."""
    born_mi = _plugin_mi(expected)

    def check(out: str):
        r = json.loads(out)
        counts = np.array(r["counts"], dtype=float)
        if counts.shape != expected.shape or counts.sum() != trials:
            raise CheckError(f"count table shape {counts.shape}, total {counts.sum()}")
        mean = trials * expected
        if np.any(counts[expected == 0] != 0):
            raise CheckError("counts in a cell of Born probability 0")
        sd = np.sqrt(mean * (1 - expected))
        z = np.abs(counts - mean)[expected > 0] / sd[expected > 0]
        if z.max() > 6.0:
            raise CheckError(f"count table {z.max():.1f} sigma from the Born rule")
        _close("empirical_mi", r["empirical_mi"], max(_plugin_mi(counts), 0.0), 1e-9)
        return True, abs(r["empirical_mi"] - born_mi)

    return check


def simulate(rng: np.random.Generator, work: str, quick: bool) -> Workload:
    trials = 100_000 if quick else 10_000_000
    n = str(trials)
    # canonical messages {1, X, Y, Z} on the Bell pair: the Bell decoder
    # reads the message back, the z measurement of A alone is a fair coin
    variants = [
        ("quantum-bell", ["--protocol", "quantum", "--decoder", "bell"], np.eye(4) / 4),
        ("quantum-single-z", ["--protocol", "quantum", "--decoder", "single:z"], np.full((4, 2), 1 / 8)),
        ("classical-keyed", ["--protocol", "classical", "--use-key"], np.eye(2) / 2),
    ]
    ops = [
        Op(name, ["simulate", *args, "--trials", n, "--seed", _seed(rng)], _check_sim(table, trials))
        for name, args, table in variants
    ]
    # the plug-in estimator's bias at 10^7 trials is below 1e-6 bits
    return Workload(ops, err_floor=1e-5)


WORKLOADS = {"capacity-cli": capacity_cli, "prior-opt": prior_opt, "roof": roof, "simulate": simulate}
