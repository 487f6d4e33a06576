"""Property-based tests (hypothesis) of the toolkit's invariants."""

import argparse
import contextlib
import io
import json
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from densecap import (  # noqa: E402
    average_state,
    canonical_qubit_set,
    ensemble_to_json,
    dense_capacity,
    mutual_information,
    normal_capacity,
    optimize_prior,
    von_neumann_entropy,
    weyl_set,
)
from densecap.cli import _MODE_ONLY, _RANGES, _json_text, _write_sweep, build_parser, main  # noqa: E402
from test_capacity import reference_blahut_arimoto, reference_gap  # noqa: E402
from densecap.sampling import (  # noqa: E402
    random_bipartite_state,
    random_density_matrix,
    random_orthonormal_frame,
)


# the residual tolerance of `densecap capacity` (--tol default) and `verify`
IDENTITY_TOL = 1e-9


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


# the twirl tolerances of `densecap verify`: frame_twirl and weyl_twirl
FRAME_TWIRL_TOL = 1e-12
WEYL_TWIRL_TOL = 1e-10


@settings(max_examples=25, deadline=None, database=None)
@given(d=st.integers(min_value=2, max_value=5), seed=st.integers(min_value=0, max_value=2**63 - 1), data=st.data())
def test_optimize_prior_is_certified(d, seed, data):
    # random ensembles: 1..10 states of rank 1..d, drawn with repeats from a pool
    n = data.draw(st.integers(min_value=1, max_value=10), label="n")
    ranks = data.draw(st.lists(st.integers(min_value=1, max_value=d), min_size=n, max_size=n), label="ranks")
    picks = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n), label="picks")
    rng = np.random.default_rng(seed)
    pool = [random_density_matrix(d, rng, rank=r) for r in ranks]
    states = [pool[i] for i in picks]
    tol = 1e-9
    report = optimize_prior(states, tol=tol)
    assert report.converged
    assert np.all(report.optimal_prior >= 0.0) and abs(report.optimal_prior.sum() - 1.0) < 1e-12
    assert reference_gap(states, report.optimal_prior) < tol
    chi_ref, _, _ = reference_blahut_arimoto(states, tol, max_iter=2_000)
    assert report.chi >= chi_ref - tol


@settings(max_examples=40, deadline=None, database=None)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1), rank=st.integers(min_value=1, max_value=2))
def test_random_frame_twirl_is_maximally_mixed(seed, rank):
    rng = np.random.default_rng(seed)
    e = canonical_qubit_set(random_orthonormal_frame(rng))
    rho = random_density_matrix(2, rng, rank=rank)
    assert np.linalg.norm(average_state(e, rho).matrix - np.eye(2) / 2) < FRAME_TWIRL_TOL


@settings(max_examples=40, deadline=None, database=None)
@given(
    d=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**63 - 1),
    data=st.data(),
)
def test_weyl_twirl_is_maximally_mixed(d, seed, data):
    rank = data.draw(st.integers(min_value=1, max_value=d), label="rank")
    rho = random_density_matrix(d, np.random.default_rng(seed), rank=rank)
    assert np.linalg.norm(average_state(weyl_set(d), rho).matrix - np.eye(d) / d) < WEYL_TWIRL_TOL


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """Input files for the malformed-argv property, by name."""
    root = tmp_path_factory.mktemp("argv")
    qubit_id = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    contents = {
        "broken": "{not json",
        "nan-state": '{"dim": 2, "matrix": [[[0.5, 0], [NaN, 0]], [[NaN, 0], [0.5, 0]]]}',
        "state": json.dumps({"dim": 4, "matrix": np.stack([np.eye(4) / 4, np.zeros((4, 4))], -1).tolist()}),
        "non-unitary": json.dumps({"dim": 2, "unitaries": [[[[1, 0], [0, 0]], [[0, 0], [0.5, 0]]]]}),
        "bad-prior": json.dumps({"dim": 2, "unitaries": [qubit_id], "prior": [0.5]}),
        "empty-ensemble": json.dumps({"dim": 2, "unitaries": []}),
        "infinite-dim": json.dumps({"dim": float("inf"), "unitaries": [qubit_id]}),
        "weyl2": json.dumps(ensemble_to_json(weyl_set(2))),
        "fractional-dim": json.dumps({"dim": 2.7, "matrix": np.stack([np.eye(2) / 2, 0 * np.eye(2)], -1).tolist()}),
        "bloch-true": json.dumps({"bloch": [True, 0, 0]}),
        "wide-ensemble": json.dumps({"dim": 11, "unitaries": [np.stack([np.eye(11), 0 * np.eye(11)], -1).tolist()]}),
        "nested-prior": json.dumps({**ensemble_to_json(weyl_set(2)), "prior": [[0.25, 0.25], [0.25, 0.25]]}),
        "deep-nesting": "[" * 100_000 + "]" * 100_000,
    }
    out = {"dir": str(root), "missing": str(root / "missing.json")}
    for name, text in contents.items():
        (root / f"{name}.json").write_text(text)
        out[name] = str(root / f"{name}.json")
    return out


# every value a flag may take in the property: mostly malformed, plus small
# valid ones (at most 20 samples, trials or restarts) that let other flags reach
# the program; a leading "@" names a file of the paths fixture
BAD_INTS = ["abc", "", "nan", "inf", "1e3", "-1", "0", "99999999999999999999"]
BAD_FLOATS = ["abc", "nan", "inf", "-inf", "0", "-1e-9"]
STATES = [
    "bell", "werner:0.8", "werner:nan", "werner:2", "werner:x", "max-entangled:1", "max-entangled:0",
    "max-entangled:11", "max-entangled:1000", "max-entangled:abc", "bloch:nan,0,0", "bloch:1,1",
    "bloch:2,0,0", "bloch:0,0,1", "@dir", "@missing", "@broken", "@nan-state", "@state", "@fractional-dim",
    "@bloch-true", "@deep-nesting",
]
DIMS = ["1,4", "4,1", "0,0", "-2,-2", "2", "a,b", "nan,nan", "2,2", "3,3", "11,2"]
ENSEMBLES = [
    "@dir", "@missing", "@broken", "@non-unitary", "@bad-prior", "@empty-ensemble", "@infinite-dim", "@weyl2",
    "@wide-ensemble", "@nested-prior", "@deep-nesting",
]
COMMON = {
    # 2**128 is the first seed outside the documented seed range
    "--seed": ["-1", "abc", "nan", "0", "3", "340282366920938463463374607431768211456"],
    "--format": ["json", "csv", "xml"],
    "--out": ["@dir"],
}
COMMANDS = {
    "capacity": {
        "--state": STATES, "--dims": DIMS, "--tol": [*BAD_FLOATS, "1e-9"],
        "--sweep": ["0:1", "0:nan:0.1", "0:1:0", "1:0:0.1", "0:1:1e-12", "a:b:c", "-1e308:1e308:1", "0:1:0.5"],
        "--direction": ["a2b", "b2a", "x"], "--cross-check": None,
    },
    "verify": {
        "--d": ["1", "-1", "7", "1000", "nan", "abc", "2", "3"],
        "--samples": [*BAD_INTS, "1000001", "100000000", "1", "20"], "--ensemble": ENSEMBLES,
    },
    "simulate": {
        "--protocol": ["quantum", "classical", "x"], "--state": STATES, "--dims": DIMS, "--ensemble": ENSEMBLES,
        "--decoder": ["bell", "teleport", "single:w", "single:x"],
        "--trials": [*BAD_INTS, "1", "20"],
        "--joint": ["nan,0,0,1", "inf,0,0,1", "0.3,0.3,0.3,0.3", "1,2", "a,b,c,d", "0.25,0.25,0.25,0.25"],
        "--no-use-key": None,
    },
    "entanglement": {
        "--state": STATES, "--dims": DIMS, "--m": [*BAD_INTS, "3", "4", "17", "100000000"],
        "--restarts": [*BAD_INTS, "1001", "100000000", "1", "2"], "--tol": [*BAD_FLOATS, "1e-6"],
        "--show-decomposition": None,
    },
}
# small valid counts, used unless the example overrides them
BASE = {"verify": ["--samples", "20"], "simulate": ["--trials", "20"], "entanglement": ["--restarts", "2"]}


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_malformed_argv_one_line_error(paths, data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)), label="command")
    flags = {**COMMANDS[command], **COMMON}
    argv = [command, *BASE.get(command, [])]
    for flag in data.draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=4), label="flags"):
        if flags[flag] is None:
            argv.append(flag)
            continue
        value = data.draw(st.sampled_from(flags[flag]), label=flag)
        argv.append(f"{flag}={paths[value[1:]] if value.startswith('@') else value}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in range(5), argv
    assert "Traceback" not in err
    if code >= 2:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    else:
        assert err == "", (argv, err)


def test_malformed_argv_draws_every_checked_flag():
    """Every flag that cli._RANGES or cli._MODE_ONLY checks for a command is one the property may give it."""
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(subparsers.choices) == sorted(COMMANDS)
    for command, parser in subparsers.choices.items():
        drawn = {*COMMANDS[command], *COMMON}
        checked = [flag for flag in _RANGES if flag in parser._option_string_actions]
        checked += [f for (c, flag), (_, modes) in _MODE_ONLY.items() if c == command for f in (flag, *modes)]
        for flag in checked:  # --use-key is drawn as --no-use-key, one of its option strings
            assert drawn & set(parser._option_string_actions[flag].option_strings), (command, flag)


SMALLEST_NORMAL = 2.2250738585072014e-308
FLOAT_KINDS = (
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, SMALLEST_NORMAL, 1e12, 1e16]),
    st.floats(min_value=-SMALLEST_NORMAL, max_value=SMALLEST_NORMAL),  # subnormals
    st.floats(min_value=1e11, max_value=1e17),
    st.floats(min_value=-1e17, max_value=-1e11),
    st.integers(min_value=-(2**60), max_value=2**60).map(float),
)
# the kind is picked by one integer draw: st.one_of builds and labels a new strategy on every
# draw, which the sweep-block property paid for each of its up to 108 floats
FLOATS = st.integers(0, len(FLOAT_KINDS) - 1).flatmap(FLOAT_KINDS.__getitem__)
JSON_SCALARS = st.one_of(
    FLOATS,
    FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    st.none(),
    st.text(),  # non-ASCII characters, quotes, backslashes and control characters
)
ARRAYS = st.one_of(
    FLOATS.map(np.array),
    st.lists(FLOATS, max_size=6).map(np.array),
    st.lists(FLOATS, min_size=2, max_size=12).map(lambda xs: np.array(xs[: len(xs) // 2 * 2]).reshape(2, -1)),
)
JSON_VALUES = st.recursive(
    st.one_of(JSON_SCALARS, ARRAYS),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(), children, max_size=5),
    ),
    max_leaves=30,
)


def assert_read_back(got, value):
    """got, a value that json.loads read back, is value with each float rounded to 12
    significant digits, numpy values as Python ones and tuples as lists, types exact."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, dict):
        assert type(got) is dict and list(got) == list(value)
        for key in value:
            assert_read_back(got[key], value[key])
    elif isinstance(value, (list, tuple)):
        assert type(got) is list and len(got) == len(value)
        for item, want in zip(got, value):
            assert_read_back(item, want)
    elif isinstance(value, float):  # repr tells -0.0 from 0.0 and matches NaN with NaN
        assert type(got) is float and repr(got) == repr(float("%.12g" % value)), (got, value)
    else:
        assert type(got) is type(value) and got == value, (got, value)


@settings(max_examples=400, deadline=None, database=None)
@given(value=JSON_VALUES)
def test_json_emitter_round_trips(value):
    assert_read_back(json.loads(_json_text(value)), value)


SWEEP_KEYS = (
    "param", "c_normal_a", "c_normal_b", "c_dense_ab", "c_dense_ba", "mutual_info",
    "residual_ab", "residual_ba", "asymmetry_residual",
)
SWEEP_BLOCKS = st.lists(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.fixed_dictionaries({key: st.lists(FLOATS, min_size=n, max_size=n) for key in SWEEP_KEYS})
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=150, deadline=None, database=None)
@given(blocks=SWEEP_BLOCKS, sweep=st.text() | st.sampled_from(["null", '"rows": [null], "pass": null']))
def test_sweep_block_renderer_matches_json_emitter(blocks, sweep):
    args = argparse.Namespace(format="json", sweep=sweep, tol=1e-9, out=None)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        ok = _write_sweep(args, iter([{key: np.array(block[key]) for key in SWEEP_KEYS} for block in blocks]))
    rows = [dict(zip(SWEEP_KEYS, values)) for block in blocks for values in zip(*(block[key] for key in SWEEP_KEYS))]
    residuals = ("residual_ab", "residual_ba", "asymmetry_residual")
    assert ok == all(row[key] < 1e-9 for row in rows for key in residuals)
    payload = {"command": "capacity", "family": "werner", "sweep": sweep, "rows": rows, "pass": ok}
    assert out.getvalue() == _json_text(payload) + "\n"
