"""Byte-identical CLI output against stored golden files.

Each file under tests/data/golden/<name>.out holds the exact stdout of
`densecap <argv>` run from that directory.  The files were written by
the release before the batched Werner sweep, the `simulate_*` files by
the release that draws the count table as conditional binomials from
Python's random.Random(seed) instead of numpy.random, `verify_d4` by
the release before the one-pass JSON emitter, the three `entanglement_*`
files by the release that drew the convex roof's restart starts from
Python's random.Random(seed) instead of numpy.random, and the other
`*_csv` files of single commands and `bloch_z*` by the release before
the standard library's JSON encoder replaced the hand-written one, so a change to the numerics or the
formatting of these commands shows here as a byte diff.  The `frame_twirl`
line of `verify_d2` and `verify_d2_csv` and the `weyl_twirl` line of
`verify_d3` and `verify_d4` were regenerated by the release that ran the
twirl checks through capacity._averaged_states, whose rounding differs
from the four-operand einsum it replaced.
Regenerate a file only for a deliberate output change, and say so in
the change log.
"""

from pathlib import Path

import pytest

from densecap.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

COMMANDS = {
    "sweep_json": ["capacity", "--state", "werner", "--sweep=-0.3:1:0.01"],
    "sweep_csv": ["capacity", "--state", "werner", "--sweep=-0.3:1:0.01", "--format", "csv"],
    "verify_d2": ["verify", "--d", "2", "--samples", "20", "--seed", "1"],
    "verify_d2_csv": ["verify", "--d", "2", "--samples", "20", "--seed", "1", "--format", "csv"],
    "verify_d3": ["verify", "--d", "3", "--samples", "20", "--seed", "1"],
    # d >= 3: one Weyl lift shared by every sample
    "verify_d4": ["verify", "--d", "4", "--samples", "20", "--seed", "2"],
    # a nested dict and booleans in the JSON
    "entanglement_werner_085": ["entanglement", "--state", "werner:0.85", "--restarts", "4"],
    "entanglement_werner_085_csv": ["entanglement", "--state", "werner:0.85", "--restarts", "4", "--format", "csv"],
    # the SVD path, with a batch that shrinks from 9 restarts to 1 as they meet the stopping rule
    "entanglement_2x3_restarts9": [
        "entanglement", "--state", "state_2x3.json", "--dims", "2,3", "--restarts", "9", "--show-decomposition"
    ],
    "werner_half": ["capacity", "--state", "werner:0.5"],
    "werner_half_csv": ["capacity", "--state", "werner:0.5", "--format", "csv"],
    # a single system: only the normal capacity, and a CSV field quoted for its commas
    "bloch_z": ["capacity", "--state", "bloch:0,0,1"],
    "bloch_z_csv": ["capacity", "--state", "bloch:0,0,1", "--format", "csv"],
    "max_entangled_3": ["capacity", "--state", "max-entangled:3"],
    "cross_check_2x3": ["capacity", "--state", "state_2x3.json", "--dims", "2,3", "--cross-check"],
    # 200,003 trials, drawn as one multinomial over the nonzero cells; zero cells stay 0
    "simulate_bell": ["simulate", "--decoder", "bell", "--trials", "200003", "--seed", "11"],
    "simulate_single_z": ["simulate", "--decoder", "single:z", "--trials", "200003", "--seed", "12"],
    "simulate_single_z_csv": [
        "simulate", "--decoder", "single:z", "--trials", "200003", "--seed", "12", "--format", "csv"
    ],
    "simulate_weyl3": [
        "simulate", "--state", "max-entangled:3", "--decoder", "single:z", "--trials", "200003", "--seed", "13"
    ],
    "simulate_classical_keyed": [
        "simulate", "--protocol", "classical", "--use-key", "--trials", "200003", "--seed", "14"
    ],
    "simulate_classical_no_key": [
        "simulate", "--protocol", "classical", "--no-use-key", "--joint", "0.6,0.25,0,0.15",
        "--trials", "200003", "--seed", "15",
    ],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden(name, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = main(COMMANDS[name])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out == (GOLDEN / f"{name}.out").read_text()
