"""The package's public names, and which submodules each command loads.

Every submodule but cli is registered in sys.modules by `import densecap`
and runs its body on first attribute access, so each fresh-process check
here lists only the modules whose bodies have run.
"""

import importlib
import os
import subprocess
import sys

import pytest

import densecap

# the package's names, by the module each is read from
EXPORTS = {
    "capacity": [
        "CapacityReport", "average_state", "dense_capacity", "dense_capacity_via_ensemble", "holevo_chi",
        "mutual_information", "normal_capacity", "optimize_prior", "relative_entropy",
    ],
    "encodings": [
        "EncodingEnsemble", "OrthonormalFrame", "antipodal_pair", "canonical_qubit_set", "ensemble_from_json",
        "ensemble_to_json", "lift_ensemble", "verify_orthogonality", "weyl_set",
    ],
    "entanglement": ["ConvexRoofResult", "Decomposition", "concurrence_oracle", "convex_roof", "decomposition_cost"],
    "errors": [
        "BlochNormExceeded", "DenseCapError", "DimensionMismatch", "DimensionUnsupported", "FrameNotOrthonormal",
        "InvalidDimension", "InvalidEnsemble", "InvalidState", "InvalidTrials", "NoStates", "ParseError",
        "RankTooLarge", "SplitMismatch",
    ],
    "protosim": [
        "BellDecoder", "ClassicalJointState", "ProtocolTrace", "SingleParticleDecoder",
        "empirical_mutual_information", "run_classical_dense", "run_quantum_dense",
    ],
    "qstate": [
        "BipartiteState", "BlochVector", "DensityMatrix", "OperatorBasis", "bell_state", "correlation_decompose",
        "correlation_reconstruct", "from_bloch", "gellmann_basis", "max_entangled_state", "partial_trace",
        "pure_state", "state_from_json", "state_to_json", "tensor", "to_bloch", "von_neumann_entropy",
        "werner_state",
    ],
}
HOME = [(module, name) for module, names in EXPORTS.items() for name in names]

# prints the densecap submodules whose bodies have run (one that has not is still of a ModuleType subclass),
# and numpy.random once anything has imported it
LOADED = (
    "import contextlib, io, sys, types\n"
    "import densecap.cli\n"
    "if sys.argv[1:]:\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        assert densecap.cli.main(sys.argv[1:]) == 0\n"
    "loaded = [n[9:] for n, m in sys.modules.items() if n.startswith('densecap.') and type(m) is types.ModuleType]\n"
    "print(*sorted(loaded + ['numpy.random'] * ('numpy.random' in sys.modules)))\n"
)
BASE = ["cli", "errors", "qstate"]


def run_fresh(argv, **kwargs):
    src = os.path.dirname(os.path.dirname(densecap.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, **kwargs)


def test_all_holds_every_public_name():
    assert len(HOME) == len(densecap.__all__) == 61
    assert sorted(densecap.__all__) == sorted(name for _, name in HOME)


@pytest.mark.parametrize("module, name", HOME)
def test_name_is_its_home_modules_object(module, name):
    assert getattr(densecap, name) is getattr(importlib.import_module(f"densecap.{module}"), name)


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from densecap import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(densecap.__all__)
    assert set(densecap.__all__) <= set(dir(densecap))
    assert {"capacity", "encodings", "entanglement", "errors", "protosim", "qstate", "sampling"} <= set(dir(densecap))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'densecap' has no attribute 'no_such_name'"):
        densecap.no_such_name


@pytest.mark.parametrize(
    "argv, loaded",
    [
        ([], BASE),
        (["entanglement", "--state", "werner:0.6", "--restarts", "1"], [*BASE, "entanglement"]),
        (["simulate", "--trials", "10"], [*BASE, "encodings", "protosim", "numpy.random"]),
        (["simulate", "--protocol", "classical", "--trials", "10"], [*BASE, "encodings", "protosim", "numpy.random"]),
        (["capacity", "--state", "bell"], [*BASE, "capacity"]),
        (["capacity", "--state", "werner", "--sweep", "0:1:0.5"], [*BASE, "capacity"]),
        (["capacity", "--state", "bell", "--cross-check"], [*BASE, "capacity", "encodings"]),
        (["verify", "--d", "2", "--samples", "5"], [*BASE, "capacity", "encodings", "sampling", "numpy.random"]),
    ],
    ids=["import", "entanglement", "simulate", "simulate-classical", "capacity", "sweep", "cross-check", "verify"],
)
def test_command_loads_only_its_modules(argv, loaded):
    out = run_fresh(["-c", LOADED, *argv], check=True)
    assert out.stdout.split() == sorted(loaded)


def test_submodule_imports_in_a_fresh_process():
    script = (
        "import densecap.capacity\n"
        "from densecap.capacity import holevo_chi\n"
        "from densecap import sampling\n"
        "import numpy as np\n"
        "assert densecap.capacity.holevo_chi is holevo_chi is densecap.holevo_chi\n"
        "assert sampling.random_unitary(2, np.random.default_rng(0)).shape == (2, 2)\n"
    )
    run_fresh(["-W", "error", "-c", script], check=True)


def test_run_as_main_module_warns_nothing():
    out = run_fresh(["-W", "error", "-m", "densecap.cli", "capacity", "--state", "bell"])
    assert (out.returncode, out.stderr) == (0, "")
    assert '"pass": true' in out.stdout
