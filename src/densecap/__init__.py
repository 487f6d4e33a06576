"""Noiseless-channel capacities with and without dense coding.

Density-matrix algebra, encoding unitary families, Holevo capacities,
the convex-roof correlation functional, and Monte-Carlo simulation of
the quantum and classical dense-coding protocols.

Every submodule but cli is in sys.modules from `import densecap` on, and
runs its body when one of its attributes is first read, so a command
loads only the modules it uses.
"""

import importlib.util
import sys

# the package's public names, by the submodule that defines them
_EXPORTS = {
    "capacity": """CapacityReport average_state dense_capacity dense_capacity_via_ensemble holevo_chi
        mutual_information normal_capacity optimize_prior relative_entropy""",
    "encodings": """EncodingEnsemble OrthonormalFrame antipodal_pair canonical_qubit_set ensemble_from_json
        ensemble_to_json lift_ensemble verify_orthogonality weyl_set""",
    "entanglement": "ConvexRoofResult Decomposition concurrence_oracle convex_roof decomposition_cost",
    "errors": """BlochNormExceeded DenseCapError DimensionMismatch DimensionUnsupported FrameNotOrthonormal
        InvalidDimension InvalidEnsemble InvalidState InvalidTrials NoStates ParseError RankTooLarge SplitMismatch""",
    "protosim": """BellDecoder ClassicalJointState ProtocolTrace SingleParticleDecoder empirical_mutual_information
        run_classical_dense run_quantum_dense""",
    "qstate": """BipartiteState BlochVector DensityMatrix OperatorBasis bell_state correlation_decompose
        correlation_reconstruct from_bloch gellmann_basis max_entangled_state partial_trace pure_state
        state_from_json state_to_json tensor to_bloch von_neumann_entropy werner_state""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)
__version__ = "0.1.0"

# cli is left out: `python -m densecap.cli` warns if the package import already put it in sys.modules
for _module in (*_EXPORTS, "sampling"):
    _spec = importlib.util.find_spec(f"{__name__}.{_module}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_module] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _module, _spec


def __getattr__(name):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
