"""Seeded random generators for states, unitaries, and frames.

Used by the randomized verification command and the test suite; not part
of the numerical API proper.
"""

from __future__ import annotations

import numpy as np

from .qstate import BipartiteState, DensityMatrix, _phase_fixed_qr


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Gaussian matrix."""
    return _phase_fixed_qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))


def random_pure_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-norm random state vector."""
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_density_matrix(d: int, rng: np.random.Generator, rank: int | None = None) -> DensityMatrix:
    """Random mixed state G G^dag / Tr(G G^dag) with G complex Gaussian d x rank."""
    r = d if rank is None else int(rank)
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    return DensityMatrix(_ginibre_states(g))


def _ginibre_states(g: np.ndarray) -> np.ndarray:
    """G G^dag / Tr(G G^dag) for a stack (..., d, r) of complex matrices, unvalidated."""
    m = g @ g.conj().swapaxes(-1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]


def random_bipartite_state(
    dims: tuple[int, int], rng: np.random.Generator, rank: int | None = None
) -> BipartiteState:
    joint = random_density_matrix(dims[0] * dims[1], rng, rank=rank)
    return BipartiteState(joint, dims)


def random_orthonormal_frame(rng: np.random.Generator):
    """Random orthonormal triple of real 3-vectors (rows of a random rotation)."""
    from .encodings import OrthonormalFrame

    return OrthonormalFrame(*_frame_rows(rng.standard_normal((3, 3))))


def _frame_rows(g: np.ndarray) -> np.ndarray:
    """Rows n1, n2, n3 of Q in g = QR (R's diagonal made positive) for a stack (..., 3, 3)."""
    return _phase_fixed_qr(g).swapaxes(-1, -2)
