"""Seeded random generators for states, unitaries, and frames.

Used by the randomized verification command and the test suite; not part
of the numerical API proper.  This module owns the layout of a Ginibre
draw: G's real parts, then its imaginary parts, each row-major.
"""

from __future__ import annotations

import numpy as np

from .encodings import OrthonormalFrame
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
    return DensityMatrix(_random_states(rng.standard_normal((1, 2 * d * r)), d, r)[0])


def _random_states(draws: np.ndarray, d: int, rank: int | None = None) -> np.ndarray:
    """random_density_matrix(d, rank=rank) of each row of draws (s, >= 2 d rank), unvalidated.

    A row's first d rank numbers are G's real parts and the next d rank
    its imaginary parts; any further numbers are not read.
    """
    r = d if rank is None else int(rank)
    g = (draws[:, : d * r] + 1j * draws[:, d * r : 2 * d * r]).reshape(-1, d, r)
    m = g @ g.conj().swapaxes(-1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]


def random_bipartite_state(
    dims: tuple[int, int], rng: np.random.Generator, rank: int | None = None
) -> BipartiteState:
    joint = random_density_matrix(dims[0] * dims[1], rng, rank=rank)
    return BipartiteState(joint, dims)


def random_orthonormal_frame(rng: np.random.Generator) -> OrthonormalFrame:
    """Random orthonormal triple of real 3-vectors (rows of a random rotation)."""
    return OrthonormalFrame(*_frame_rows(rng.standard_normal((3, 3))))


def _frame_rows(g: np.ndarray) -> np.ndarray:
    """Rows n1, n2, n3 of Q in g = QR (R's diagonal made positive) for a stack (..., 3, 3)."""
    return _phase_fixed_qr(g).swapaxes(-1, -2)
