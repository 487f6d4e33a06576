"""Encoding unitary families.

Builds the antipodal pair, the frame-generated four-unitary qubit set and
the d^2 shift/clock unitaries, with their trace-orthogonality checks, and
lifts an ensemble to one side of a bipartite space.  The traceless
Hermitian operator basis (OperatorBasis, gellmann_basis) lives in qstate,
next to the correlation tensor it expands; it is re-exported here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, FrameNotOrthonormal, InvalidDimension, InvalidEnsemble, ParseError
from .qstate import (  # OperatorBasis and gellmann_basis are re-exported
    PAULI_X, PAULI_Y, PAULI_Z, PAULIS, BlochVector, OperatorBasis, _is_distribution, _json_dim, _json_floats, _kron,
    _re_im, _stack_of, gellmann_basis,
)

FRAME_TOL = 1e-12
UNITARITY_TOL = 1e-12
GRAM_TOL = 1e-10


def _check_frames(rows: np.ndarray) -> None:
    """Raise FrameNotOrthonormal unless every (..., 3, 3) stack of rows n1, n2, n3 is a frame."""
    cols = rows.swapaxes(-1, -2)
    if not np.max(np.abs(rows @ cols - np.eye(3))) <= FRAME_TOL:
        raise FrameNotOrthonormal("vectors are not orthonormal within 1e-12")
    # completeness sum_k n_k n_k^T = 1 (columns orthonormal too)
    if not np.max(np.abs(cols @ rows - np.eye(3))) <= FRAME_TOL:
        raise FrameNotOrthonormal("completeness relation fails within 1e-12")


@dataclass(frozen=True, eq=False)
class OrthonormalFrame:
    """Three mutually orthogonal real unit vectors n1, n2, n3."""

    n1: np.ndarray
    n2: np.ndarray
    n3: np.ndarray

    def __post_init__(self) -> None:
        rows = []
        for name, v in (("n1", self.n1), ("n2", self.n2), ("n3", self.n3)):
            arr = np.asarray(v, dtype=float).reshape(-1)
            if arr.shape != (3,):
                raise FrameNotOrthonormal(f"{name} is not a 3-vector")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
            rows.append(arr)
        _check_frames(np.stack(rows))

    @classmethod
    def standard(cls) -> "OrthonormalFrame":
        return cls(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0]))

    def rows(self) -> np.ndarray:
        return np.stack([self.n1, self.n2, self.n3])


@dataclass(frozen=True, eq=False)
class EncodingEnsemble:
    """Unitaries U_a = unitaries[a], one read-only (n, d, d) array, with a prior pi_a."""

    dim: int
    unitaries: np.ndarray
    prior: np.ndarray

    def __post_init__(self) -> None:
        d = int(self.dim)
        if d < 2:
            raise InvalidDimension(f"need d >= 2, got {d}")
        object.__setattr__(self, "dim", d)
        us = _stack_of(self.unitaries, (d, d), DimensionMismatch, "unitary")
        residual = np.abs(us.conj().swapaxes(1, 2) @ us - np.eye(d)).max(axis=(1, 2))
        bad = np.flatnonzero(~(residual <= UNITARITY_TOL))
        if bad.size:
            raise InvalidEnsemble(f"matrix {bad[0]} is not unitary within 1e-12")
        p = np.array(self.prior, dtype=float).reshape(-1)
        if p.shape != (len(us),):
            raise InvalidEnsemble("prior length does not match the number of unitaries")
        if not _is_distribution(p):
            raise InvalidEnsemble("prior must be non-negative and sum to 1 within 1e-12")
        us.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "unitaries", us)
        object.__setattr__(self, "prior", p)

    def __len__(self) -> int:
        return len(self.unitaries)


def canonical_qubit_set(frame: OrthonormalFrame) -> EncodingEnsemble:
    """The four-unitary qubit encoding {1, n1.sigma, n2.sigma, n3.sigma}.

    Uniform prior 1/4; each n_k.sigma is Hermitian and unitary, and the
    set averages any qubit state to the total mixture.
    """
    return EncodingEnsemble(2, _qubit_set_stack(frame.rows()), np.full(4, 0.25))


def _qubit_set_stack(rows: np.ndarray) -> np.ndarray:
    """canonical_qubit_set's unitaries (..., 4, 2, 2) for a stack (..., 3, 3) of frame rows, checked."""
    _check_frames(rows)
    n = rows[..., None, None]
    sigma = n[..., 0, :, :] * PAULI_X + n[..., 1, :, :] * PAULI_Y + n[..., 2, :, :] * PAULI_Z
    eye = np.broadcast_to(np.eye(2, dtype=complex), (*sigma.shape[:-3], 1, 2, 2))
    return np.concatenate([eye, sigma], axis=-3)


def antipodal_pair(v: BlochVector | tuple[float, float, float]) -> EncodingEnsemble:
    """Two-unitary encoding {1, U} with prior (1/2, 1/2).

    U is a pi-rotation about the normalized v x z axis (v x x when v is
    parallel to z), so it carries the state with Bloch vector v to the
    antipodal state -v.  For |v| <= 1e-12 any unitary works; the pair
    {1, sigma_x} is returned.
    """
    if not isinstance(v, BlochVector):
        v = BlochVector(*(float(c) for c in v))
    arr = v.as_array()
    if v.norm <= 1e-12:
        u = PAULI_X.copy()
    else:
        axis = np.cross(arr, np.array([0.0, 0.0, 1.0]))
        if np.linalg.norm(axis) <= 1e-12 * v.norm:
            axis = np.cross(arr, np.array([1.0, 0.0, 0.0]))
        axis = axis / np.linalg.norm(axis)
        u = axis[0] * PAULIS[0] + axis[1] * PAULIS[1] + axis[2] * PAULIS[2]
    return EncodingEnsemble(2, (np.eye(2, dtype=complex), u), np.array([0.5, 0.5]))


@functools.lru_cache(maxsize=16)
def weyl_set(d: int) -> EncodingEnsemble:
    """The d^2 shift/clock unitaries U_(p,q) = X^p Z^q with uniform prior.

    X|k> = |k+1 mod d>, Z|k> = w^k |k> with w = exp(2 pi i / d).  The set
    satisfies Tr U_a^dag U_b = d delta_ab; index a = p * d + q.  Cached:
    repeated calls return the same immutable ensemble.
    """
    if d < 2:
        raise InvalidDimension(f"need d >= 2, got {d}")
    shift = np.zeros((d, d), dtype=complex)
    shift[(np.arange(d) + 1) % d, np.arange(d)] = 1.0
    omega = np.exp(2.0j * np.pi / d)
    clock = np.diag(omega ** np.arange(d))
    us = []
    xp = np.eye(d, dtype=complex)
    for _ in range(d):
        zq = np.eye(d, dtype=complex)
        for _ in range(d):
            us.append(xp @ zq)
            zq = zq @ clock
        xp = xp @ shift
    return EncodingEnsemble(d, us, np.full(d * d, 1.0 / (d * d)))


def verify_orthogonality(e: EncodingEnsemble) -> tuple[np.ndarray, bool]:
    """Normalized Gram matrix (1/d) Tr U_a^dag U_b and whether it is the identity.

    Returns the complex Gram matrix and True when it matches the identity
    within 1e-10 entrywise.
    """
    gram = np.einsum("ajk,bjk->ab", e.unitaries.conj(), e.unitaries) / e.dim
    ok = bool(np.max(np.abs(gram - np.eye(len(e)))) <= GRAM_TOL)
    return gram, ok


def lift_ensemble(e: EncodingEnsemble, d_other: int, side: str = "a") -> EncodingEnsemble:
    """Embed an ensemble on one subsystem of a bipartite space (U x 1 or 1 x U)."""
    eye = np.eye(int(d_other), dtype=complex)
    if side.lower() == "a":
        us = _kron(e.unitaries, eye)
    elif side.lower() == "b":
        us = _kron(eye, e.unitaries)
    else:
        raise ValueError(f"side must be 'a' or 'b', got {side!r}")
    return EncodingEnsemble(e.dim * int(d_other), us, e.prior)


def ensemble_to_json(e: EncodingEnsemble) -> dict:
    """Serialize to {"dim": d, "unitaries": [matrix, ...], "prior": [...]}."""
    return {"dim": e.dim, "unitaries": _re_im(e.unitaries), "prior": [float(p) for p in e.prior]}


def ensemble_from_json(obj: dict) -> EncodingEnsemble:
    if not isinstance(obj, dict) or "dim" not in obj or "unitaries" not in obj:
        raise ParseError("ensemble JSON needs 'dim' and 'unitaries'")
    d = _json_dim(obj["dim"])
    try:
        arr = _json_floats(obj["unitaries"])
        if arr.shape[1:] != (d, d, 2):  # an empty list has shape (0,)
            raise ParseError(f"ensemble JSON needs a non-empty list of {d}x{d} unitaries, got shape {arr.shape}")
        us = arr[..., 0] + 1j * arr[..., 1]
        prior = obj.get("prior")
        p = np.full(len(us), 1.0 / len(us)) if prior is None else _json_floats(prior)
        if p.ndim != 1:
            raise ParseError(f"ensemble JSON needs a flat list of prior weights, got shape {p.shape}")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad ensemble JSON: {exc}") from None
    return EncodingEnsemble(d, us, p)
