"""Density-matrix algebra for small dense systems.

Construction and validation of density matrices, Bloch-vector
parameterization of qubits, tensor products, partial traces, von Neumann
entropy, and the correlation-tensor decomposition of bipartite states in
the generalized traceless Hermitian operator basis, which this module
owns (OperatorBasis, gellmann_basis; encodings re-exports both).  All
operations are pure functions on immutable values.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache

import numpy as np

from .errors import (
    BlochNormExceeded,
    DimensionMismatch,
    InvalidDimension,
    InvalidState,
    ParseError,
)

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_FLOOR = -1e-10

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)


def _validated_spectra(m: np.ndarray) -> np.ndarray:
    """Validate a stack (..., d, d) of density matrices and return their spectra.

    Every matrix must have finite entries, be Hermitian and have unit
    trace to 1e-12, and have no eigenvalue below -1e-10; the first
    failure raises InvalidState.  Returns the ascending eigenvalues of
    every matrix, from one batched eigvalsh, clipped to [0, 1].
    """
    d = m.shape[-1]
    stack = m.reshape(-1, d, d)
    if not np.isfinite(stack).all():
        raise InvalidState("matrix has non-finite entries")
    if np.abs(stack - stack.conj().transpose(0, 2, 1)).max() > HERMITICITY_TOL:
        raise InvalidState("matrix is not Hermitian within 1e-12")
    traces = stack.trace(axis1=1, axis2=2)
    off = np.maximum(np.abs(traces.real - 1.0), np.abs(traces.imag)) > TRACE_TOL
    if off.any():
        raise InvalidState(f"trace {traces[off][0]} is not 1 within 1e-12")
    eigs = np.linalg.eigvalsh(stack)
    smallest = eigs[:, 0]
    if smallest.min() < PSD_FLOOR:
        first = float(smallest[smallest < PSD_FLOOR][0])
        raise InvalidState(f"smallest eigenvalue {first} below -1e-10")
    return np.clip(eigs, 0.0, 1.0).reshape(m.shape[:-1])


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A d x d complex Hermitian positive-semidefinite unit-trace operator.

    Validation happens on construction: finite entries, Hermiticity and
    trace to 1e-12, smallest eigenvalue no lower than -1e-10.  Eigenvalues
    in [-1e-10, 0) are treated as exact zeros downstream; anything lower
    is rejected.  The spectrum computed for that check is kept, clipped
    to [0, 1]; the matrix and the spectrum are read-only.
    """

    matrix: np.ndarray
    _spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise InvalidState(f"expected a square matrix, got shape {m.shape}")
        spectrum = _validated_spectra(m)
        m.setflags(write=False)
        spectrum.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_spectrum", spectrum)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Ascending real eigenvalues, clipped to [0, 1].

        Computed once, at validation; the returned array is read-only.
        """
        return self._spectrum


@dataclass(frozen=True)
class BlochVector:
    """Real 3-vector parameterizing a qubit state as (1 + v.sigma)/2."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(c) for c in (self.x, self.y, self.z)):
            raise InvalidState(f"Bloch vector ({self.x}, {self.y}, {self.z}) is not finite")
        if self.norm > 1.0 + 1e-12:
            raise BlochNormExceeded(f"|v| = {self.norm} exceeds 1")

    @property
    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


def from_bloch(v: BlochVector | tuple[float, float, float]) -> DensityMatrix:
    """Qubit state (1 + v.sigma)/2 for a Bloch vector inside the unit ball.

    Raises BlochNormExceeded if |v| > 1 + 1e-12.
    """
    if not isinstance(v, BlochVector):
        v = BlochVector(*(float(c) for c in v))
    m = 0.5 * (np.eye(2, dtype=complex) + v.x * PAULI_X + v.y * PAULI_Y + v.z * PAULI_Z)
    return DensityMatrix(m)


def to_bloch(s: DensityMatrix) -> BlochVector:
    """Inverse of from_bloch: v_alpha = Tr(rho sigma_alpha)."""
    if s.dim != 2:
        raise DimensionMismatch(f"Bloch vectors describe qubits, got dim {s.dim}")
    comps = [float(np.trace(s.matrix @ p).real) for p in PAULIS]
    return BlochVector(*comps)


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Tensor (Kronecker) product of two states."""
    return DensityMatrix(np.kron(a.matrix, b.matrix))


def partial_trace(s: DensityMatrix, dims: tuple[int, int], keep: str) -> DensityMatrix:
    """Reduced state of one subsystem of a bipartite state.

    Parameters
    ----------
    s : DensityMatrix
        Joint state of dimension dims[0] * dims[1].
    dims : (int, int)
        Subsystem dimensions (d_A, d_B).
    keep : "A" or "B"
        Which subsystem survives the trace.
    """
    d_a, d_b = int(dims[0]), int(dims[1])
    if d_a * d_b != s.dim:
        raise DimensionMismatch(f"dims {dims} do not factor joint dimension {s.dim}")
    return DensityMatrix(_partial_trace_array(s.matrix, (d_a, d_b), keep))


def _partial_trace_array(m: np.ndarray, dims: tuple[int, int], keep: str) -> np.ndarray:
    """partial_trace on a raw stack (..., d_A d_B, d_A d_B) of joint matrices."""
    d_a, d_b = dims
    four = m.reshape(*m.shape[:-2], d_a, d_b, d_a, d_b)
    side = keep.upper()
    if side == "A":
        return np.einsum("...ijkj->...ik", four)
    if side == "B":
        return np.einsum("...ijil->...jl", four)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def _spectrum_entropy(eigs: np.ndarray) -> float:
    """Shannon entropy in bits of a clipped eigenvalue vector, 0 log 0 := 0."""
    lam = eigs[eigs > 0.0]
    if lam.size == 0:
        return 0.0
    return float(-np.sum(lam * np.log2(lam)))


def _spectrum_entropies(eigs: np.ndarray) -> np.ndarray:
    """_spectrum_entropy of every row of a stack (n, d) of clipped spectra.

    Full-rank rows share one reduction, which numpy sums row by row in
    the same order as the 1-D sum; rows with a zero eigenvalue go
    through _spectrum_entropy, so each value matches it bit for bit.
    """
    full = np.all(eigs > 0.0, axis=-1)
    out = np.empty(eigs.shape[0])
    lam = eigs[full]
    out[full] = -np.sum(lam * np.log2(lam), axis=-1)
    out[~full] = [_spectrum_entropy(row) for row in eigs[~full]]
    return out


def von_neumann_entropy(s: DensityMatrix) -> float:
    """Von Neumann entropy S(rho) = -Tr rho log2 rho in bits.

    Computed from the state's cached spectrum, clipped to [0, 1] before
    the logarithm.
    """
    return _spectrum_entropy(s.eigenvalues())


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """Joint state rho_AB with cached reductions and correlation tensor.

    gamma holds the coefficients of rho_AB - rho_A x rho_B in the product
    operator basis (Pauli matrices for qubits, the traceless Hermitian
    basis with Tr L_a L_b = d delta_ab in general), normalized so that

        rho_AB = rho_A x rho_B + sum_cd gamma[c, d] L_c x L_d

    holds exactly.
    """

    joint: DensityMatrix
    dims: tuple[int, int]

    def __post_init__(self) -> None:
        d_a, d_b = int(self.dims[0]), int(self.dims[1])
        object.__setattr__(self, "dims", (d_a, d_b))
        if min(d_a, d_b) < 2:
            raise InvalidDimension(f"each factor of the split needs d >= 2, got {self.dims}")
        if d_a * d_b != self.joint.dim:
            raise DimensionMismatch(
                f"dims {self.dims} do not factor joint dimension {self.joint.dim}"
            )

    @property
    def dim_a(self) -> int:
        return self.dims[0]

    @property
    def dim_b(self) -> int:
        return self.dims[1]

    @cached_property
    def reduced_a(self) -> DensityMatrix:
        return partial_trace(self.joint, self.dims, "A")

    @cached_property
    def reduced_b(self) -> DensityMatrix:
        return partial_trace(self.joint, self.dims, "B")

    @cached_property
    def gamma(self) -> np.ndarray:
        return _gamma_arrays(self.joint.matrix, self.reduced_a.matrix, self.reduced_b.matrix)

    @classmethod
    def from_pure(cls, vec: np.ndarray, dims: tuple[int, int]) -> "BipartiteState":
        """Projector onto a joint pure state (the vector is normalized)."""
        return cls(pure_state(vec), dims)

    @classmethod
    def from_product(cls, a: DensityMatrix, b: DensityMatrix) -> "BipartiteState":
        return cls(tensor(a, b), (a.dim, b.dim))


def correlation_decompose(s: BipartiteState) -> np.ndarray:
    """Correlation coefficients gamma of a bipartite state.

    gamma[c, d] = Tr[(L_c x L_d)(rho_AB - rho_A x rho_B)] / (d_A d_B);
    identically zero for product states.
    """
    return s.gamma


def correlation_reconstruct(s: BipartiteState) -> DensityMatrix:
    """Rebuild rho_AB from the reductions and gamma (inverse of the expansion)."""
    return DensityMatrix(_reconstruct_arrays(s.gamma, s.reduced_a.matrix, s.reduced_b.matrix))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of the matrices in the last two axes of broadcastable stacks."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    n = a.shape[-1] * b.shape[-1]
    return out.reshape(*out.shape[:-4], n, n)


def _phase_fixed_qr(g: np.ndarray) -> np.ndarray:
    """Q of g = QR with R's diagonal made real and positive, for a stack (..., m, n) of full rank."""
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def _stack_of(items, shape: tuple[int, ...], error: type, what: str) -> np.ndarray:
    """items as one new complex array (n, *shape); error names the first item of another shape."""
    for k, item in enumerate(items):
        if np.shape(item) != shape:
            raise error(f"{what} {k} has shape {np.shape(item)}, expected {shape}")
    return np.array(items, dtype=complex).reshape(-1, *shape)


def _is_distribution(p: np.ndarray) -> bool:
    """Whether p's entries are non-negative and sum to 1 within 1e-12; False for NaN or inf."""
    return bool(np.all(p >= 0.0) and abs(p.sum() - 1.0) <= 1e-12)


def _re_im(m: np.ndarray) -> list:
    """A complex array as nested lists with an [re, im] pair per entry (the JSON format)."""
    return np.stack([m.real, m.imag], axis=-1).tolist()


@dataclass(frozen=True, eq=False)
class OperatorBasis:
    """Hermitian traceless L_a = lambdas[a], one read-only (d^2 - 1, d, d) array, Tr L_a L_b = d delta_ab."""

    dim: int
    lambdas: np.ndarray

    def __post_init__(self) -> None:
        d = int(self.dim)
        object.__setattr__(self, "dim", d)
        lams = _stack_of(self.lambdas, (d, d), ValueError, "basis element")
        if len(lams) != d * d - 1:
            raise ValueError(f"basis needs d^2 - 1 = {d * d - 1} elements, got {len(lams)}")
        traceless = np.abs(np.trace(lams, axis1=1, axis2=2)) <= 1e-12
        hermitian = np.abs(lams - lams.conj().swapaxes(1, 2)).max(axis=(1, 2)) <= 1e-12
        bad = np.flatnonzero(~(traceless & hermitian))
        if bad.size:
            a = bad[0]
            raise ValueError(f"basis element {a} is not {'Hermitian' if traceless[a] else 'traceless'}")
        gram = np.einsum("aij,bji->ab", lams, lams)
        if not np.max(np.abs(gram - d * np.eye(len(lams)))) <= 1e-12:
            raise ValueError("basis fails Tr L_a L_b = d delta_ab within 1e-12")
        lams.setflags(write=False)
        object.__setattr__(self, "lambdas", lams)


@lru_cache(maxsize=16)
def gellmann_basis(d: int) -> OperatorBasis:
    """Generalized traceless Hermitian basis rescaled to Tr L_a L_b = d delta_ab.

    Ordering: symmetric pairs (j < k) lexicographic, then antisymmetric
    pairs, then diagonal operators.  d = 2 reproduces the Pauli matrices
    in the order (x, y, z).  Cached: repeated calls return the same
    immutable basis.
    """
    if d < 2:
        raise InvalidDimension(f"need d >= 2, got {d}")
    scale = math.sqrt(d / 2.0)
    mats: list[np.ndarray] = []
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = 1.0
            m[k, j] = 1.0
            mats.append(scale * m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            mats.append(scale * m)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        m[np.arange(l), np.arange(l)] = 1.0
        m[l, l] = -l
        mats.append(scale * math.sqrt(2.0 / (l * (l + 1))) * m)
    return OperatorBasis(d, mats)


def _ranks(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's rank among the entries with its key, in entry order, and their number."""
    hits = key[:, None] == np.arange(key.max() + 1)
    return (np.cumsum(hits, axis=0) - 1)[hits], hits.sum(axis=0)[key]


def _slots(key_a: np.ndarray, key_b: np.ndarray, *columns: np.ndarray) -> list[list[np.ndarray]]:
    """Terms of the pairs (an entry of key_a, an entry of key_b), by slot.

    The pairs that share both keys are the terms of one output cell, in pair
    order; slot t holds term t of every cell that has one.  Each column gives
    every pair's value, broadcast to shape (len(key_a), len(key_b)).  Returns,
    per slot, each column's values there.
    """
    (rank_a, len_a), (rank_b, len_b) = _ranks(key_a), _ranks(key_b)
    slot, *columns = np.broadcast_arrays(rank_a[:, None] * len_b + rank_b, *columns)
    return [[column[slot == t] for column in columns] for t in range(slot.max() + 1)]


@lru_cache(maxsize=16)
def _term_tables(d_a: int, d_b: int) -> tuple[list, list]:
    """_slots of gamma's contraction and of its reconstruction, for a (d_A, d_B) split.

    Each term is a product (L_c)_ij (L_d)_kl of two nonzero basis entries.  Gamma's
    slots hold the flat index of (c, d), the product and the flat index of
    delta_(j,l),(i,k), in (i, j, k, l) order; the reconstruction's hold the flat
    index of (i, k, j, l), that of gamma[c, d], (L_c)_ij and (L_d)_kl, in (c, d)
    order.  These are einsum's loop orders, so the sparse sums keep its bits.
    """
    basis_a, basis_b = gellmann_basis(d_a).lambdas, gellmann_basis(d_b).lambdas
    c, i, j = (x[:, None] for x in np.nonzero(basis_a))
    d, k, l = np.nonzero(basis_b)
    l_c, l_d = basis_a[c, i, j], basis_b[d, k, l]
    pair = c * len(basis_b) + d
    gamma = _slots(c[:, 0], d, pair, l_c * l_d, ((j * d_b + l) * d_a + i) * d_b + k)
    return gamma, _slots((i * d_a + j)[:, 0], k * d_b + l, ((i * d_b + k) * d_a + j) * d_b + l, pair, l_c, l_d)


def _gamma_arrays(joint: np.ndarray, reduced_a: np.ndarray, reduced_b: np.ndarray) -> np.ndarray:
    """BipartiteState.gamma of a stack (..., D, D) of joint matrices and their reductions."""
    d_a, d_b = reduced_a.shape[-1], reduced_b.shape[-1]
    n_a, n_b = d_a * d_a - 1, d_b * d_b - 1
    delta = (joint - _kron(reduced_a, reduced_b)).reshape(-1, (d_a * d_b) ** 2).T  # one column per state
    g = np.zeros((n_a * n_b, delta.shape[1]), dtype=complex)
    # Tr[(L_c x L_d) delta] = sum_{ijkl} (L_c)_{ij} (L_d)_{kl} delta_{(j,l),(i,k)}
    for cell, coef, index in _term_tables(d_a, d_b)[0]:
        term = delta[index]
        term *= coef[:, None]
        g[cell] += term
    return np.real(g).T.reshape(*joint.shape[:-2], n_a, n_b) / (d_a * d_b)


def _reconstruct_arrays(gamma: np.ndarray, reduced_a: np.ndarray, reduced_b: np.ndarray) -> np.ndarray:
    """rho_A x rho_B + sum_cd gamma[c, d] L_c x L_d for stacks, unvalidated."""
    dim = reduced_a.shape[-1] * reduced_b.shape[-1]
    flat = gamma.reshape(-1, gamma.shape[-2] * gamma.shape[-1]).T  # one column per state
    corr = np.zeros((dim * dim, flat.shape[1]), dtype=complex)
    for cell, index, l_c, l_d in _term_tables(reduced_a.shape[-1], reduced_b.shape[-1])[1]:
        term = flat[index] * l_c[:, None]
        term *= l_d[:, None]
        corr[cell] += term
    return _kron(reduced_a, reduced_b) + corr.T.reshape(*gamma.shape[:-2], dim, dim)


def _projector(vec: np.ndarray) -> np.ndarray:
    """|v><v| for the normalized vector v, unvalidated."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise InvalidState("zero vector has no associated state")
    v = v / n
    return np.outer(v, v.conj())


def pure_state(vec: np.ndarray) -> DensityMatrix:
    """Projector |v><v| onto a (normalized) state vector."""
    return DensityMatrix(_projector(vec))


_BELL_VECTORS = {
    "psi+": np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2),
    "psi-": np.array([1, 0, 0, -1], dtype=complex) / math.sqrt(2),
    "phi+": np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2),
    "phi-": np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2),
}


@cache
def _psi_plus() -> np.ndarray:
    """bell_state().joint.matrix, read-only, for the Werner family; built on first use."""
    m = _projector(_BELL_VECTORS["psi+"])
    m.setflags(write=False)
    return m


def bell_state(which: str = "psi+") -> BipartiteState:
    """One of the four Bell states; psi+- = (|00> +- |11>)/sqrt2, phi+- = (|01> +- |10>)/sqrt2."""
    try:
        vec = _BELL_VECTORS[which]
    except KeyError:
        raise ParseError(f"unknown Bell state {which!r}") from None
    return BipartiteState.from_pure(vec, (2, 2))


def werner_matrices(ps: np.ndarray) -> np.ndarray:
    """Joint matrices p |psi+><psi+| + (1 - p) 1/4 for every p, shape (n, 4, 4).

    Raises InvalidState for the first p outside [-1/3, 1].
    """
    ps = np.asarray(ps, dtype=float).reshape(-1)
    outside = ~((-1.0 / 3.0 <= ps) & (ps <= 1.0))
    if outside.any():
        raise InvalidState(f"werner parameter {float(ps[outside][0])} outside [-1/3, 1]")
    p = ps[:, None, None]
    return p * _psi_plus() + (1.0 - p) * np.eye(4, dtype=complex) / 4.0


def werner_state(p: float) -> BipartiteState:
    """Mixture p |psi+><psi+| + (1 - p) 1/4, physical for -1/3 <= p <= 1."""
    return BipartiteState(DensityMatrix(werner_matrices(p)[0]), (2, 2))


def max_entangled_state(d: int) -> BipartiteState:
    """Maximally entangled two-qudit state sum_k |kk> / sqrt(d)."""
    if d < 2:
        raise InvalidState(f"need d >= 2, got {d}")
    vec = np.zeros(d * d, dtype=complex)
    vec[:: d + 1] = 1.0 / math.sqrt(d)
    return BipartiteState.from_pure(vec, (d, d))


def _json_dim(value) -> int:
    """A JSON "dim" as an int; ParseError unless it is a whole number (true is not one)."""
    whole = isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not whole:
        raise ParseError(f"dim must be a whole number, got {value!r}")
    return int(value)


def _json_floats(value) -> np.ndarray:
    """A JSON number, or lists of them nested, as a float array; ParseError for an entry that is
    not a real number, such as a string, null, or a boolean, which np.asarray would read as 0 or 1."""
    entries = np.asarray(value, dtype=object)
    for kind in set(map(type, entries.flat)):  # each distinct type once
        if kind is bool or not issubclass(kind, numbers.Real):
            raise ParseError(f"{next(x for x in entries.flat if type(x) is kind)!r} is not a number")
    return entries.astype(float)


def _matrix_from_json(entries, dim: int) -> np.ndarray:
    arr = _json_floats(entries)
    if arr.shape != (dim, dim, 2):
        raise ParseError(f"matrix shape {arr.shape} does not match dim {dim}")
    return arr[..., 0] + 1j * arr[..., 1]


def state_from_json(obj: dict) -> DensityMatrix | BipartiteState:
    """Parse the JSON state format.

    Accepted forms:
      {"dim": d, "matrix": [[[re, im], ...], ...]}   row-major entries;
                                                     an optional "dims": [d_A, d_B] splits it
      {"bloch": [x, y, z]}                           qubit Bloch vector
      {"tensor": {"a": <state>, "b": <state>}}       product state
    """
    if not isinstance(obj, dict):
        raise ParseError("state JSON must be an object")
    if "tensor" in obj:
        parts = obj["tensor"]
        if not isinstance(parts, dict) or "a" not in parts or "b" not in parts:
            raise ParseError("tensor form needs 'a' and 'b' states")
        # checked before parsing the factors, so that a nested tensor never recurses
        if any(isinstance(parts[k], dict) and ("tensor" in parts[k] or "dims" in parts[k]) for k in "ab"):
            raise ParseError("tensor factors must be single-system states")
        return BipartiteState.from_product(state_from_json(parts["a"]), state_from_json(parts["b"]))
    if "bloch" in obj:
        comps = obj["bloch"]
        if not isinstance(comps, (list, tuple)) or len(comps) != 3:
            raise ParseError("bloch form needs three components")
        try:
            return from_bloch(tuple(_json_floats(comps).tolist()))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"bad bloch components: {exc}") from None
    if "dim" in obj and "matrix" in obj:
        dim, dims = _json_dim(obj["dim"]), obj.get("dims", ())
        if "dims" in obj and not (isinstance(dims, list) and len(dims) == 2):
            raise ParseError(f"dims must be a list of two whole numbers, got {dims!r}")
        dims = tuple(map(_json_dim, dims))
        try:
            m = _matrix_from_json(obj["matrix"], dim)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"bad matrix entries: {exc}") from None
        return BipartiteState(DensityMatrix(m), dims) if dims else DensityMatrix(m)
    raise ParseError("state JSON needs 'matrix', 'bloch', or 'tensor'")


def state_to_json(s: DensityMatrix | BipartiteState) -> dict:
    """Serialize a state to the JSON matrix form (joint matrix for bipartite)."""
    m = s.joint.matrix if isinstance(s, BipartiteState) else s.matrix
    out = {"dim": int(m.shape[0]), "matrix": _re_im(m)}
    if isinstance(s, BipartiteState):
        out["dims"] = [s.dim_a, s.dim_b]
    return out
