"""Exception types raised across the toolkit."""


class DenseCapError(Exception):
    """Base class for all toolkit errors."""


class InvalidState(DenseCapError):
    """A matrix violates the density-matrix invariants (Hermiticity, trace, positivity)."""


class BlochNormExceeded(DenseCapError):
    """A Bloch vector lies outside the unit ball."""


class DimensionMismatch(DenseCapError):
    """Operands have incompatible dimensions."""


class FrameNotOrthonormal(DenseCapError):
    """Three vectors fail the orthonormality / completeness requirements."""


class InvalidDimension(DenseCapError):
    """A construction was requested for an unsupported dimension (d < 2)."""


class NoStates(DenseCapError):
    """An optimizer was called with an empty list of signal states."""


class RankTooLarge(DenseCapError):
    """Requested decomposition has fewer terms than the rank of the state."""


class SplitMismatch(DenseCapError):
    """A decomposition's vectors do not match the declared bipartite split."""


class DimensionUnsupported(DenseCapError):
    """An operation restricted to two qubits received another dimension."""


class InvalidTrials(DenseCapError):
    """A simulation was requested with a non-positive trial count."""


class InvalidEnsemble(DenseCapError, ValueError):
    """Encoding unitaries that are not unitary, or a prior that is not a distribution."""


class ParseError(DenseCapError):
    """Input file or argument could not be parsed."""
