"""Exception hierarchy for the kreinframes package.

Two branches matter operationally: :class:`InputError` covers everything a
caller can fix (bad shapes, degenerate subspaces, requests that are undefined
for the given data), while :class:`InternalInconsistency` flags disagreement
between two routes that should have produced the same answer.  The CLI maps
the former to exit code 2 and the latter to exit code 3.  A third,
:class:`NumericalFailure`, is a LAPACK kernel that failed on the input (exit
code 4).
"""

from __future__ import annotations


class KreinFrameError(Exception):
    """Base class for all package-specific errors."""


class InputError(KreinFrameError):
    """The input data or the request itself is invalid."""


class InternalInconsistency(KreinFrameError):
    """Two independent computation routes disagreed beyond tolerance."""


class NumericalFailure(KreinFrameError):
    """A LAPACK kernel failed on the input (an SVD that did not converge):
    no answer was computed, so none is reported."""


class NotAnInvolution(InputError):
    """The proposed fundamental symmetry is not a symmetric involution."""

    def __init__(self, message: str, symmetry_defect: float = 0.0, involution_defect: float = 0.0):
        super().__init__(message)
        self.symmetry_defect = symmetry_defect
        self.involution_defect = involution_defect


class DimensionMismatch(InputError):
    """Operands live in different spaces or have incompatible shapes."""


class ZeroSubspace(InputError):
    """The spanning set has numerical rank zero, or a subspace has dimension zero."""


class NotRegular(InputError):
    """The subspace is degenerate: its Gram operator is numerically singular."""

    def __init__(self, message: str, smallest_singular_value: float = 0.0):
        super().__init__(message)
        self.smallest_singular_value = smallest_singular_value


class NotContained(InputError):
    """A subspace expected to sit inside another one does not."""


class NotUniformlyDefinite(InputError):
    """The subspace is not uniformly definite, so the operation is undefined."""


class NeutralVector(InputError):
    """A frame vector has (numerically) vanishing self-product; carries its
    index and the vector itself as ``witness``."""

    def __init__(self, message: str, index: int, self_product: float, witness=None):
        super().__init__(message)
        self.index = index
        self.witness = witness
        self.self_product = self_product


class NonPositiveWeight(InputError):
    """Weights of a weighted family must be strictly positive."""

    def __init__(self, message: str, index: int, weight: float):
        super().__init__(message)
        self.index = index
        self.weight = weight


class IndefiniteOrNeutralSubspace(InputError):
    """An entry of a weighted family is not uniformly definite.

    Carries the offending entry index and a witness vector ``w`` in the entry
    with ``[w, w]`` at or below the decision tolerance in modulus (neutral
    direction) or of the wrong sign.
    """

    def __init__(self, message: str, index: int, witness=None, self_product: float = 0.0):
        super().__init__(message)
        self.index = index
        self.witness = witness
        self.self_product = self_product


class NotAJFrame(InputError):
    """The vector sequence fails the frame verification."""


class NotAJFusionFrame(InputError):
    """The weighted family fails the fusion verification."""


class NotSurjective(InputError):
    """The operator is numerically rank-deficient where surjectivity is required."""


class NotPositiveDefinite(InputError):
    """A matrix required to be symmetric positive definite is not."""


class IndexOutOfRange(InputError):
    """An index subset refers to entries outside the family."""


class InfeasibleConfig(InputError):
    """Generator configuration cannot produce a valid instance."""


class ParseError(InputError):
    """The problem or report file is not valid strict JSON."""


class SchemaError(InputError):
    """The JSON document violates the documented schema."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path
