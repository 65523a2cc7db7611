"""Exception types shared across the package.

The split matters for the command-line front end: configuration problems
(bad model definitions, invalid states, malformed files) map to exit code 2,
while failures arising during a numerical run map to exit code 3.
"""


class QslError(Exception):
    """Base class for all package-specific errors."""


class StateError(QslError):
    """A matrix or state violates its invariants (Hermiticity, trace,
    positivity, dimension)."""


class ModelError(QslError):
    """A Lindblad model definition is invalid.  Messages carry the offending
    field path when the model came from a JSON document."""


class EigensolverError(QslError):
    """An eigensolver failed: the Jacobi solver exhausted its sweep budget
    (``residual`` set), or LAPACK raised ``LinAlgError`` on a stack."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class IntegrationError(QslError):
    """A trajectory left the valid state space mid-run."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class InconsistencyError(QslError):
    """Inputs contradict the path-length inequality (geodesic length longer
    than the traveled path); usually indicates an integrator or quadrature
    bug upstream."""


class FrozenDynamicsError(QslError):
    """An average-speed quantity is undefined because nothing moved
    (zero path length or zero horizon)."""


class PurityError(QslError):
    """An operation restricted to pure initial states was handed a mixed one."""


class StationaryStateError(QslError):
    """No stationary state could be determined for a model."""
