"""Error types shared across the package.

Plain ``ValueError`` is raised for malformed arguments (wrong shapes,
out-of-range parameters), and ``TypeError`` for input that is not real
numbers, such as text or booleans (a JSON ``true`` is not read as 1,
inside an array either).  The classes below cover the remaining failure
modes, each raised once, where the condition is found, and each naming
the ``kind`` the command line writes for it:

* ``DegenerateConfigurationError``: coincident points and non-finite
  points or samples (``PointSet``, ``SampleSet``, and
  ``extraction.real_projection`` for zeros with a NaN or infinite part,
  before it judges realness), rank-deficient interpolation or sample
  moments, point differences a ``TransformedLoss`` finds numerically
  dependent (one message for both kinds), and monomials that overflow.
* ``NumericalFailureError``: finite zeros that are not real
  (``extraction.real_projection``, the only place that refuses them),
  clustered eigenvalues on every draw, and a Schur factorization that
  fails or loses accuracy.
* ``InvalidStateError``: multiplication matrices that do not commute,
  refused by ``extraction.extract_zero_set``.
"""


class DegenerateConfigurationError(ValueError):
    """Input is rank deficient or too ill conditioned to proceed.

    Carries a condition estimate of the offending matrix when one is
    available (``float("inf")`` for exactly singular input).
    """

    kind = "degenerate-configuration"

    def __init__(self, message: str, condition: float | None = None):
        if condition is not None:
            message = f"{message} (condition estimate {condition:.3e})"
        super().__init__(message)
        self.condition = condition


class NumericalFailureError(RuntimeError):
    """A computation failed to converge, lost all accuracy, or gave zeros that are not real."""

    kind = "numerical-failure"


class InvalidStateError(RuntimeError):
    """An object does not satisfy the precondition of the requested call."""

    kind = "invalid-state"
