"""Shared exception types.

Plain ``ValueError`` is used for ordinary domain errors (negative SNR,
wrong vector length, non-finite input).  The classes below exist where a
caller needs to tell failure modes apart, in particular the CLI exit-code
contract (infeasible configuration vs. internal invariant violation).
"""


class InvalidCodeError(ValueError):
    """Linear code generator maps two messages to one codeword mod q."""


class CapacityError(RuntimeError):
    """An enumeration would exceed its size cap."""


class InvalidCertificateError(ValueError):
    """A sum certificate has an out-of-range candidate index."""


class InfeasibleConfigError(ValueError):
    """Configuration violates a hypothesis required by the requested quantity."""


class InvariantViolationError(RuntimeError):
    """An internal consistency check failed; indicates a bug, never bad input."""
