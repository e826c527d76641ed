"""Exception types shared across the package.

A refusal of the input, or a limit reached, is a `FermatoscError`.  A failed
exact check is a `CertificationFailure` that carries its witness.
"""


class FermatoscError(Exception):
    """The engine refuses its input or reaches a limit."""


class CertificationFailure(FermatoscError):
    """An exact certificate did not hold; carries the offending value."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NonOrdinary(FermatoscError):
    """A census entry is not an ordinary singularity."""
