"""Exception types shared across the toolkit.

The command line maps InvalidInputError, like any NtcertError other than
VerificationError, to exit 2, and VerificationError to exit 3.  The two
fiber and curve errors are kept apart because family catches them by type,
to skip a degenerate fiber or to reword a singular family.
"""


class NtcertError(Exception):
    """Base class for every toolkit-specific error."""


class InvalidInputError(NtcertError, ValueError):
    """An argument violates an operation's preconditions."""


class SingularCurveError(NtcertError, ValueError):
    """Weierstrass coefficients with vanishing discriminant."""


class DegenerateFiberError(NtcertError, ValueError):
    """A specialization whose cubic degenerates (zero discriminant)."""


class VerificationError(NtcertError):
    """An exact check on a fact the output certifies came out false."""
