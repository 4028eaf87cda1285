"""Exception types shared across the toolkit.

The command line maps InvalidInputError, like any NtcertError other than
VerificationError, to exit 2, and VerificationError to exit 3.  The three
fiber and curve errors are kept apart because family catches them by type,
to skip a fiber or to reword a degenerate family.
"""


class NtcertError(Exception):
    """Base class for every toolkit-specific error."""


class InvalidInputError(NtcertError, ValueError):
    """An argument violates an operation's preconditions."""


class SingularCurveError(NtcertError, ValueError):
    """Weierstrass coefficients with vanishing discriminant."""


class DegenerateFiberError(NtcertError, ValueError):
    """A specialization whose cubic degenerates (zero discriminant)."""


class RationalFiberError(NtcertError, ValueError):
    """A fiber cubic that is reducible over Q, so no cubic field arises."""


class VerificationError(NtcertError):
    """An exact check on a fact the output certifies came out false."""
