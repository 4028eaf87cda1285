"""Exception types shared across the toolkit."""


class NtcertError(Exception):
    """Base class for every toolkit-specific error."""


class InvalidInputError(NtcertError, ValueError):
    """An argument violates an operation's preconditions."""


class ReducibleModulusError(NtcertError, ValueError):
    """A quotient-ring modulus declared irreducible turned out not to be."""


class MixedModulusError(NtcertError, ValueError):
    """Arithmetic attempted between elements of different quotient rings."""


class InvalidPrimeError(NtcertError, ValueError):
    """A prime fails the good-reduction / validity requirements of an operation."""


class RamifiedPrimeError(NtcertError, ValueError):
    """Splitting behaviour requested at a prime dividing the discriminant."""


class ReducibleCubicError(NtcertError, ValueError):
    """A cubic required to be irreducible over Q has a rational root."""


class DegenerateCubicError(NtcertError, ValueError):
    """A cubic with vanishing discriminant where a separable one is required."""


class WrongClassError(NtcertError, ValueError):
    """A field-distinctness certificate was requested for a non-cyclic cubic."""


class DegenerateFamilyError(NtcertError, ValueError):
    """Family parameters that do not define a nonsingular curve."""


class SingularCurveError(NtcertError, ValueError):
    """Weierstrass coefficients with vanishing discriminant."""


class DegenerateFiberError(NtcertError, ValueError):
    """A specialization whose cubic degenerates (zero discriminant)."""


class RationalFiberError(NtcertError, ValueError):
    """A fiber cubic that is reducible over Q, so no cubic field arises."""


class IncompatiblePointsError(NtcertError, ValueError):
    """Group-law operands living on different curves or in different fields."""


class InvalidExponentError(NtcertError, ValueError):
    """A superelliptic exponent that does not solve the defining congruence."""


class NoAutomorphismError(NtcertError, ValueError):
    """Quotient genus requested for a prime admitting no order-3 symmetry."""


class InconsistentRamificationError(NtcertError, ValueError):
    """Ramification data whose Riemann-Hurwitz genus is not a nonnegative integer."""


class VerificationError(NtcertError):
    """An exact check on a fact the output certifies came out false."""
