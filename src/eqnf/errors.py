"""Exception types shared across the package."""


class EqnfError(Exception):
    """Base class for all package-specific errors."""


class SingularInput(EqnfError):
    """A matrix that must be invertible is singular to working precision."""


class NoConvergence(EqnfError):
    """An iterative solver failed to reach its tolerance."""


class NotUnipotent(EqnfError):
    """Matrix logarithm requested for a non-unipotent matrix."""


class NotSemisimple(EqnfError):
    """A matrix required to be semisimple is not (to working precision)."""


class DimensionMismatch(EqnfError):
    """Operands live in incompatible spaces."""


class NotClosed(EqnfError):
    """A set of matrices is not closed under multiplication."""


class BadCharacter(EqnfError):
    """Character values are inconsistent with the group multiplication."""


class NotEquivariant(EqnfError):
    """An object fails the required equivariance identity."""


class NonInvertibleLinearPart(EqnfError):
    """A truncated map has a singular linear layer."""


class NoRealLogarithm(EqnfError):
    """No real logarithm exists (or is reachable) for the given linear part."""


class NonFinite(EqnfError):
    """An input or an intermediate operator holds inf or NaN."""


class CkSingular(EqnfError):
    """The averaged conjugation operator C_k is singular at the given linear layer."""


class SplitFailure(EqnfError):
    """A claimed direct-sum splitting does not hold numerically."""


class NotInU(EqnfError):
    """A vector expected in the reduced subspace U = ker(S0^q - I) is not in it."""


class InverseNewtonFailed(NoConvergence):
    """Newton inversion of the reduced map did not converge."""


class SlopeTestFailed(EqnfError):
    """A log-log remainder slope fell below the required order."""


class InvariantViolation(EqnfError):
    """A structural identity that must hold by construction failed numerically."""


class ProblemTooLarge(EqnfError):
    """A dense operator the problem needs exceeds the package's byte budget."""
