"""Exception types shared across the package."""


class CubicspanError(Exception):
    """Base class for all package-specific errors."""


class NotPrime(CubicspanError):
    """Field characteristic is not a prime (or exceeds the supported range)."""


class DegreeTooLarge(CubicspanError):
    """Requested extension degree is outside the supported range."""


class IdenticallyZero(CubicspanError):
    """A form that was expected to be nonzero vanishes identically.

    Raised by root finders when every coefficient is zero; callers use it to
    detect a line lying inside a surface.
    """


class EqualPoints(CubicspanError):
    """Two distinct points were required but the same point was passed twice."""


class BudgetExceeded(CubicspanError):
    """An enumeration exceeded its configured budget."""


class SingularPoint(CubicspanError):
    """The point is a singular point of the surface (vanishing gradient)."""


class CharacteristicThree(CubicspanError):
    """The computation is not defined in characteristic three."""


class AllZero(CubicspanError):
    """Every coefficient of a polynomial vanishes."""


class LineNotOnSurface(CubicspanError):
    """A line claimed to lie on the surface does not."""


class LineOnSurface(CubicspanError, ValueError):
    """The line lies inside the surface, so it cuts out no intersection cycle."""


class PointNotOnSurface(CubicspanError):
    """A point claimed to lie on the surface does not satisfy its equation."""


class NoRationalPoints(CubicspanError):
    """No rational points are available for an operation that needs one."""


class NoTernaryPoint(CubicspanError):
    """No ternary point could be found on the surface."""


class HypothesisFailed(CubicspanError):
    """A stated arithmetic hypothesis of an operation does not hold."""


class BadPrime(CubicspanError):
    """The prime does not satisfy the congruence or divisibility conditions."""


class FamilyMismatch(CubicspanError, ValueError):
    """Surface family and requested operation do not match, or the family
    name is unknown."""


class NotFullyRational(CubicspanError):
    """An intersection cycle has points outside the base field."""


class PrimeConditionFailed(CubicspanError):
    """A prime fails the splitting conditions needed for this computation."""


class ConstantsUnavailable(CubicspanError):
    """Required constants (roots of unity, square or cube roots) do not exist."""


class ConfigurationAbsent(CubicspanError):
    """The requested geometric configuration does not exist on this surface."""
