"""Exception types shared across the package."""


class CanringError(ValueError):
    """Base class for all structured errors raised by this package."""


class TrivialRingError(CanringError):
    """The section ring has no nonconstant elements (total degree < 0)."""


class UnsupportedDivisorError(CanringError):
    """Operation requires a divisor of positive total degree."""


class PointCollisionError(CanringError):
    """Two support points coincide in the chosen ground field."""


class GenerationError(CanringError):
    """A generator list does not generate the ring through the requested degree."""


class OversizeError(CanringError):
    """Instance exceeds the size limits of the brute-force oracle."""
