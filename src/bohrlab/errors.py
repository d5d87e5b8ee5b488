"""Exception types shared across the package."""


class BohrlabError(Exception):
    """Base class for all errors raised by bohrlab."""


class ShapeError(BohrlabError):
    """Operands live on different groups or have the wrong dimension."""


class CapacityError(BohrlabError):
    """An enumeration or oracle would exceed its configured size cap."""


class DomainError(BohrlabError):
    """A value or parameter is outside its documented domain."""


class EmptyInputError(DomainError):
    """An input with empty support (zero mean) where positive mass is required."""


class PreconditionError(BohrlabError):
    """A caller-supplied precondition does not hold for the given arguments."""


class InvariantBreach(BohrlabError):
    """A quantitative guarantee failed; signals a numerical or pipeline bug."""


class AmbiguousBoundary(BohrlabError):
    """A membership distance ties the radius, or lies within the rounding of its arcsine.

    Membership is decided in exact integer phases (``bohr``), so this is
    raised only at a true tie: a torus distance j/L equal to the radius, or a
    character-form phase inside the few-ulp enclosure of L asin(r/2)/pi.
    """


class RetryExhausted(BohrlabError):
    """A bounded randomized retry loop gave up without meeting its target."""
