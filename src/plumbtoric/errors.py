"""Exception hierarchy.

Precondition violations subclass :class:`PreconditionError` and map to CLI
exit status 2.  :class:`InternalInvariantError` marks consistency checks that
must never fail on any input accepted by the preconditions; the CLI maps it
to exit status 1.
"""


class PlumbtoricError(Exception):
    pass


class PreconditionError(PlumbtoricError):
    pass


class ZeroVector(PreconditionError):
    pass


class ParallelSameDirection(PreconditionError):
    """Consecutive rays point the same way; no L-shape pair produces this."""


class TooShort(PreconditionError):
    """Chain has a single vertex; the gluing construction needs n >= 2."""


class NoNonnegativeEntry(PreconditionError):
    pass


class MinusOnePresent(PreconditionError):
    """A -1 entry is an exceptional sphere; blow it down first."""


class EmptyPlumbing(PreconditionError):
    pass


class MovePreconditionFailed(PreconditionError):
    pass


class NonpositiveArea(PreconditionError):
    """The supplied heights violate the strict inequalities z_j < -s z."""


class NotConcaveCase(PreconditionError):
    """No entry is >= 0, so the boundary is not concave.

    ``negative_definite`` tells the caller whether the chain falls in the
    convex (negative definite) regime instead.
    """

    def __init__(self, message: str, negative_definite: bool):
        super().__init__(message)
        self.negative_definite = negative_definite

    def __reduce__(self):  # pickled with its own arguments, for process pools
        return type(self), (self.args[0], self.negative_definite), self.__dict__


class NotDelzantCorner(PreconditionError):
    pass


class SizeTooLarge(PreconditionError):
    pass


class NotCoprime(PreconditionError):
    pass


class ActionBoundHit(PreconditionError):
    """Some orbit or generator has action exactly equal to the bound L."""


class InvalidItinerary(PreconditionError):
    def __init__(self, violations):
        super().__init__("itinerary fails validation: %s" % (violations,))
        self.violations = violations

    def __reduce__(self):
        return type(self), (self.violations,), self.__dict__


class SurveyTooLarge(PreconditionError):
    pass


class TooManyGenerators(PreconditionError):
    """The ECH generator search passed its cap on the number of generators."""


class MalformedDocument(PreconditionError):
    pass


class OutputTooLarge(PreconditionError):
    """The output holds a number too large to print (Python's int-to-str
    digit limit) or, in a picture, to draw."""


class InternalInvariantError(PlumbtoricError):
    pass


class InconsistentInvariant(InternalInvariantError):
    """The two lens-invariant routes disagreed.  Must never fire."""
