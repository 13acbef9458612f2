"""Exception hierarchy shared by all jforge modules.

Every error raised on purpose by the library derives from JforgeError so
callers (and the CLI) can distinguish deliberate diagnostics from bugs.
"""

from __future__ import annotations


class JforgeError(Exception):
    """Base class for all library errors."""


class UsageError(JforgeError):
    """Configuration problem that should exit with status 2."""


class DivisionByZero(JforgeError):
    """Division by a rational function that is identically zero."""


class UnboundParameter(JforgeError):
    """A required parameter has no binding (schedules, evaluation)."""


class NotExpandable(JforgeError):
    """A Laurent expansion was requested with inconsistent arguments."""


class PoleError(JforgeError):
    """A limit at 0 does not exist because negative powers survive.

    Carries enough context to diagnose a divergent contraction: for each
    offending position the pole order and the lowest Laurent coefficients.
    """

    def __init__(self, message: str, diagnostics: list | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


class DimensionMismatch(JforgeError):
    """Matrix operation on operands of incompatible shape or basis."""


class SingularMatrix(JforgeError):
    """Attempted inversion of a matrix with no inverse over the field."""


class GrammarError(JforgeError):
    """A parameter expression string does not parse."""


class DegreeOverflow(JforgeError):
    """A word is too deep for the recursive noncommutative reduction."""


class NonTerminating(JforgeError):
    """A reduction exceeded the configured rewrite step bound."""


class OrientationFailure(JforgeError):
    """A derived relation cannot be oriented by the generator order.

    Raised when Gaussian elimination of relation entries produces a pivot
    word that is already in normal order; this signals a convention error
    upstream (wrong matrix transpose or generator order), never a state to
    silently accept.
    """


class MissingInverse(JforgeError):
    """An appended inverse generator is needed but its rules are absent."""


class ScheduleError(JforgeError):
    """A contraction schedule file is missing, malformed or incomplete."""
