"""Exception types shared across the package."""

from __future__ import annotations


class WeakcommError(Exception):
    """Base class for errors raised by this package."""


class DimensionMismatchError(WeakcommError, ValueError):
    """Operands have incompatible dimensions."""


class LiteralFormatError(WeakcommError, ValueError):
    """A scalar/matrix/operator literal could not be parsed."""


class NotNilpotentError(WeakcommError, ValueError):
    """An operation required a nilpotent matrix and the argument is not."""


class ZeroPolynomialError(WeakcommError, ValueError):
    """An operation is undefined for the zero polynomial."""


class HypothesisNotMetError(WeakcommError, ValueError):
    """A structural operation's stated hypothesis fails for the arguments."""


class SamplerBudgetError(WeakcommError, RuntimeError):
    """A sampler or search exhausted its attempt budget.

    Carries the attempt statistics so callers can report them.
    """

    def __init__(self, message: str, attempts: int, accepted: int = 0):
        super().__init__(f"{message} (attempts={attempts}, accepted={accepted})")
        self.attempts = attempts
        self.accepted = accepted

    def __reduce__(self):
        # rebuild from the formatted message without calling __init__ again
        return (type(self).__new__, (type(self), *self.args), self.__dict__)


class EigenvalueConvergenceError(WeakcommError, RuntimeError):
    """The iterative eigenvalue solver failed to converge."""


class UnknownIdentityError(WeakcommError, KeyError):
    """No identity with the requested id exists in the catalog."""


class UnknownExampleError(WeakcommError, KeyError):
    """No registry entry with the requested id exists."""


class UnknownPredicateError(WeakcommError, KeyError):
    """No witness predicate with the requested name exists."""
