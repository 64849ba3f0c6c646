"""Exception types shared across the package."""


class ToolkitError(Exception):
    """Base class for every package-specific error."""


# --- finite fields ---

class NotPrimeError(ToolkitError):
    pass


class ReducibleModulusError(ToolkitError):
    pass


class MissingModulusError(ToolkitError):
    pass


class FieldMismatchError(ToolkitError):
    pass


# --- polynomials and parsing ---

class ParseError(ToolkitError):
    pass


class UnknownVariableError(ParseError):
    pass


class WrongFieldError(ParseError):
    """Generator symbol used over a prime field, or a coefficient outside it."""


class DimensionMismatchError(ToolkitError):
    pass


class NotHomogeneousError(ToolkitError):
    pass


# --- shared resource guard ---

class BudgetExceededError(ToolkitError):
    """An enumeration or elimination loop exceeded its configured budget."""


# --- varieties ---

class DeclarationMismatchError(ToolkitError):
    pass


class DegenerateComponentError(ToolkitError):
    """A component's ideal cuts out the whole ambient space."""


class UnknownComponentError(ToolkitError, KeyError):
    """A component name the variety does not have."""

    def __str__(self):  # the message as given, not KeyError's repr of it
        return str(self.args[0])


# --- projective geometry ---

class InconsistentFiltersError(ToolkitError):
    pass


class BadPointError(ToolkitError, ValueError):
    """Point coordinates of the wrong arity, or all zero."""


# --- bound evaluators ---

class BadSequenceError(ToolkitError):
    """Dimension/degree input outside the evaluator's contract."""


class DimensionTooLargeError(BadSequenceError):
    pass


class TooFewComponentsError(BadSequenceError):
    pass


# --- constructions ---

class InfeasibleError(ToolkitError):
    """Requested size is not achievable; carries the size that was reached."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class InvalidSpecError(ToolkitError):
    pass


# --- incidence censuses ---

class NotLinearError(ToolkitError):
    pass


class ComponentIsHyperplaneError(ToolkitError):
    pass


class PointNotOnComponentError(ToolkitError):
    pass


class PointNotOnVarietyError(ToolkitError):
    pass
