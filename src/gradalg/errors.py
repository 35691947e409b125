"""Exception types shared across the package."""


class GradAlgError(Exception):
    """Base class for all gradalg errors."""


# -- scalars ---------------------------------------------------------------

class DivisionByZero(GradAlgError, ZeroDivisionError):
    pass


class ConductorNotMultiple(GradAlgError):
    pass


class NotRootOfUnity(GradAlgError):
    pass


class ConductorTooLarge(GradAlgError):
    pass


# -- groups ----------------------------------------------------------------

class NotLatinSquare(GradAlgError):
    pass


class NotAssociative(GradAlgError):
    pass


class NoIdentity(GradAlgError):
    pass


class MismatchedParent(GradAlgError):
    pass


class NotSubgroup(GradAlgError):
    pass


class ElementOutsideGroup(GradAlgError):
    pass


# -- cocycles ----------------------------------------------------------------

class CocycleIdentityViolated(GradAlgError):
    def __init__(self, u, v, w):
        super().__init__(f"cocycle identity fails at triple ({u}, {v}, {w})")
        self.triple = (u, v, w)


class MismatchedGroup(GradAlgError):
    pass


class NonAbelianGroup(GradAlgError):
    pass


class NotSymmetric(GradAlgError):
    pass


class NoSolution(GradAlgError):
    pass


# -- graded algebras ---------------------------------------------------------

class DegreeOutsideGroup(GradAlgError):
    pass


# -- identities ----------------------------------------------------------------

class DegreeMismatch(GradAlgError):
    pass


class LengthMismatch(GradAlgError):
    pass


class BudgetExceeded(GradAlgError):
    pass


class NotFoundWithinBudget(GradAlgError):
    pass


# -- embeddings ----------------------------------------------------------------

class NonAbelianUnsupported(GradAlgError):
    pass


class DecisionWasTrue(GradAlgError):
    pass


class DecisionFalse(GradAlgError):
    pass


class VerificationFailed(GradAlgError):
    pass


class NoMatch(GradAlgError):
    def __init__(self, index):
        super().__init__(f"no admissible target component for component {index}")
        self.index = index


# -- cli ----------------------------------------------------------------

class ParseError(GradAlgError):
    pass


class ValidationError(GradAlgError):
    def __init__(self, path, reason):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason
