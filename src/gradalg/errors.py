"""Exception types shared across the package.

Each type names one thing the caller can do about it:

- `ValidationError`: outside input is malformed; fix the input at `path`.
- `Unsupported`: the operation does not apply to this input (a non-abelian
  group, a non-symmetric cocycle to split, a fast path or separator of
  another shape, a rebase to a conductor that is not a multiple); use
  another route.  A route raises it from its guard, before it derives
  anything, so trying a route costs one call.
- `VerificationFailed`: one of the engine's own checks failed; the engine
  is at fault, never the input.
- `BudgetExceeded`, `NotFoundWithinBudget`, `ConductorTooLarge`: the work
  is past a limit; raise the limit or accept an inconclusive result.
- `DecisionFalse`, `DecisionWasTrue`, `NoMatch`: the requested thing does
  not exist for this input (no embedding, nothing to separate, no target
  component).
- The rest name the mathematical condition the input or an argument fails
  (`NotAGroup`, `NotSubgroup`, `MismatchedParent`, `ElementOutsideGroup`,
  `LengthMismatch`, `NotRootOfUnity`, `CocycleIdentityViolated`,
  `DivisionByZero`).
"""


class GradAlgError(Exception):
    """Base class for all gradalg errors."""


class ValidationError(GradAlgError):
    def __init__(self, path, reason):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


class Unsupported(GradAlgError):
    pass


class VerificationFailed(GradAlgError):
    pass


# -- limits ------------------------------------------------------------------

class ConductorTooLarge(GradAlgError):
    pass


class BudgetExceeded(GradAlgError):
    pass


class NotFoundWithinBudget(GradAlgError):
    pass


# -- outcomes ----------------------------------------------------------------

class DecisionFalse(GradAlgError):
    pass


class DecisionWasTrue(GradAlgError):
    pass


class NoMatch(GradAlgError):
    def __init__(self, index):
        super().__init__(f"no admissible target component for component {index}")
        self.index = index


# -- mathematical conditions -------------------------------------------------

class NotAGroup(GradAlgError):
    pass


class NotSubgroup(GradAlgError):
    pass


class MismatchedParent(GradAlgError):
    pass


class ElementOutsideGroup(GradAlgError):
    pass


class LengthMismatch(GradAlgError):
    pass


class NotRootOfUnity(GradAlgError):
    pass


class CocycleIdentityViolated(GradAlgError):
    def __init__(self, u, v, w):
        super().__init__(f"cocycle identity fails at triple ({u}, {v}, {w})")
        self.triple = (u, v, w)


class DivisionByZero(GradAlgError, ZeroDivisionError):
    pass
