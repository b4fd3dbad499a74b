"""Exception types shared across the package."""

from __future__ import annotations


class EvosisError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(EvosisError, ValueError):
    """A model configuration or a run's inputs violate one or more invariants.

    Attributes:
        errors: one message per violated invariant, each prefixed with the
            offending field path.
    """

    def __init__(self, errors: list[str]) -> None:
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class ConvergenceError(EvosisError):
    """An iterative solver exhausted its iteration budget."""


class StepError(EvosisError):
    """A single time step produced non-finite values or an unsolvable system."""


class KernelBuildError(EvosisError):
    """The compiled step loop of the engine could not be built or loaded."""


class NotApplicableError(EvosisError):
    """A requested analytic quantity does not exist for the given profiles."""
