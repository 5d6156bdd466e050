"""Shared exception types, mapped to CLI exit statuses in cli.py."""


class FanValidationError(ValueError):
    """Input data fails parsing or the smooth/complete requirements."""


class BudgetError(RuntimeError):
    """A brute-force enumeration would exceed the configured budget."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"enumeration needs {required} tuples, budget is {budget} "
            f"(raise TORICURVES_BUDGET or the --budget flag to allow it)"
        )
        self.required = required
        self.budget = budget


class LimitError(RuntimeError):
    """Valid input exceeds a fixed internal size limit of the program."""


class InternalCheckError(AssertionError):
    """Two independent computations of the same quantity disagreed."""
