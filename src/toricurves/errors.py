"""Shared exception types, mapped to CLI exit statuses in cli.py, the
checks that a parameter is an integer and that a text reads as one, and
the enumeration budget that BudgetError enforces."""

import os
import re

DEFAULT_BUDGET = 10**8
BUDGET_ENV = "TORICURVES_BUDGET"


class FanValidationError(ValueError):
    """Input data fails parsing or the smooth/complete requirements."""


class BudgetError(RuntimeError):
    """A brute-force enumeration would exceed the configured budget.

    ``required`` is the number of tuples, or None for a number too long
    to print, whose size ``bound`` then states instead."""

    def __init__(self, required: int | None, budget: int, bound: str = ""):
        super().__init__(
            f"enumeration needs {bound or required} tuples, budget is {budget} "
            f"(raise TORICURVES_BUDGET or the --budget flag to allow it)"
        )
        self.required = required
        self.budget = budget


class LimitError(RuntimeError):
    """Valid input exceeds a fixed internal size limit of the program."""


class InternalCheckError(AssertionError):
    """Two independent computations of the same quantity disagreed."""


def _is_int(x) -> bool:
    # bool subclasses int, but true and false are not integers
    return isinstance(x, int) and not isinstance(x, bool)


def _integer(x, what: str) -> int:
    """x itself when it is an integer, else ValueError naming it; a
    float, a string or a bool is never a degree, a coordinate or an
    order, so none is truncated or read as one."""
    if not _is_int(x):
        raise ValueError(f"{what} {x!r} is not an integer")
    return x


def _int(text: str) -> int:
    """text as an int, when it is an optional sign and ASCII digits:
    int() alone would also take "1_0", blanks and non-ASCII digits."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


# argparse names the type in its refusal: "invalid int value: '1_0'"
_int.__name__ = "int"


def _resolve_budget(budget: int | None) -> int:
    """The budget argument, else $TORICURVES_BUDGET, else DEFAULT_BUDGET.

    A negative or non-integer value raises ValueError naming its source.
    """
    if budget is not None:
        source, raw = "the budget argument (--budget)", budget
        value = budget if _is_int(budget) else None
    else:
        raw = os.environ.get(BUDGET_ENV)
        if raw is None:
            return DEFAULT_BUDGET
        source = BUDGET_ENV
        try:
            value = _int(raw)
        except ValueError:
            value = None
    if value is None or value < 0:
        raise ValueError(
            f"budget {raw!r} from {source} is not a nonnegative integer"
        )
    return value
