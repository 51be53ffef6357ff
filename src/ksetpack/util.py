"""Shared plumbing: exact rational text forms, integer scaling, work budgets,
error types."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class CapExceededError(Exception):
    """A resource cap was hit (oracle size, clique count, work budget)."""


class ParseError(ValueError):
    """Input text did not match the expected grammar."""

    def __init__(self, message: str, lineno: int | None = None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


def format_fraction(x: Fraction) -> str:
    """Render a rational as 'p' or 'p/q'. Never a float."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_fraction(text: str) -> Fraction:
    """Parse 'p' or 'p/q' into a Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}: {exc}") from None


def integral(values) -> list[int]:
    """The rationals times the least common denominator of their values:
    every sum keeps its sign and every comparison its outcome, in integer
    arithmetic."""
    ratios = [p.as_integer_ratio() for p in values]
    scale = math.lcm(*(q for _, q in ratios))
    return [p * (scale // q) for p, q in ratios]


# Generous default: enough for every desk-scale run in the test suite, small
# enough that a runaway enumeration fails in seconds rather than hours.
DEFAULT_WORK_LIMIT = 20_000_000


@dataclass
class WorkBudget:
    """Deterministic operation counter. Counts work units, not wall clock."""

    limit: int | None = DEFAULT_WORK_LIMIT
    spent: int = 0

    def spend(self, amount: int = 1) -> None:
        self.spent += amount
        if self.limit is not None and self.spent > self.limit:
            raise CapExceededError(
                f"work budget exhausted ({self.spent} > {self.limit} units)"
            )


@dataclass
class SearchStats:
    """Mutable accumulator a caller may pass in to observe a search run."""

    iterations: int = 0
