"""Exception types shared across the package."""

from __future__ import annotations


class FibTowerError(Exception):
    """Base class for all fibtower errors."""


class BudgetExceeded(FibTowerError):
    """A computation was refused for exceeding a budget; this class itself
    names the exact-index budget and analyze's (tower.ANALYZE_BUDGET), the
    subclasses name the others."""


class FactorBudgetExceeded(BudgetExceeded):
    """A composite cofactor resisted the budgeted factoring effort."""


class CapExceeded(BudgetExceeded):
    """Brute-force period search gave up before the cap."""


class PreconditionViolated(FibTowerError, ValueError):
    """A checker was called on arguments outside its stated hypothesis."""


class NoExponentError(FibTowerError):
    """No power of s makes j divide a*s^c (the minimal exponent does not exist)."""


class NoWitnessError(FibTowerError):
    """No prime witness exists; this would contradict a proved statement."""
