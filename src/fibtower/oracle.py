"""Brute-force ground truth: exact tower values for desk-scale indices.

Independent of the Pisano-chain engine and of route 3 on purpose; the
routes are compared wherever they can all run. Feasibility walks the
tower's indices only; an evaluation walks them the same way and then
computes the tower value once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded, FibTowerError
from .fibcore import fib, fib_exceeds
from .tower import TowerSpec

DEFAULT_ORACLE_MAX_INDEX = 2_000_000


def oracle_budget(max_index: int | None = None) -> int:
    """Effective index budget: the explicit argument, else the default."""
    return DEFAULT_ORACLE_MAX_INDEX if max_index is None else max_index


@dataclass(frozen=True)
class OracleResult:
    """Exact evaluation of one tower spec.

    valuation is the exact F_n-adic valuation of the value, None when
    F_n = 1 (everything divides; n <= 2). unit_residue is the cofactor
    after dividing out F_n^valuation, reduced mod F_n; quotient_residue
    is (value / F_n^(k+m-1)) mod F_n, the quantity the chain analysis
    reports. top_index is the index of the final Fibonacci evaluation
    (for k = 1 that is F_n, so it is just n).
    """

    spec: TowerSpec
    value: int
    top_index: int
    valuation: int | None
    unit_residue: int
    quotient_residue: int


def _ladder(spec: TowerSpec, limit: int) -> int | BudgetExceeded:
    """Walk the tower's indices n*G(1), ..., n*G(k-1) against the budget.

    Returns the top index when every index fits limit (for k = 1 the top
    index is n, the index of F_n). Otherwise returns, unraised,
    the BudgetExceeded naming the first level whose index exceeds limit.
    Only the Fibonacci numbers below the top index are materialized, never
    the tower value itself.
    """
    k, n, m = spec.k, spec.n, spec.m
    if n > limit:
        # F_n is the level-1 value, and the level-2 index n*F_n^m is at least n
        return BudgetExceeded(f"index at level {min(k, 2)} exceeds budget {limit}")
    if k == 1:
        return n
    # Every index is n times a Fibonacci power, so it exceeds limit iff the
    # power exceeds limit // n. F_i is compared with that bound before it is
    # computed, so no value much larger than the budget is materialized, and
    # no index goes into a message.
    bound = limit // n
    power = None if fib_exceeds(n, bound) else _power_within(fib(n), m, bound)
    if power is None:
        return BudgetExceeded(f"index at level 2 exceeds budget {limit}")
    top = n * power
    for level in range(3, k + 1):
        if fib_exceeds(top, bound):
            return BudgetExceeded(f"index at level {level} exceeds budget {limit}")
        top = n * fib(top, max_index=limit)
    return top


def _power_within(base: int, e: int, bound: int) -> int | None:
    """base**e, or None once it exceeds bound; built one factor at a time."""
    power = 1
    for _ in range(e if base > 1 else 0):
        power *= base
        if power > bound:
            return None
    return power


def oracle_feasible(spec: TowerSpec, max_index: int | None = None) -> bool:
    """True iff oracle_eval would stay within the index budget."""
    return not isinstance(_ladder(spec, oracle_budget(max_index)), BudgetExceeded)


def oracle_eval(spec: TowerSpec, max_index: int | None = None) -> OracleResult:
    """Exact tower value with exact valuation and unit extraction.

    Raises BudgetExceeded naming the level at which an index overflowed.
    """
    limit = oracle_budget(max_index)
    top = _ladder(spec, limit)
    if isinstance(top, BudgetExceeded):
        raise top
    fn = fib(spec.n, max_index=limit)
    value = fn**spec.m if spec.k == 1 else fib(top, max_index=limit)
    lead = spec.k + spec.m - 1
    if fn == 1:
        return OracleResult(
            spec=spec,
            value=value,
            top_index=top,
            valuation=None,
            unit_residue=0,
            quotient_residue=0,
        )
    # One divmod per factor of F_n: at v == lead the cofactor is
    # value / F_n^lead, so its remainder is the quotient residue, and the
    # first nonzero remainder is the unit residue.
    v, cof = 0, value
    while True:
        cof, rem = divmod(cof, fn)
        if v == lead:
            quotient = rem
        if rem:
            break
        v += 1
    if v < lead:
        raise FibTowerError(
            f"valuation {v} below {lead} for {spec}; counterexample to divisibility"
        )
    return OracleResult(
        spec=spec,
        value=value,
        top_index=top,
        valuation=v,
        unit_residue=rem,
        quotient_residue=quotient,
    )
