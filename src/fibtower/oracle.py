"""Brute-force ground truth: exact tower values for desk-scale indices.

Independent of the Pisano-chain engine on purpose; the two routes are
compared wherever both can run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import BudgetExceeded, FibTowerError
from .fibcore import fib, fib_exceeds
from .tower import TowerSpec

DEFAULT_ORACLE_MAX_INDEX = 2_000_000
ENV_MAX_INDEX = "FIBTOWER_MAX_INDEX"


def oracle_budget(max_index: int | None = None) -> int:
    """Effective index budget: explicit argument, else env override, else default."""
    if max_index is not None:
        return max_index
    env = os.environ.get(ENV_MAX_INDEX)
    if env is None:
        return DEFAULT_ORACLE_MAX_INDEX
    try:
        value = int(env)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(f"{ENV_MAX_INDEX} must be a nonnegative integer, got {env!r}")
    return value


@dataclass(frozen=True)
class OracleResult:
    """Exact evaluation of one tower spec.

    valuation is the exact F_n-adic valuation of the value, None when
    F_n = 1 (everything divides; n <= 2). unit_residue is the cofactor
    after dividing out F_n^valuation, reduced mod F_n; quotient_residue
    is (value / F_n^(k+m-1)) mod F_n, the quantity the chain analysis
    reports. top_index is the index of the final Fibonacci evaluation
    (for k = 1 no evaluation happens and it is just n).
    """

    spec: TowerSpec
    value: int
    top_index: int
    valuation: int | None
    unit_residue: int
    quotient_residue: int


def _ladder(spec: TowerSpec, limit: int, *, compute: bool) -> tuple[bool, int, int]:
    """Walk the index ladder; returns (feasible, top_index, value).

    With compute=False the walk exits early and value is meaningless;
    intermediate Fibonacci numbers are only materialized while the next
    index can still fit the budget.
    """
    k, n, m = spec.k, spec.n, spec.m
    if k == 1:
        return True, n, fib(n) ** m if compute else 0
    if n > limit:
        return False, n, 0
    g = fib(n) ** m
    top = n
    for level in range(2, k + 1):
        top = n * g
        if top > limit:
            if compute:
                raise BudgetExceeded(
                    f"index {top} at level {level} exceeds budget {limit}"
                )
            return False, top, 0
        if level < k and fib_exceeds(top, limit):
            # the next index n*F_top would already overflow the budget
            if compute:
                raise BudgetExceeded(
                    f"index at level {level + 1} exceeds budget {limit}"
                )
            return False, top, 0
        g = fib(top, max_index=limit)
    return True, top, g


def oracle_feasible(spec: TowerSpec, max_index: int | None = None) -> bool:
    """True iff oracle_eval would stay within the index budget."""
    feasible, _, _ = _ladder(spec, oracle_budget(max_index), compute=False)
    return feasible


def oracle_eval(spec: TowerSpec, max_index: int | None = None) -> OracleResult:
    """Exact tower value with exact valuation and unit extraction.

    Raises BudgetExceeded naming the level at which an index overflowed.
    """
    limit = oracle_budget(max_index)
    _, top, value = _ladder(spec, limit, compute=True)
    fn = fib(spec.n)
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
    v = 0
    cof = value
    while cof % fn == 0:
        cof //= fn
        v += 1
    if v < lead:
        raise FibTowerError(
            f"valuation {v} below {lead} for {spec}; counterexample to divisibility"
        )
    quotient = (value // fn**lead) % fn
    return OracleResult(
        spec=spec,
        value=value,
        top_index=top,
        valuation=v,
        unit_residue=cof % fn,
        quotient_residue=quotient,
    )
