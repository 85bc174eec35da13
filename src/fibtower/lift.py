"""Route 3: the tower's unit G(k)/F_n^(k+m-1) mod F_n, F_n unfactored.

Write F = F_n, F' = F_{n-1} and G(j) = G(j, n, m) for the tower's j-th
term, so G(1) = F^m and G(j+1) = F_{n G(j)}. The index-multiple expansion
    F_{nx} = sum_{i=0..x} C(x,i) F^i F'^(x-i) F_i
is cut by the paper's truncation lemma: when F^(E-2) divides x, every
term with i >= 3 vanishes mod F^E, because v_p(C(x,i)) >= v_p(x) - v_p(i)
and v_p(i) <= i - 2 for every prime p. The tower's theorem gives
F^(j+m-1) | G(j), so with x = G(j) and E = j + m + 1
    G(j+1) == x F F'^(x-1) + C(x,2) F^2 F'^(x-2)  (mod F^(j+m+1)).
Divide by F^(j+m) and write u_j = G(j)/F^(j+m-1) mod F:
- the first term gives u_j F'^(x-1). Cassini gives F'^2 == (-1)^n
  (mod F), so F'^4 == 1 and the exponent is read mod 4;
- the second is F (x-1)/2 (x/F^(j+m-1)) F'^(x-2). It is a multiple of F
  when F is odd. When F is even, x is even and F' is odd, so it is F/2
  when u_j is odd and a multiple of F when u_j is even.
So u_(j+1) = u_j F'^((x-1) mod 4) + (F/2 if F is even and u_j is odd),
mod F. A level reads x = G(j) only mod 4, and the route carries G(j) mod
24: since pi(24) = 24, G(j+1) mod 24 is F mod 24 at the index n G(j)
mod 24, read from a table of F_0 .. F_23 mod 24 that fib_mod fills on
first use. From u_1 = 1 mod F and G(1) = F^m, the pair (u_j, G(j) mod 24)
goes up the tower, and no number above F is ever formed. The route never
factors F and takes no Pisano period: it shares only fib_mod with the
chain route.

lift_unit charges the tower against LIFT_BUDGET before any arithmetic.
One check can fail, raising FibTowerError: (-1)^n F'^2 == 1 (mod F). What
checks the two terms against the full expansion lies outside this module:
the lemma checker lemmas.truncated_expansion_check (against fib(n r)),
the oracle suite (exact values) and the tests that compare this route
with the chain route. This module does not import lemmas, so that the
lemma is never checked against route 3's own arithmetic.
"""

from __future__ import annotations

from functools import cache
from math import isqrt

from .errors import FibTowerError, LiftBudgetExceeded
from .fibcore import fib
from .modfib import fib_mod

# Lift units one tower may take. Level i from the top of a tower
# (k, n, m), i = 1 .. k-1, is charged E * b^1.75 >> 20 with E = k + m + 1 - i
# and b = E * bits(F_n), the size of F_n^E. The charge was set when route
# 3 carried the tower mod F_n^E and a level summed E - 1 terms: a 2-core
# x86-64 host (CPython 3.11.7) did 9 700 to 34 000 units a second on
# towers charged 1 300 to 63 000 units. Route 3 now carries the unit mod
# F_n alone and forms no F_n^E, so the charge prices numbers the route
# never forms. It is kept unchanged as the admission policy: re-pricing
# it changes which towers are refused, and so their exit codes, and is a
# policy change of its own.
LIFT_BUDGET = 21_000


@cache
def _level_cost(top: int, fn_bits: int) -> int:
    """A level's charge; it depends on its top exponent and bits(F_n)
    alone, so each is priced once per process."""
    b = top * fn_bits
    return max(1, top * b * isqrt(isqrt(b**3)) >> 20)


def _charge(spec, fn_bits: int) -> int:
    """The tower's charge, level by level from the top; raises
    LiftBudgetExceeded at the first level that passes LIFT_BUDGET."""
    charge, top = 0, spec.k + spec.m
    for level in range(1, spec.k):
        charge += _level_cost(top + 1 - level, fn_bits)
        if charge > LIFT_BUDGET:
            raise LiftBudgetExceeded(
                f"lift budget {LIFT_BUDGET} exceeded at level {level} "
                f"of {spec.k - 1} lifting {spec} mod F_{spec.n}^{top}"
            )
    return charge


@cache
def _fib_mod_24() -> tuple[int, ...]:
    """F_i mod 24 for i = 0 .. 23; F_i mod 24 is entry i mod 24, since
    pi(24) = 24. Filled by fib_mod on the first call, not at import."""
    return tuple(fib_mod(i, 24) for i in range(24))


def lift_unit(spec) -> int:
    """(G(k, n, m) / F_n^(k+m-1)) mod F_n by route 3 (see the module
    docstring); 0 when F_n = 1.

    Raises LiftBudgetExceeded, before any arithmetic, when the tower's
    charge passes LIFT_BUDGET, and FibTowerError when Cassini's check fails.
    """
    n = spec.n
    fn = fib(n)
    if fn == 1:
        return 0
    _charge(spec, fn.bit_length())
    fn1, sign = fib(n - 1), (-1) ** n
    if (sign * fn1**2 - 1) % fn:
        raise FibTowerError(f"(-1)^{n} F_{n - 1}^2 is not 1 mod F_{n}")
    # F'^0 .. F'^3 mod F, by Cassini's F'^2 == (-1)^n
    powers = [1, fn1, sign % fn, sign * fn1 % fn]
    half = 0 if fn % 2 else fn // 2
    mod_24 = _fib_mod_24()
    u, g = 1, pow(fn, spec.m, 24)
    for _ in range(spec.k - 1):
        u = (u * powers[(g - 1) % 4] + (u & 1) * half) % fn
        g = mod_24[n * g % 24]
    return u
