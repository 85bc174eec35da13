"""Route 3: the tower mod F_n^e by the paper's own expansion, F_n unfactored.

Write F = F_n and F' = F_{n-1}. The index-multiple expansion
    F_{nx} = sum_{i=0..x} C(x,i) F^i F'^(x-i) F_i
is cut by the paper's truncation lemma: when F^(E-2) divides x, every
term with i >= 3 vanishes mod F^E, because v_p(C(x,i)) >= v_p(x) - v_p(i)
and v_p(i) <= i - 2 for every prime p. So a level is two terms,
    F_{nx} == x F F'^(x-1) + C(x,2) F^2 F'^(x-2)  (mod F^E),
each a multiple of F^(E-1), so each power of F' is needed mod F alone.
There Cassini gives F'^2 == (-1)^n, so F'^4 == 1 and F'^(x-i) == F'^((x-i)
mod 4). The level reads x only mod F^(E-1) (the first term), mod
2 F^(E-2) (the binomial) and mod 4 when n is odd (mod 2 when n is even,
where F'^2 == 1); all of that is read from x mod
    w = lcm(2 lcm(2 if n is odd else 1, F^(E-2)), F^(E-1)).
The level below level j of a tower (k, n, m) is G(j-1, n, m), a multiple
of F^(j+m-2), and every plan to F^e with e <= k + m has E <= j + m at
level j. So each level checks F^(E-2) | x before it sums the two terms,
and lift_residue refuses e > k + m, where the hypothesis fails.

A level's modulus is S * F^e with S small. The part S_F of S whose primes
divide F divides F^c for a least c and raises the exponent to E = e + c;
the coprime rest S_0 is handled by F_{n (x mod pi(S_0))} mod S_0, and the
two parts are joined by the CRT. The level below is then needed mod
lcm(w, pi(S_0)): w / F^(E-1) is 1, 2 or 4, and a prime of F that it or
pi(S_0) brings into the next S counts only beyond its power in F^(E-1).
So E stays put or falls by one per level down the tower, for every n.
S, S_0 and pi(S_0) all divide 24, so a plan's step reads F only through
its 2- and 3-parts, and its charge only through its bit length: making a
plan takes no power or lcm of F. pi(S_0) is the only Pisano period this
route takes, always of a small number, and factorize, pisano_period and
fib_mod are called on S_0 alone: the route shares no F_n-sized modulus,
period or factorization with the chain route.

Every plan starts at S*, the fixed point of its own step: the S that a
level at S* * F^e passes to the level below whenever e >= 3. From S = 1
the step reaches it within three steps, with no charge: S* is 1 when F
is even, 2 when F is odd and 3 | F, and 24 when F is prime to 6. S* is
prime to F, so E = e at every level of a plan to F^(k+m), and level j of
every tower (k, n, m) is planned and lifted at one modulus, S* * F^(j+m),
whatever its height k. lift_residue reduces the top level mod F^e before
it returns.

The whole plan of (S, E) pairs is made before any level arithmetic, and
lift_residue charges it against LIFT_BUDGET. Each pi(S_0) is taken once
per process and kept by S_0.

Three checks can fail, each raising FibTowerError: (-1)^n F'^2 == 1
(mod F), F^(E-2) | x at every level, and the coprimality of the CRT
parts. The top level is a multiple of F^(e-1) by construction, so the
divisibility that analyze reports holds whatever x was. What checks the
two terms against the full expansion lies outside this module: the
lemma checker lemmas.truncated_expansion_check (against fib(n r)), the
oracle suite (exact values) and the tests that compare this route with
the chain route. This module does not import lemmas, so that the lemma is
never checked against route 3's own arithmetic.
"""

from __future__ import annotations

from functools import cache
from math import gcd, isqrt, lcm

from .errors import FibTowerError, LiftBudgetExceeded
from .fibcore import fib
from .modfib import factorize, fib_mod, pisano_period

# Lift units one tower may plan. A level of top exponent E is charged
# E * b^1.75 >> 20, b = E * bits(F_n) the size of F_n^E. The charge was
# set when a level summed E - 1 terms, about 6E long products and
# divisions of numbers up to about that size or its square: a 2-core
# x86-64 host (CPython 3.11.7) did 9 700 to 34 000 units a second on
# towers charged 1 300 to 63 000 units, so an admitted tower took at most
# about 2 s. A level of two terms makes a few such products, so the
# charge now overstates its cost. It is kept unchanged as the admission
# policy: re-pricing it changes which towers are refused, and so their
# exit codes, and is a policy change of its own.
LIFT_BUDGET = 21_000

# S_0 -> pi(S_0). Every S_0 divides 24, so this holds at most 8 entries.
_small_periods: dict[int, int] = {}


def _coprime_part(s: int, f: int) -> int:
    """The largest divisor of s coprime to f, without factoring f."""
    g = gcd(s, f)
    while g > 1:
        s //= g
        g = gcd(s, f)
    return s


def _level_cost(top: int, fn_bits: int) -> int:
    b = top * fn_bits
    return max(1, top * b * isqrt(isqrt(b**3)) >> 20)


def _two_three_part(f: int) -> int:
    """The largest divisor of f whose primes are 2 and 3."""
    part = f & -f
    f //= part
    while f % 3 == 0:
        f //= 3
        part *= 3
    return part


def _step(s: int, e: int, f23: int, odd: int) -> tuple[int, int, int, int, int]:
    """A plan's level at S * F^e as (S_0, pi(S_0), E), and the (S, e) of the
    level below; f23 is the {2, 3}-part of F, and odd is 1 when n is odd.

    S and pi(S_0) divide 24, so the step reads F through f23 alone.
    """
    s0 = _coprime_part(s, f23)
    s_f, c, power = s // s0, 0, 1
    while power % s_f:
        power *= f23
        c += 1
    top = e + c
    t0 = _small_periods.get(s0)
    if t0 is None:
        t0 = _small_periods.setdefault(s0, pisano_period(factorize(s0)).value)
    if top < 2:
        return s0, t0, top, t0, 0
    # the level below is needed mod lcm(w, t0), and lcm(w, t0) / F^(top-1)
    # is lcm(r, t0 / gcd(t0, F^(top-1))) with r = w / F^(top-1) a power of
    # 2: v_2(w) = max(1 + max(odd, v_2(F^(top-2))), v_2(F^(top-1))). The
    # lcm, not a product, keeps E from growing (see the module docstring).
    v2 = (f23 & -f23).bit_length() - 1
    r = 1 << max(0, 1 + max(odd, v2 * (top - 2)) - v2 * (top - 1))
    return s0, t0, top, lcm(r, t0 // gcd(t0, pow(f23, top - 1, t0))), top - 1


@cache
def _fixed_point(f23: int, odd: int) -> int:
    """S*, the S that a level at S* * F^e passes to the level below for
    every e >= 3. Reached from S = 1 within three steps: 1, 2 or 24."""
    s = 1
    while True:
        below = _step(s, 3, f23, odd)[3]
        if below == s:
            return s
        s = below


def _plan(spec, fn: int, e: int) -> tuple[list[tuple[int, int, int, int, int]], int, int]:
    """Levels k down to 2 as (S, e, S_0, pi(S_0), E), and the modulus
    S * F^e of level 1.

    The plan starts at S*, so level j of every tower (k, n, m) with e =
    k + m sits at S* * F^(j+m) for every height k. It reads F only through
    its 2- and 3-parts, and its size for the charge: no power or lcm of F
    is taken. Charged level by level against LIFT_BUDGET, so a refused plan
    stops as soon as it passes the budget.
    """
    f23, odd = _two_three_part(fn), spec.n % 2
    levels = []
    s, charge, fn_bits, target = _fixed_point(f23, odd), 0, fn.bit_length(), e
    for _ in range(spec.k - 1):
        s0, t0, top, below, e_below = _step(s, e, f23, odd)
        charge += _level_cost(top, fn_bits)
        if charge > LIFT_BUDGET:
            raise LiftBudgetExceeded(
                f"lift budget {LIFT_BUDGET} exceeded at level {len(levels) + 1} "
                f"of {spec.k - 1} lifting {spec} mod F_{spec.n}^{target}"
            )
        levels.append((s, e, s0, t0, top))
        s, e = below, e_below
    return levels, s, e


def _multiple_residue(x: int, e: int, fn: int, fn1: int) -> int:
    """F_{n x} mod F^e by the two terms of the truncation lemma, from any
    x' == x (mod lcm(2 lcm(2 if n is odd else 1, F^(e-2)), F^(e-1))).

    fn1 is F' = F_{n-1}, with F'^4 == 1 (mod F). Raises FibTowerError when
    F^(e-2) does not divide x, the lemma's hypothesis.
    """
    if e < 2:
        return 0  # F_n divides F_{n x}
    low = fn ** (e - 2)
    if x % low:
        raise FibTowerError(f"F_n^{e - 2} does not divide the level below")
    # F'^(x-1) and F'^(x-2) mod F, their exponents read mod 4
    first = pow(fn1, (x - 1) % 4, fn)
    second = pow(fn1, (x - 2) % 4, fn)
    pairs = x * (x - 1) // 2 % low  # C(x, 2) mod F^(e-2)
    return (x * first + pairs * fn * second) * fn % (low * fn * fn)


def lift_residue(spec, e: int) -> int:
    """Tower value of spec mod F_n^e, 0 <= e <= k + m, by route 3 (see the
    module docstring).

    Raises ValueError, before any arithmetic, when e is outside that range:
    above k + m the truncation lemma's hypothesis fails. Raises
    LiftBudgetExceeded, before any level arithmetic, when the plan's charge
    passes LIFT_BUDGET, and FibTowerError when a check fails. The top level
    is lifted mod S* * F^e and reduced mod F^e.
    """
    k, n, m = spec.k, spec.n, spec.m
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    if e > k + m:
        raise ValueError(f"exponent {e} exceeds k + m = {k + m}, past the truncation lemma")
    fn = fib(n)
    if fn == 1 or e == 0:
        return 0
    levels, s, low = _plan(spec, fn, e)
    fn1 = fib(n - 1)
    if ((-1) ** n * fn1**2 - 1) % fn:
        raise FibTowerError(f"(-1)^{n} F_{n - 1}^2 is not 1 mod F_{n}")
    # G(1) = F^m; each level lifts the tower's next term
    x = pow(fn, m, s * fn**low)
    for s_level, e_level, s0, t0, top in reversed(levels):
        y = _multiple_residue(x, top, fn, fn1)
        modulus = s_level * fn**e_level // s0
        try:
            inverse = pow(modulus, -1, s0)
        except ValueError:
            raise FibTowerError(
                f"the parts of a lift level of F_{n} share a factor"
            ) from None
        y0 = fib_mod(n * x % t0, s0)
        y %= modulus
        x = y + modulus * ((y0 - y) * inverse % s0)
    return x % fn**e
