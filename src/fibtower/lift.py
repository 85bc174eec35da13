"""Route 3: the tower mod F_n^e by the paper's own expansion, F_n unfactored.

Write F = F_n and F' = F_{n-1}. The index-multiple expansion
    F_{nx} = sum_{i=0..x} C(x,i) F^i F'^(x-i) F_i
loses every term with i >= E modulo F^E, so F_{nx} mod F^E needs only
E - 1 terms. Each power of F' is taken as F'^(x-i) = (-1)^(nq) u^q F'^s,
with x - i = 2q + s and Cassini's unit u = (-1)^n F'^2 == 1 (mod F). As
u - 1 is a multiple of F,
    u^q == sum_{j<E-1} C(q,j) (u - 1)^j  (mod F^(E-1)),
which needs no pow with a big exponent (and holds for negative q too, u
being a unit). Write i! = a_i b_i, a_i holding the primes of F and b_i
coprime to F. C(z,i) mod F^j is (z(z-1)...(z-i+1) mod a_i F^j) / a_i
times b_i^(-1), so it depends on z only mod a_i F^j; and for a prime
p | F, v_p(i!) <= i - 1 <= (i - 1) v_p(F), so a_i divides F^(i-1). Every
term therefore needs q only mod F^(E-2), and mod 2 for the sign when n is
odd, and x only mod
    w = lcm(2 lcm(2 if n is odd else 1, F^(E-2)), F^(E-1)),
in which no factorial appears. a_i and b_i are split off by a gcd loop
that never factors F.

A level's modulus is S * F^e with S small. The part S_F of S whose primes
divide F divides F^c for a least c and raises the exponent to E = e + c;
the coprime rest S_0 is handled by F_{n (x mod pi(S_0))} mod S_0, and the
two parts are joined by the CRT. The level below is then needed mod
lcm(w, pi(S_0)): w / F^(E-1) is 1, 2 or 4, and a prime of F that it or
pi(S_0) brings into the next S counts only beyond its power in F^(E-1).
So E stays put or falls by one per level down the tower, for every n.
pi(S_0) is the only Pisano period this route takes, always of a small
number, and factorize, pisano_period and fib_mod are called on S_0 alone:
the route shares no F_n-sized modulus, period or factorization with the
chain route.

The whole plan of (S, E) pairs is made before any level arithmetic, and
lift_residue charges it against LIFT_BUDGET. Each pi(S_0) is taken once
per process and kept by S_0.

Level j of the plan of (k, n, m) is G(j, n, m), the tower's j-th term,
mod S * F^e with e >= j + m and S small: the very residue the shorter
tower (j, n, m) lifted, mod F^(j+m) and less far down. So every lifted
level is kept in a memo, _lifted, which maps (n, m, j) to
(M, G(j, n, m) mod M) and holds the towers of one n alone: a level of
another n empties it before it is stored. A sweep visits its rows n by
n, so it loses nothing by that. A call still makes and charges
its whole plan before it reads the memo, so whether it is refused never
depends on what ran before; it then starts from the highest level whose
modulus divides a held M, and lifts only the levels above it. A level
lifted again is merged with the held one by the generalized CRT.

Five checks can fail, each raising FibTowerError: (-1)^n F'^2 == 1
(mod F), the exactness of every division of a falling factorial by a_i,
the invertibility of b_i mod F^(E-1), the coprimality of the CRT parts,
and the agreement of two lifts of one level mod the gcd of their moduli.
A level taken from the memo runs none of the checks inside its
arithmetic again.
"""

from __future__ import annotations

import threading
from math import gcd, isqrt, lcm, prod

from .errors import FibTowerError, LiftBudgetExceeded
from .fibcore import fib
from .modfib import factorize, fib_mod, pisano_period

# Lift units one tower may plan. A level of top exponent E is charged
# E * b^1.75 >> 20, b = E * bits(F_n) the size of F_n^E: the level makes
# about 6E long products and divisions of numbers up to about that size,
# or its square. A 2-core x86-64 host (CPython 3.11.7) did 9 700 to
# 34 000 units a second on towers charged 1 300 to 63 000 units, so an
# admitted tower takes at most about 2 s.
LIFT_BUDGET = 21_000

# S_0 -> pi(S_0). Every S_0 divides 24, so this holds at most 8 entries.
_small_periods: dict[int, int] = {}
# (n, m, j) -> (M, G(j, n, m) mod M) for one n alone: a level of another n
# empties it before it is stored. Under one lock.
_lifted: dict[tuple[int, int, int], tuple[int, int]] = {}
_lifted_lock = threading.Lock()


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


def _plan(spec, fn: int, e: int) -> tuple[list[tuple[int, int, int, int, int]], int, int]:
    """Levels k down to 2 as (S, e, S_0, pi(S_0), E), and the modulus
    S * F^e of level 1.

    Charged level by level against LIFT_BUDGET, so a refused plan stops
    as soon as it passes the budget.
    """
    levels = []
    s, charge, fn_bits, target = 1, 0, fn.bit_length(), e
    for _ in range(spec.k - 1):
        s0 = _coprime_part(s, fn)
        s_f, c, power = s // s0, 0, 1
        while power % s_f:
            power *= fn
            c += 1
        top = e + c
        charge += _level_cost(top, fn_bits)
        if charge > LIFT_BUDGET:
            raise LiftBudgetExceeded(
                f"lift budget {LIFT_BUDGET} exceeded at level {len(levels) + 1} "
                f"of {spec.k - 1} lifting {spec} mod F_{spec.n}^{target}"
            )
        t0 = _small_periods.get(s0)
        if t0 is None:
            t0 = _small_periods.setdefault(s0, pisano_period(factorize(s0)).value)
        levels.append((s, e, s0, t0, top))
        if top >= 2:
            # w is what _multiple_residue needs of x; the lcm, not a
            # product, keeps E from growing (see the module docstring)
            low = fn ** (top - 1)
            w = lcm(2 * lcm(2 if spec.n % 2 else 1, low // fn), low)
            s, e = lcm(w, t0) // low, top - 1
        else:
            s, e = t0, 0
    return levels, s, e


def _factorial_parts(top: int, fn: int) -> tuple[list[int], list[int]]:
    """For i < top, a_i and b_i^(-1) mod F^(top-1), where i! = a_i b_i, a_i
    holding the primes of F and b_i coprime to F.

    One modular inverse, of b_(top-1); each b_(i-1)^(-1) is then b_i^(-1)
    times b_i / b_(i-1).
    """
    a, cop = [1], [1]
    for i in range(1, top):
        cop.append(_coprime_part(i, fn))
        a.append(a[-1] * (i // cop[i]))
    mod = fn ** (top - 1)
    try:
        inverse = pow(prod(cop), -1, mod)
    except ValueError:
        raise FibTowerError(
            f"the part of {top - 1}! coprime to F_n shares a factor with it"
        ) from None
    inverses = [0] * top
    for i in range(top - 1, -1, -1):
        inverses[i] = inverse
        inverse = inverse * cop[i] % mod
    return a, inverses


def _multiple_residue(
    x: int, e: int, fn: int, fn1: int, u1: int, odd: bool, parts: tuple[list[int], list[int]]
) -> int:
    """F_{n x} mod F^e, from any x' == x (mod lcm(2 lcm(2 if odd else 1,
    F^(e-2)), F^(e-1))).

    u1 is u - 1 = (-1)^n F'^2 - 1, a multiple of F; odd is whether n is odd;
    parts is _factorial_parts at a top of at least e.
    """
    if e < 2:
        return 0  # F_n divides F_{n x}
    pw = [1]
    for _ in range(e):
        pw.append(pw[-1] * fn)
    low = pw[e - 1]
    a, inverses = parts

    # falling factorials of x and q run mod F^(e-1); each C(z, i) is read
    # mod F^j from the falling factorial mod a_i F^j, which divides F^(e-1)
    def binomial(fall: int, i: int, j: int) -> int:
        part = fall % (a[i] * pw[j])
        if part % a[i]:
            raise FibTowerError(
                f"falling factorial not divisible by {a[i]}, the F_n-part of {i}!"
            )
        return part // a[i] * inverses[i]

    # x - i = 2q + s_i, with s_i = t + e - 1 - i between 0 and e - 1
    q, t = divmod(x - (e - 1), 2)
    uq, fall, step = 1, 1, 1
    for j in range(1, e - 1):
        fall = fall * (q - j + 1) % low
        step = step * u1 % low
        uq += binomial(fall, j, e - 1 - j) * step
    # F'^(2q) = (-1)^(n q) u^q
    uq = (-uq if odd and q % 2 else uq) % low
    # powers[s] = F'^(2q + s) mod F^(e-1), for s up to s_1 = t + e - 2
    powers = [uq]
    for _ in range(t + e - 2):
        powers.append(powers[-1] * fn1 % low)
    total, fall = 0, 1
    fj_prev, fj = 0, 1  # F_{i-1}, F_i
    for i in range(1, e):
        fall = fall * (x - i + 1) % low
        c = binomial(fall, i, e - i)
        total += c * powers[t + e - 1 - i] % pw[e - i] * pw[i] * fj
        fj_prev, fj = fj, fj_prev + fj
    return total % pw[e]


def _keep(spec, j: int, modulus: int, r: int) -> None:
    """Merge r = G(j, n, m) mod modulus into _lifted by the generalized CRT.

    Raises FibTowerError when r and the held residue disagree mod the gcd
    of their moduli.
    """
    key = (spec.n, spec.m, j)
    with _lifted_lock:
        if _lifted and next(iter(_lifted))[0] != spec.n:
            _lifted.clear()
        held = _lifted.get(key)
        if held is not None:
            big, r_big = held
            g = gcd(big, modulus)
            if (r - r_big) % g:
                raise FibTowerError(
                    f"two lifts of G({j}, {spec.n}, {spec.m}) disagree mod the gcd "
                    "of their moduli"
                )
            rest = modulus // g
            modulus = big * rest
            r = r_big + big * ((r - r_big) // g * pow(big // g, -1, rest) % rest)
        _lifted[key] = modulus, r


def lift_residue(spec, e: int) -> int:
    """Tower value of spec mod F_n^e, by route 3 (see the module docstring).

    Raises LiftBudgetExceeded, before any level arithmetic, when the plan's
    charge passes LIFT_BUDGET, and FibTowerError when a check fails. The
    whole plan is made and charged whatever _lifted holds; the lift then
    starts from the highest level that _lifted holds mod a multiple of the
    level's modulus, and merges each level it lifts into _lifted.
    """
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    k, n, m = spec.k, spec.n, spec.m
    fn = fib(n)
    if fn == 1 or e == 0:
        return 0
    levels, s, low = _plan(spec, fn, e)
    fn1 = fib(n - 1)
    u1 = (-1) ** n * fn1**2 - 1
    if u1 % fn:
        raise FibTowerError(f"(-1)^{n} F_{n - 1}^2 is not 1 mod F_{n}")
    # level i lifts G(k - i) mod moduli[i]; G(1) = F^m
    moduli = [s_level * fn**e_level for s_level, e_level, *_ in levels]
    start, x = len(levels), pow(fn, m, s * fn**low)
    with _lifted_lock:
        for i, modulus in enumerate(moduli):
            held = _lifted.get((n, m, k - i))
            if held is not None and held[0] % modulus == 0:
                start, x = i, held[1] % modulus
                break
    if start:
        parts = _factorial_parts(max(top for *_, top in levels[:start]), fn)
    for i in range(start - 1, -1, -1):
        _, _, s0, t0, top = levels[i]
        y = _multiple_residue(x, top, fn, fn1, u1, n % 2 == 1, parts)
        modulus = moduli[i] // s0
        try:
            inverse = pow(modulus, -1, s0)
        except ValueError:
            raise FibTowerError(
                f"the parts of a lift level of F_{n} share a factor"
            ) from None
        y0 = fib_mod(n * x % t0, s0)
        y %= modulus
        x = y + modulus * ((y0 - y) * inverse % s0)
        _keep(spec, k - i, moduli[i], x)
    return x
