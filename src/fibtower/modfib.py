"""Fibonacci arithmetic modulo arbitrary numbers and Pisano period machinery.

The period of the Fibonacci sequence mod M is the least t >= 1 with
F_t == 0 and F_{t+1} == 1 (mod M); the indices satisfying that pair
condition are exactly the multiples of the period, which is what makes
the divisor-descent searches below sound.

Every period check is one fib_pair_mod call: a Lucas ladder over
(L_k, L_{k+1}) with one square and one product per bit of the index. It
runs mod 5m so that F = (2 L_{k+1} - L_k) / 5 and its neighbour come out
by exact division for every m.

Certified periods live in one per-process cache (modulus value -> period)
under one lock. Every entry is proved the minimal period of its modulus,
and the cache holds only primes p, prime squares p^2 and chain moduli.
_prime_power_period writes the entries of p and p^2. A prime's period is
found there by divisor descent from a candidate: period(p) divides p - 1
or 2(p + 1) according to p mod 5. A prime of F_n gets a smaller candidate
from factorize_fib: F_{4n} == 0 and F_{4n+1} == 1 (mod F_n), so
period(F_n), and with it period(p), divides 4n (Carmichael 1913; Wall
1960), and it is descended from the 4d of the first F_d that p divides,
never from p - 1 or 2(p + 1). p^2's entry takes one ladder mod p^2 per
prime. Every other prime power's period comes from those two entries by
Wall's rule, applied in _wall alone, and is not cached. The chain walk
(_walk) that build_chain and tower_residue share writes the chain
moduli: a level's period is pisano_period's CRT lcm of its parts'
periods, recorded once the parts are pairwise coprime (checked on their
primes' values, not taken from is_prime), with no ladder on the full
modulus and no second check on a part. Each prime was tested once, where
it entered: in factorize or in a validated object. The cache entries and
pisano_period's results are built from those primes without testing them
again (FactoredNatural._trusted_map).

A chain is a plain tuple of moduli, bottom period first and target last,
each entry certified as the period of the next when the walk reached it;
nothing re-checks a chain afterwards, and no path takes a claimed period.

factorize trial-divides by the primes up to _TRIAL_LIMIT, then takes a
composite cofactor that is a perfect power by its exact root, and
splits any other by Brent rho. Trial division stops early when what is
left is a prime that is_prime proves, one past _TRIAL_LIMIT and below
_MR_PROVEN_LIMIT: no trial prime divides it, so the factors are those
of exhaustive trial division. So the prime F_47 costs one test, and
F_59 = 353 * 2710260697 stops after 353, where a full pass would take
every trial prime up to the square root or _TRIAL_LIMIT.
factorize_fib trial-divides F_d's primitive part only by the primes
== +-1 (mod d) (see _rank_primes): no other prime divides the part, so
the same primes are found and rho gets the same cofactor.

Route 1 is walked and evaluated here, in tower_residue. The residue does
not rest on the composite entries: each level is evaluated over its
prime-power parts, each with its period by Wall's rule, which is a period
of the part whether or not p is prime (see _period_cache), and the
evaluator checks that every part's period divides the modulus one level
down and that the parts are coprime (the CRT inverse exists). So the
residue does not rest on is_prime, which is probabilistic above ~3.3e24;
only the minimality of a prime power's entry, which the report's chain
prints, rests on p being prime.

tower.analyze certifies the report's chain here and stops where
factoring F_n does: when factorize_fib or build_chain raises
FactorBudgetExceeded, the report's chain is empty. analyze takes every
unit from route 3 (fibtower.lift) and never calls tower_residue, which
serves tower_parity_check (mod 8), verify and the tests. Route 3 never
factors F_n and calls nothing here but fib_mod, mod 24.
"""

from __future__ import annotations

import random
import threading
from collections.abc import Iterable
from dataclasses import dataclass
from decimal import Decimal
from itertools import compress
from math import gcd, isqrt, lcm, prod

from .errors import CapExceeded, FactorBudgetExceeded, FibTowerError
from .fibcore import fib

# rho's budget and the seed of its cycle parameters, set here alone:
# _factor_into and _brent_rho read both when they run. The seed is fixed so
# runs are reproducible, and recorded in sweep reports. The budget is
# counted in _product_cost units, as tower.ANALYZE_BUDGET is.
DEFAULT_FACTOR_BUDGET = 2_000_000
DEFAULT_FACTOR_SEED = 2_971_215_073

_TRIAL_LIMIT = 100_000
_small_primes: list[int] = []
_trial_sieve = bytearray()
_small_primes_lock = threading.Lock()


def _trial_primes() -> list[int]:
    global _small_primes, _trial_sieve
    if not _small_primes:
        with _small_primes_lock:
            if not _small_primes:
                sieve = bytearray([1]) * (_TRIAL_LIMIT + 1)
                sieve[0] = sieve[1] = 0
                for p in range(2, isqrt(_TRIAL_LIMIT) + 1):
                    if sieve[p]:
                        sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
                _trial_sieve = sieve
                _small_primes = list(compress(range(_TRIAL_LIMIT + 1), sieve))
    return _small_primes


def _rank_primes(d: int) -> Iterable[int]:
    """The trial primes that can divide F_d's primitive part, increasing.

    A prime p first divides F_z at its rank of apparition z, which divides
    p - (5/p) (Lucas 1878; Carmichael 1913), so for d > 2 those are the
    primes == +-1 (mod d), but for the 5 of F_5.
    """
    primes = _trial_primes()
    if d <= 2 or d == 5:
        return primes
    sieve = _trial_sieve
    return (
        q
        for base in range(d, _TRIAL_LIMIT + 2, d)
        for q in (base - 1, base + 1)
        if q <= _TRIAL_LIMIT and sieve[q]
    )


# ------------------------------ primality ------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXTRA_ROUNDS = 32
# Below this value the 12 bases above are a proven deterministic test.
_MR_PROVEN_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Miller-Rabin, deterministic below ~3.3e24, 32 fixed extra rounds above."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases: tuple[int, ...] = _MR_BASES
    if n >= _MR_PROVEN_LIMIT:
        rng = random.Random(f"mr:{Decimal(n)}")
        bases = bases + tuple(rng.randrange(2, n - 1) for _ in range(_MR_EXTRA_ROUNDS))
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------- factorization ----------------------------


def _digits(n: int) -> int:
    """Decimal digits of n >= 1; exempt from the int->str digit limit."""
    return Decimal(n).adjusted() + 1


def _product_cost(bits: int) -> int:
    """Budget units of one product mod a number of the given bit length:
    1 up to 512 bits, and growing with the square of the size above."""
    return max(1, bits * bits >> 18)


def _budget_exhausted(n: int) -> FactorBudgetExceeded:
    return FactorBudgetExceeded(
        f"rho budget {DEFAULT_FACTOR_BUDGET} exhausted on a {_digits(n)}-digit cofactor"
    )


def _brent_rho(n: int, used: int) -> tuple[int, int]:
    """One nontrivial factor of odd composite n via Brent's cycle method.

    used counts the budget units already spent by the same factorization.
    One iteration costs _product_cost(bits(n)), a product mod n. Returns
    (factor, used) with this call's units added; raises
    FactorBudgetExceeded once used passes DEFAULT_FACTOR_BUDGET. The cycle
    parameters come from DEFAULT_FACTOR_SEED, so the result is
    deterministic, and the same whatever used it starts from: used decides
    only whether it raises.
    """
    cost = _product_cost(n.bit_length())
    for attempt in range(64):
        rng = random.Random(f"rho:{DEFAULT_FACTOR_SEED}:{Decimal(n)}:{attempt}")
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            used += r * cost
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    # signed: q matches the product of |x - y| up to sign
                    # mod n, and gcd(q, n) is the same
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += m
            used += min(r, k) * cost
            r *= 2
            if used > DEFAULT_FACTOR_BUDGET:
                raise _budget_exhausted(n)
        if g == n:
            # backtrack one step at a time to split the batched gcd
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
                used += cost
                if used > DEFAULT_FACTOR_BUDGET:
                    raise _budget_exhausted(n)
        if g != n:
            return g, used
    raise FactorBudgetExceeded(
        f"rho failed after 64 restarts to split a {_digits(n)}-digit cofactor"
    )


@dataclass(frozen=True)
class FactoredNatural:
    """A positive integer together with its complete prime factorization.

    The public constructor validates the factors, each prime by is_prime;
    factorize builds through it. The private _trusted and _trusted_map skip
    that, and serve only factors whose every prime was tested where it
    entered: in _factor_into, or in a validated object or cache entry.
    Every period cache entry is built through _trusted_map: by
    _prime_power_period for p and p^2, and by pisano_period for a chain
    modulus that _walk records (see _period_cache). Both keep the invariants
    __post_init__ checks: primes strictly increasing, exponents positive,
    and their product the value.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.value < 1:
            raise ValueError("value must be positive")
        prod = 1
        prev = 1
        for p, e in self.factors:
            if p <= prev:
                raise ValueError("primes must be strictly increasing")
            if e < 1:
                raise ValueError("exponents must be positive")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            prod *= p**e
            prev = p
        if prod != self.value:
            raise ValueError("factors do not multiply to value")

    @classmethod
    def _trusted(
        cls, value: int, factors: tuple[tuple[int, int], ...]
    ) -> "FactoredNatural":
        """The object of a value and its factors, built without validation;
        every prime must be validated already."""
        self = object.__new__(cls)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "factors", factors)
        return self

    @classmethod
    def _trusted_map(cls, factors: dict[int, int]) -> "FactoredNatural":
        """A prime -> exponent map's object, built as _trusted builds it."""
        return cls._trusted(*_value_and_items(factors))

    def factor_map(self) -> dict[int, int]:
        return dict(self.factors)

    def power(self, e: int) -> "FactoredNatural":
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        # the primes keep their order; power(0) is 1, with no factors
        factors = tuple((p, f * e) for p, f in self.factors) if e else ()
        return FactoredNatural._trusted(self.value**e, factors)


def _value_and_items(
    factors: dict[int, int],
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The product of a prime -> exponent map and its items, primes
    increasing and zero exponents dropped."""
    items = tuple(sorted((p, e) for p, e in factors.items() if e))
    value = 1
    for p, e in items:
        value *= p**e
    return value, items


def factorize(x: int) -> FactoredNatural:
    """Complete factorization: trial division, then an exact root of a
    perfect power and Brent rho on what remains.

    Deterministic: rho's parameters come from DEFAULT_FACTOR_SEED.
    DEFAULT_FACTOR_BUDGET caps the rho work spent on all cofactors
    together, in iterations weighted by cofactor size (see _brent_rho),
    plus the primality tests of cofactors above 512 bits (see
    _primality_cost); FactorBudgetExceeded names it and the cofactor that
    exhausted it, which signals that the requested parameters are beyond
    desk scale.
    """
    if x < 1:
        raise ValueError("x must be positive")
    found: dict[int, int] = {}
    _factor_into(found, x, _trial_primes())
    return FactoredNatural(*_value_and_items(found))


def _primality_cost(v: int) -> int:
    """Budget units of is_prime(v): none up to 512 bits; above, each of its
    rounds, a pow mod v, at one _product_cost per exponent bit."""
    bits = v.bit_length()
    if bits <= 512:
        return 0
    return bits * _product_cost(bits) * (len(_MR_BASES) + _MR_EXTRA_ROUNDS)


def _perfect_root(v: int) -> tuple[int, int]:
    """(r, j) with r^j = v and j > 1 prime, or (v, 1) when v is no perfect
    power; v > 1 must have no prime factor up to _TRIAL_LIMIT.

    So r > _TRIAL_LIMIT, and j is tried only while _TRIAL_LIMIT^j <= v.
    _factor_into's early stop leaves only a prime, so every cofactor that
    reaches here has been trial-divided to the end.
    Exact integer roots: isqrt for j = 2, else Newton's method on ints
    from a power of two above the root.
    """
    for j in _trial_primes():
        if _TRIAL_LIMIT**j > v:
            break
        if j == 2:
            r = isqrt(v)
        else:
            r = 1 << -(-v.bit_length() // j)
            while True:
                s = ((j - 1) * r + v // r ** (j - 1)) // j
                if s >= r:
                    break
                r = s
        if r**j == v:
            return r, j
    return v, 1


def _proven_prime(x: int) -> bool:
    """Whether x is a prime past trial division that is_prime proves:
    _TRIAL_LIMIT < x < _MR_PROVEN_LIMIT, where its 12 bases are a proof."""
    return _TRIAL_LIMIT < x < _MR_PROVEN_LIMIT and is_prime(x)


def _factor_into(found: dict[int, int], x: int, trial: Iterable[int]) -> None:
    """Add the prime factorization of x >= 1 to found. Trial division by
    trial, increasing primes that must include every prime up to
    _TRIAL_LIMIT that can divide x; then is_prime, a perfect-power test
    and Brent rho on what remains, under DEFAULT_FACTOR_BUDGET as it
    stands when this runs. A primality test of a cofactor above 512 bits
    is charged (see _primality_cost), and refused before it runs when the
    charge would pass the budget.

    Trial division stops at a proven-prime cofactor (_proven_prime), tested
    before the first trial prime and after each one that divides. The
    result is exhaustive trial division's, in the same order: such a
    cofactor exceeds every trial prime, so none divides it, and trial
    division would leave it whole for is_prime, which proves it there too.
    Unless what is left becomes such a prime, trial division runs to the
    end as before, so rho, every budget charge and every refusal stay as
    they were."""
    if _proven_prime(x):
        found[x] = found.get(x, 0) + 1
        return
    for p in trial:
        if p * p > x:
            break
        if x % p == 0:
            while x % p == 0:
                found[p] = found.get(p, 0) + 1
                x //= p
            if _proven_prime(x):
                found[x] = found.get(x, 0) + 1
                return
    used = 0
    # (cofactor, multiplicity)
    stack = [(x, 1)] if x > 1 else []
    while stack:
        v, count = stack.pop()
        used += _primality_cost(v)
        if used > DEFAULT_FACTOR_BUDGET:
            raise FactorBudgetExceeded(
                f"rho budget {DEFAULT_FACTOR_BUDGET} cannot pay for a primality test "
                f"on a {_digits(v)}-digit cofactor"
            )
        if is_prime(v):
            found[v] = found.get(v, 0) + count
            continue
        r, j = _perfect_root(v)
        if j > 1:
            stack.append((r, count * j))
            continue
        d, used = _brent_rho(v, used)
        stack.append((d, count))
        stack.append((v // d, count))


# ------------------------- modular Fibonacci -------------------------


def fib_pair_mod(i: int, m: int) -> tuple[int, int]:
    """(F_i mod m, F_{i+1} mod m) by a Lucas ladder mod 5m.

    The ladder climbs the bits of i holding (L_k, L_{k+1}), one square and
    one product per bit (Lucas 1878):
        bit 0: k -> 2k,     (L_k^2 - 2(-1)^k,      L_k L_{k+1} - (-1)^k)
        bit 1: k -> 2k + 1, (L_k L_{k+1} - (-1)^k, L_{k+1}^2 + 2(-1)^k)
    and ends with 5 F_i = 2 L_{i+1} - L_i and 5 F_{i+1} = 2 L_i + L_{i+1}.
    It runs mod 5m, where those right-hand sides reduce to 5 (F_i mod m)
    and 5 (F_{i+1} mod m), so both divisions by 5 are exact for every m,
    even ones and multiples of 5 included.
    """
    if m < 1:
        raise ValueError("modulus must be positive")
    if i < 0:
        raise ValueError("index must be nonnegative")
    if m == 1:
        return 0, 0
    m5 = 5 * m
    x, y, s = 2, 1, 1  # L_0, L_1, (-1)^0
    for bit in bin(i)[2:]:
        if bit == "1":
            x, y, s = (x * y - s) % m5, (y * y + 2 * s) % m5, -1
        else:
            x, y, s = (x * x - 2 * s) % m5, (x * y - s) % m5, 1
    return (2 * y - x) % m5 // 5, (2 * x + y) % m5 // 5


def fib_mod(i: int, m: int) -> int:
    """F_i mod m; total in i >= 0 and m >= 1 (fib_mod(i, 1) == 0)."""
    return fib_pair_mod(i, m)[0]


def _is_period(t: int, m: int) -> bool:
    return fib_pair_mod(t, m) == (0, 1 % m)


# --------------------------- Pisano periods ---------------------------

# modulus -> its certified minimal period: the entries of p and p^2, by
# _prime_power_period, and those of chain moduli, by _walk. Every write is
# under the lock; reads are plain dict gets. Any other prime power's period
# is taken from the entries of p and p^2 by Wall's rule (_wall), which
# gives a period for any integer p: with A the Fibonacci matrix,
# A^T = I + p^s B (s >= 1) gives
# A^(pT) = I + p^(s+1) B + sum_{i>=2} C(p,i) p^(si) B^i == I (mod p^(s+1)).
# Entries are built by FactoredNatural._trusted_map: their primes are those
# of a factorize result, of another entry, or p itself, each tested where
# it entered, so building an entry tests no prime again.
_period_cache: dict[int, FactoredNatural] = {}
_period_cache_lock = threading.Lock()


def _prime_power_period(
    p: int, e: int = 1, candidate: dict[int, int] | None = None
) -> FactoredNatural:
    """Minimal period mod p (e = 1) or p^2 (e = 2), factored and cached.

    p must be a prime tested where it entered: in _factor_into, or in a
    validated object. For e = 1 the period is found by descent from
    candidate, a factored multiple of it; the default is p - 1 when
    p == +-1 (mod 5), 2(p + 1) when p == +-2, and 20 for p = 5. Valid
    indices are exactly the multiples of the true period, so stripping
    prime factors while the property survives converges to it regardless
    of the order primes are tried. For e = 2 it is period(p) when that is
    a period mod p^2, else p * period(p) (Wall 1960): one check mod p^2.
    """
    m = p**e
    hit = _period_cache.get(m)
    if hit is not None:
        return hit
    if e == 1:
        if candidate is None:
            bound = 20 if p == 5 else p - 1 if p % 5 in (1, 4) else 2 * (p + 1)
            candidate = factorize(bound).factor_map()
        cur = 1
        for q, f in candidate.items():
            cur *= q**f
        if not _is_period(cur, p):
            raise FibTowerError(f"period candidate {cur} invalid for modulus {p}")
        fac = dict(candidate)
        for q in sorted(fac):
            while fac[q] and _is_period(cur // q, p):
                cur //= q
                fac[q] -= 1
    else:
        base = _period_cache.get(p) or _prime_power_period(p)
        fac = base.factor_map()
        if not _is_period(base.value, m):
            fac[p] = fac.get(p, 0) + 1
    # fac's primes are p and those of a factorize result or of p's entry
    result = FactoredNatural._trusted_map(fac)
    with _period_cache_lock:
        return _period_cache.setdefault(m, result)


def _wall(p: int, e: int) -> tuple[FactoredNatural, int]:
    """(entry, j) with period(p^e) = entry.value * p^j for the prime p,
    where p divides entry whenever j > 0: the one place Wall's rule is
    applied.

    With t the largest i <= e for which period(p) is a period mod p^i,
    period(p^e) = p^(e-t) period(p) (Wall 1960). entry is p's for e = 1.
    For e >= 2, t depends on p alone and is read from p^2's entry: t = 1
    unless it equals p's, and with t = 1 entry is p^2's and j = e - 2.
    Only when t >= 2, which no known prime gives (a Wall-Sun-Sun prime
    would), are p^3, p^4, ... checked, up to the first that fails, and
    entry is period(p^e) itself, with j = 0. Entries missing for p or p^2
    are made by _prime_power_period; none is written for p^e.
    """
    cache = _period_cache
    entry = cache.get(p) or _prime_power_period(p)
    if e == 1:
        return entry, 0
    square = cache.get(p * p) or _prime_power_period(p, 2)
    if square.value != entry.value:
        return square, e - 2
    t = 2
    while t < e and _is_period(entry.value, p ** (t + 1)):
        t += 1
    fac = entry.factor_map()
    fac[p] = fac.get(p, 0) + e - t
    return FactoredNatural._trusted_map(fac), 0


def pisano_period(m: FactoredNatural) -> FactoredNatural:
    """Pisano period of a factored modulus, returned factored.

    By the CRT the period mod m is the lcm of the periods of its
    prime-power parts, each merged from _wall's entry with p's exponent
    raised by j; the result never leans on the open p^2 scaling
    conjecture. No entry is written here but those of p and p^2, by
    _prime_power_period on a miss.
    """
    merged: dict[int, int] = {}
    for p, e in m.factors:
        entry, j = _wall(p, e)
        for q, f in entry.factors:
            if q == p:
                f += j
            if merged.get(q, 0) < f:
                merged[q] = f
    return FactoredNatural._trusted_map(merged)


def pisano_period_brute(m: int) -> int:
    """Period mod m by direct pair iteration; independent of the factored path.

    The iteration stops at 6m, the universal upper bound (attained at
    m = 2*5^k).
    """
    if m < 1:
        raise ValueError("modulus must be positive")
    cap = 6 * m
    target_b = 1 % m
    a, b = 1 % m, 1 % m  # (F_1, F_2)
    t = 1
    while t <= cap:
        if a == 0 and b == target_b:
            return t
        a, b = b, (a + b) % m
        t += 1
    raise CapExceeded(f"no period of modulus {m} within cap {cap}")


# ----------------------------- factoring F_n -----------------------------

# n -> the factorization of F_n, and d -> the primes of F_d's primitive part
# or the message of its refusal, under one lock; each depends on its key alone.
_fib_factor_cache: dict[int, FactoredNatural] = {}
_fib_parts: dict[int, tuple[int, ...] | str] = {}
_fib_factor_cache_lock = threading.Lock()


def _divisors(n: int) -> list[int]:
    low = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted(set(low + [n // d for d in low]))


def factorize_fib(n: int) -> FactoredNatural:
    """Complete factorization of F_n, built from its primitive parts.

    Every prime of F_n divides F_d first at exactly one d | n (Carmichael
    1913), so taking the divisors in increasing order and dividing out of
    F_d the primes already found leaves F_d's primitive part. Each part is
    factored once per process, under its own DEFAULT_FACTOR_BUDGET, and
    its primes, or its refusal naming F_d, cached by d; F_n is refused
    with the message of its first refused part. A part's primes get their
    periods certified (and cached) by descent from 4d, a period of F_d and
    so of the prime: the chain never factors p - 1 or 2(p + 1) for them.
    The exponents come by exact division; F_n's result is cached by n.
    """
    if n < 1:
        raise ValueError("index must be positive")
    with _fib_factor_cache_lock:
        hit = _fib_factor_cache.get(n)
    if hit is not None:
        return hit
    primes: list[int] = []
    for d in _divisors(n):
        with _fib_factor_cache_lock:
            outcome = _fib_parts.get(d)
        if outcome is None:
            part = fib(d)
            for p in primes:
                while part % p == 0:
                    part //= p
            found: dict[int, int] = {}
            try:
                _factor_into(found, part, _rank_primes(d))
            except FactorBudgetExceeded as exc:
                outcome = f"{exc} of F_{d}"
            else:
                outcome = tuple(found)
                fresh = [p for p in found if p not in _period_cache]
                if fresh:
                    # 4d's primes are proved in _factor_into; factorize's
                    # validating constructor would test them again
                    candidate: dict[int, int] = {}
                    _factor_into(candidate, 4 * d, _trial_primes())
                    for p in fresh:
                        _prime_power_period(p, 1, candidate)
            with _fib_factor_cache_lock:
                outcome = _fib_parts.setdefault(d, outcome)
        if isinstance(outcome, str):
            raise FactorBudgetExceeded(outcome)
        primes.extend(outcome)
    fn = fib(n)
    exponents: dict[int, int] = {}
    for p in primes:
        e = 0
        while fn % p == 0:
            fn //= p
            e += 1
        exponents[p] = e
    if fn != 1:
        raise FibTowerError(f"primitive parts of F_{n} leave a cofactor")
    # every prime passed is_prime or trial division in _factor_into, and
    # each divides F_n, so every exponent is positive
    result = FactoredNatural._trusted_map(exponents)
    with _fib_factor_cache_lock:
        return _fib_factor_cache.setdefault(n, result)


# ----------------------------- period chains -----------------------------


def _walk(k: int, target: FactoredNatural) -> list[FactoredNatural]:
    """target's chain, factored, target first: k + 1 moduli, each entry
    after the first the certified minimal period of the entry before it.

    Each level is a cache hit or, on a miss, the CRT lcm from
    pisano_period, recorded under the lock once the level's parts are
    pairwise coprime: checked on the values, not taken from is_prime, as
    the lcm of their primes being their product, since gcd(p^a, q^b) = 1
    exactly when gcd(p, q) = 1. By the CRT the lcm is then its period,
    with no period check here.
    """
    if k < 1:
        raise ValueError("chain depth must be at least 1")
    moduli = [target]
    for _ in range(k):
        modulus = moduli[-1]
        m = modulus.value
        period = _period_cache.get(m)
        if period is None:
            period = pisano_period(modulus)
            primes = [p for p, _ in modulus.factors]
            if lcm(*primes) != prod(primes):
                raise FibTowerError(
                    f"a part of a {m.bit_length()}-bit chain modulus shares a factor"
                )
            with _period_cache_lock:
                period = _period_cache.setdefault(m, period)
        moduli.append(period)
    return moduli


def build_chain(k: int, target: FactoredNatural) -> tuple[int, ...]:
    """Modulus sequence of a depth-k tower evaluation ending at target.

    Returns k + 1 moduli, bottom period first and target last; every entry
    but the last is the certified minimal period of the entry after it
    (see _walk). The period bounds come from factorize under
    DEFAULT_FACTOR_BUDGET, so this raises FactorBudgetExceeded when a
    bound resists that budget.
    """
    return tuple(modulus.value for modulus in reversed(_walk(k, target)))


def tower_residue(spec, modulus: int | FactoredNatural) -> int:
    """Tower value of spec mod modulus, by a depth-k Pisano chain (route 1).

    Reads only spec.k, spec.n and spec.m. An int modulus is factored under
    DEFAULT_FACTOR_BUDGET. F_i mod P depends on i only through i mod
    period(P), so the chain is evaluated bottom-up: the bottom level is
    F_n^m mod the chain's lowest modulus, and every level above is
    evaluated over its prime-power parts P, F mod P at the index below
    reduced mod P's period by Wall's rule (_wall; a period of P even were
    P's base composite, see _period_cache), the parts joined by the CRT
    (Garner's form). A level then costs sum(bits(period) * M(bits(part)))
    over its parts instead of one evaluation mod the whole modulus at an
    index as large as its period.

    Raises as build_chain does, and FibTowerError when a part's period does
    not divide the modulus one level down (the index would not be
    determined) or when two parts of a level share a factor (the CRT
    inverse does not exist).
    """
    k, n = spec.k, spec.n
    if not isinstance(modulus, FactoredNatural):
        modulus = factorize(modulus)
    moduli = _walk(k, modulus)
    below = moduli[k - 1].value
    r = pow(fib(n), spec.m, below)
    for level in reversed(moduli[: k - 1]):
        x, product = 0, 1
        for p, e in level.factors:
            entry, j = _wall(p, e)
            part, period = p**e, entry.value * p**j
            if below % period:
                raise FibTowerError(
                    f"period of a {part.bit_length()}-bit chain part does not "
                    f"divide the {below.bit_length()}-bit modulus below it"
                )
            try:
                inverse = pow(product, -1, part)
            except ValueError:
                raise FibTowerError(
                    f"a {part.bit_length()}-bit chain part shares a factor "
                    "with the other parts of its level"
                ) from None
            y = fib_mod(n * r % period, part)
            x += product * ((y - x) * inverse % part)
            product *= part
        r, below = x, product
    return r
