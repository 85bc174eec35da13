"""Executable checkers for the combinatorial facts behind the tower results.

These are used as property-test oracles: each function either certifies a
statement on concrete inputs with exact integer arithmetic or raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import (
    FibTowerError,
    NoExponentError,
    NoWitnessError,
    PreconditionViolated,
)
from .fibcore import fib
from .modfib import factorize


@dataclass(frozen=True)
class DivisorPowerWitness:
    """Certificate that scaling a by s^c absorbs the divisor j.

    exponent is the minimal c >= 0 with j | a * s^c; prime divides s and
    prime^exponent divides j.
    """

    a: int
    j: int
    s: int
    exponent: int
    prime: int


def divisor_power_witness(a: int, j: int, s: int) -> DivisorPowerWitness:
    """Minimal exponent c with j | a*s^c, plus a prime p | s with p^c | j.

    The minimal c, when it exists, is at most the largest prime exponent
    of j, which bounds the search. No valid c means j has a prime factor
    dividing neither a nor s (NoExponentError); a missing prime witness
    would contradict a proved statement (NoWitnessError, never expected).
    """
    if a < 1 or j < 1:
        raise ValueError("a and j must be positive")
    if s < 2:
        raise ValueError("s must be at least 2")
    bound = max((e for _, e in factorize(j).factors), default=0)
    c = None
    power = a
    for cand in range(bound + 1):
        if power % j == 0:
            c = cand
            break
        power *= s
    if c is None:
        raise NoExponentError(f"no exponent c <= {bound} with {j} | {a}*{s}^c")
    for p, _ in factorize(s).factors:
        if c == 0 or j % p**c == 0:
            return DivisorPowerWitness(a=a, j=j, s=s, exponent=c, prime=p)
    raise NoWitnessError(f"no prime of {s} whose {c}-th power divides {j}")


def binomial_power_divisibility(s: int, k: int, l: int, r: int) -> bool:
    """s^(k+l) | C(r,j)*s^j for every 1 <= j <= r with 2^(j-l+1) > j.

    Requires s^k | r. Also checks the specialized l = 2 form for all
    j >= 3. Everything is exact big-integer arithmetic.
    """
    if s < 1 or k < 1 or l < 1 or r < 1:
        raise ValueError("s, k, l, r must be positive")
    if r % s**k:
        raise PreconditionViolated(f"{s}^{k} does not divide {r}")
    main = s ** (k + l)
    special = s ** (k + 2)
    for j in range(1, r + 1):
        term = comb(r, j) * s**j
        e = j - l + 1
        if e >= 0 and (1 << e) > j and term % main:
            return False
        if j >= 3 and term % special:
            return False
    return True


@dataclass(frozen=True)
class TruncationPair:
    """Residues mod F_n of the two surviving expansion terms.

    linear is the j = 1 term r * F_n^(-k) * F_{n-1}^(r-1) and quadratic the
    j = 2 term C(r,2) * F_n^(1-k) * F_{n-1}^(r-2), where the negative powers
    denote exact integer division performed before reduction.
    """

    linear: int
    quadratic: int


def truncated_expansion_residues(n: int, r: int, k: int) -> TruncationPair:
    """The two leading terms of the expansion of F_{n*r} / F_n^(k+1) mod F_n.

    Requires F_n^k | r; all divisions are checked exact on integers before
    any reduction.

    These are the i = 1, 2 terms, divided by F_n^(k+1), from which route 3
    (lift.lift_unit) derives its step up the tower in place of the whole
    expansion. They stay separate on purpose: this is the paper's
    truncation lemma, checked on an exact r against fib(n*r) by the lemma
    suite's truncated_expansion, while route 3 applies it to r known only
    through r / F_n^k mod F_n and r mod 24, with each exponent of F_{n-1}
    read mod 4. This check is what shows that the two terms are the whole
    sum; route 3 checks no part of the lemma itself. Deriving one from the
    other would make the lemma check route 3's arithmetic against itself.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    if r < 1 or k < 1:
        raise ValueError("r and k must be positive")
    fn = fib(n)
    fn1 = fib(n - 1)
    lead = fn**k
    if r % lead:
        raise PreconditionViolated(f"F_{n}^{k} = {lead} does not divide r = {r}")
    linear = (r // lead) * pow(fn1, r - 1, fn) % fn
    if r < 2:
        return TruncationPair(linear=linear, quadratic=0)
    pairs = comb(r, 2)
    if pairs % fn ** (k - 1):
        raise FibTowerError(f"C({r},2) not divisible by F_{n}^{k - 1}")
    quadratic = (pairs // fn ** (k - 1)) * pow(fn1, r - 2, fn) % fn
    return TruncationPair(linear=linear, quadratic=quadratic)


def truncated_expansion_check(n: int, r: int, k: int) -> bool:
    """F_{n*r} / F_n^(k+1) == linear + quadratic (mod F_n), exactly.

    Runs at exact-oracle scale only: fib(n*r) is materialized.
    """
    pair = truncated_expansion_residues(n, r, k)
    fn = fib(n)
    value = fib(n * r)
    denom = fn ** (k + 1)
    if value % denom:
        raise FibTowerError(f"F_{n}^{k + 1} does not divide F_{n * r}")
    return (value // denom) % fn == (pair.linear + pair.quadratic) % fn
