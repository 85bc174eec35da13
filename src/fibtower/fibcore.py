"""Exact Fibonacci arithmetic and classical identity checkers.

Everything here works on plain Python integers and serves as ground truth
for the modular machinery. Convention: F_0 = 0, F_1 = F_2 = 1 (the zero
term is the backward extension forced by the recurrence; residue formulas
need F_{n-3} down to n = 3).

Exact F_i comes from one ladder over the pair (F_k, L_k), L the Lucas
numbers, by the identities (Lucas 1878)
    F_2k = F_k L_k,             L_2k = L_k^2 - 2(-1)^k,
    F_2k+1 = (F_2k + L_2k) / 2,  L_2k+1 = (5 F_2k + L_2k) / 2,
so a bit of the index costs one product and one square; an odd bit adds
only shifts and additions. fib(i) climbs to k = i >> 1 and ends with one
product: F_2k = F_k L_k, or F_2k+1 = L_k F_k+1 - (-1)^k with
F_k+1 = (F_k + L_k) / 2.

CPython multiplies big integers by Karatsuba. Past _TOOM_BITS the ladder's
products and squares, and the final product, go through _mul, a Toom-3
product (Toom 1963, Cook 1966) that cuts each operand in three and
recurses on five products of a third the size, and falls back to native *
below _TOOM_BITS. The ladder's loop calls it only once k >> 1 reaches
_TOOM_INDEX, so small indices pay no call per bit.

fib keeps F_i for i < _MEMO_INDEX once a ladder has computed it, so the
few reads of F_n, F_{n-1} and F_{n-3} that one tower takes cost one
ladder each per process; larger indices are computed on every call.
"""

from __future__ import annotations

from math import comb, gcd

from .errors import BudgetExceeded

# Exact evaluation is refused above this index by default; callers that
# need larger indices must go through the modular engine.
DEFAULT_MAX_FIB_INDEX = 50_000_000

# Products of operands of at least this many bits go through Toom-3. Tuned
# on the oracle's ladders to F_2000000 (2-core x86-64, CPython 3.11): 15 000
# to 20 000 bits ran fastest, 10 000 and 40 000 about 2 % slower.
_TOOM_BITS = 20_000
# A ladder whose last doubling starts from an index of at least this much
# goes through _mul: L_k has about 0.694 k bits (log2 of the golden ratio),
# so below it F_k and L_k have fewer than _TOOM_BITS bits.
_TOOM_INDEX = _TOOM_BITS * 10_000 // 6_943


def _points(x: int, k: int):
    """x >= 0 split into k-bit limbs x0 + x1 t + x2 t^2, evaluated at
    t = 0, inf, 1, -1, -2 in that order, one value at a time."""
    mask = (1 << k) - 1
    x0, x1, x2 = x & mask, (x >> k) & mask, x >> (2 * k)
    yield x0
    yield x2
    p = x0 + x2
    yield p + x1
    p -= x1
    yield p
    yield ((p + x2) << 1) - x0


def _mul(a: int, b: int) -> int:
    """a * b, by Toom-3 once both operands have _TOOM_BITS bits or more.

    Each operand is cut into three limbs of k = ceil(max_bits / 3) bits;
    the five pointwise products at 0, inf, 1, -1, -2 recurse, and Bodrato's
    sequence (2007) interpolates the product's five coefficients with one
    exact division by 3 and two exact halvings. The points -1 and -2 give
    negative values, so the signs are stripped before the limbs are masked.
    When a is b, all five products are squares.
    """
    if a.bit_length() < _TOOM_BITS or b.bit_length() < _TOOM_BITS:
        return a * b
    negative = (a < 0) != (b < 0)
    square = a is b
    a = abs(a)
    b = a if square else abs(b)
    k = (max(a.bit_length(), b.bit_length()) + 2) // 3
    if square:
        r0, r4, r1, rm1, rm2 = (_mul(x, x) for x in _points(a, k))
    else:
        r0, r4, r1, rm1, rm2 = map(_mul, _points(a, k), _points(b, k))
    r3 = (rm2 - r1) // 3
    r1 = (r1 - rm1) >> 1
    r2 = rm1 - r0
    r3 = ((r2 - r3) >> 1) + (r4 << 1)
    r2 += r1 - r4
    r1 -= r3
    c = ((((((r4 << k) + r3) << k) + r2) << k) + r1) << k
    c += r0
    return -c if negative else c


def _lucas_pair(k: int) -> tuple[int, int]:
    """(F_k, L_k) by doubling over the Lucas pair, no budget check.

    Each bit takes one product and one square. Once k >> 1 reaches
    _TOOM_INDEX, the loop takes them through _mul, which keeps native *
    for the low bits; below that, the ladder pays one comparison per call
    and nothing per bit.
    """
    f, l, odd = 0, 2, False  # F_0, L_0, k odd
    if k >> 1 >= _TOOM_INDEX:
        for bit in bin(k)[2:]:
            f, l = _mul(f, l), _mul(l, l) + (2 if odd else -2)
            odd = bit == "1"
            if odd:
                f, l = (f + l) >> 1, (5 * f + l) >> 1
        return f, l
    for bit in bin(k)[2:]:
        f, l = f * l, l * l + (2 if odd else -2)
        odd = bit == "1"
        if odd:
            f, l = (f + l) >> 1, (5 * f + l) >> 1
    return f, l


def _fib(i: int) -> int:
    """F_i with one product, through _mul, above the ladder to k = i >> 1;
    no budget check."""
    k = i >> 1
    f, l = _lucas_pair(k)
    if not i & 1:
        return _mul(f, l)
    return _mul(l, (f + l) >> 1) - (-1 if k & 1 else 1)


def _fib_pair(i: int) -> tuple[int, int]:
    """(F_i, F_{i+1}) from the ladder to i, as F_{i+1} = (F_i + L_i) / 2."""
    f, l = _lucas_pair(i)
    return f, (f + l) >> 1


def _check_budget(i: int, max_index: int | None = None) -> None:
    limit = DEFAULT_MAX_FIB_INDEX if max_index is None else max_index
    if i > limit:
        raise BudgetExceeded(f"fib index {i} exceeds exact-index budget {limit}")


# fib keeps F_i for i below this: about 0.7 * 1024^2 / 2 bits in all, 75 KB
# of ints with their headers.
_MEMO_INDEX = 1024
_memo: dict[int, int] = {}


def fib(i: int, *, max_index: int | None = None) -> int:
    """Exact F_i. Raises BudgetExceeded when i is over the exact-index budget.

    Below _MEMO_INDEX the ladder's value is kept, and later calls read it.
    """
    if i < 0:
        raise ValueError("index must be nonnegative")
    _check_budget(i, max_index)
    if i >= _MEMO_INDEX:
        return _fib(i)
    value = _memo.get(i)
    if value is None:
        value = _memo.setdefault(i, _fib(i))
    return value


def fib_iterative(i: int) -> int:
    """F_i by the plain recurrence; independent cross-check for fib()."""
    if i < 0:
        raise ValueError("index must be nonnegative")
    _check_budget(i)
    a, b = 0, 1
    for _ in range(i):
        a, b = b, a + b
    return a


def fib_exceeds(i: int, bound: int) -> bool:
    """True iff F_i > bound, without materializing huge values.

    Uses F_i >= 2^((i-2)//2) (valid for i >= 2) to shortcut astronomically
    large indices; small indices are compared exactly.
    """
    if bound < 0:
        return True
    if i >= 2 and (i - 2) // 2 >= bound.bit_length():
        return True
    return _fib(i) > bound


def valuation(base: int, x: int) -> int:
    """Largest e with base^e dividing x (base-adic valuation)."""
    if base < 2:
        raise ValueError("base must be at least 2")
    if x < 1:
        raise ValueError("x must be positive")
    e = 0
    while x % base == 0:
        x //= base
        e += 1
    return e


# --------------------------- identity checkers ---------------------------


def gcd_identity_check(a: int, b: int) -> bool:
    """gcd(F_a, F_b) == F_{gcd(a,b)}."""
    if a < 1 or b < 1:
        raise ValueError("indices must be positive")
    return gcd(fib(a), fib(b)) == fib(gcd(a, b))


def fib_multiple_expansion(n: int, r: int) -> int:
    """The binomial sum that expands F_{n*r} in powers of F_n.

    Returns sum_{j=1}^{r} C(r,j) * F_n^j * F_{n-1}^{r-j} * F_j exactly;
    callers compare it against fib(n*r).
    """
    if n < 1 or r < 1:
        raise ValueError("n and r must be positive")
    _check_budget(n * r)
    fn = fib(n)
    fn1 = fib(n - 1)  # 0 when n == 1; the j = r term then carries 0^0 = 1
    total = 0
    fj_prev, fj = 0, 1  # (F_0, F_1)
    fn_pow = fn
    for j in range(1, r + 1):
        total += comb(r, j) * fn_pow * fn1 ** (r - j) * fj
        fn_pow *= fn
        fj_prev, fj = fj, fj_prev + fj
    return total


def cassini(n: int) -> int:
    """F_{n+1}*F_{n-1} - F_n^2, which must equal (-1)^n."""
    if n < 1:
        raise ValueError("n must be positive")
    _check_budget(n + 1)
    a, b = _fib_pair(n - 1)  # (F_{n-1}, F_n)
    return (a + b) * a - b * b


def square_congruence_check(n: int) -> bool:
    """F_{n-1}^2 == F_{n+1}^2 == (-1)^n, all modulo F_n."""
    if n < 1:
        raise ValueError("n must be positive")
    _check_budget(n + 1)
    a, b = _fib_pair(n - 1)
    fn = b
    if fn == 1:
        return True
    sign = 1 % fn if n % 2 == 0 else fn - 1
    return a * a % fn == sign and (a + b) * (a + b) % fn == sign


def addition_formula_check(a: int, b: int) -> bool:
    """F_{a+b} == F_{a+1}*F_b + F_a*F_{b-1}."""
    if a < 1 or b < 1:
        raise ValueError("indices must be positive")
    _check_budget(a + b)
    fa, fa1 = _fib_pair(a)
    fbm1, fb = _fib_pair(b - 1)
    return fib(a + b) == fa1 * fb + fa * fbm1


def index_divisibility_check(a: int, b: int) -> bool:
    """For a >= 3: F_a | F_b holds exactly when a | b."""
    if a < 3:
        raise ValueError("a must be at least 3")
    if b < 1:
        raise ValueError("b must be positive")
    return (fib(b) % fib(a) == 0) == (b % a == 0)
