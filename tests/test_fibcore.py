"""Exact Fibonacci core: examples and identity properties."""

import math
import random
from math import gcd

import pytest

from fibtower import (
    BudgetExceeded,
    addition_formula_check,
    cassini,
    fib,
    fib_iterative,
    fib_multiple_expansion,
    gcd_identity_check,
    index_divisibility_check,
    square_congruence_check,
    valuation,
)
from fibtower import fibcore
from fibtower.fibcore import (
    _TOOM_BITS,
    _TOOM_INDEX,
    _fib_pair,
    _lucas_pair,
    _mul,
    fib_exceeds,
)
from fibtower.modfib import fib_pair_mod

# naive recurrence, kept in the test as the independent route
FIBS = [0, 1]
while len(FIBS) <= 10_000:
    FIBS.append(FIBS[-1] + FIBS[-2])


def test_fib_base_values():
    assert fib(0) == 0
    assert fib(1) == 1
    assert fib(2) == 1
    assert fib(12) == 144


def test_fib_matches_naive_iteration_everywhere():
    for i in range(0, 10_001):
        assert fib(i) == FIBS[i], i
    assert fib_iterative(4000) == FIBS[4000]


def test_fib_near_a_million_agrees_with_the_modular_ladder():
    # i = 10^6 + r takes both parities of i and of k = i >> 1, so the top
    # step's two branches and its sign (-1)^k all occur
    for r in range(8):
        i = 10**6 + r
        value = fib(i)
        for m in (2**61 - 1, 10**9 + 7, FIBS[300]):
            assert value % m == fib_pair_mod(i, m)[0], (i, m)


def test_fib_matches_recurrence_past_the_naive_table():
    for i in range(19_999, 20_003):
        assert fib(i) == fib_iterative(i), i


def test_fib_pair_satisfies_cassini_exactly():
    for r in range(4):
        i = 10**5 + r
        a, b = _fib_pair(i)  # (F_i, F_{i+1}), and F_{i-1} = F_{i+1} - F_i
        assert b * (b - a) - a * a == (-1) ** i, i


def _toom_operands():
    """Operands at, just off and well past the Toom threshold, with limbs
    of all ones, all zeros and random bits."""
    rng = random.Random(30)
    t = _TOOM_BITS
    for bits in (t - 1, t, t + 1, 3 * t, 10 * t):
        yield rng.getrandbits(bits) | 1 << (bits - 1)
        yield 2**bits - 1  # every limb all ones
        yield 2**bits + 1  # zero middle limb
        yield 2 ** (bits - 1)  # zero low limbs


def test_toom_product_matches_native_for_every_size_and_sign():
    operands = list(_toom_operands())
    for a in operands:
        for b in operands:
            for x, y in ((a, b), (a, -b), (-a, b), (-a, -b)):
                assert _mul(x, y) == x * y, (x.bit_length(), y.bit_length())


def test_toom_square_when_both_operands_are_one_object():
    for a in _toom_operands():
        for x in (a, -a):
            assert _mul(x, x) == x * x, x.bit_length()


def test_toom_product_with_a_small_or_zero_operand():
    big = random.Random(7).getrandbits(10 * _TOOM_BITS)
    for small in (0, 1, -1, 3, 2**64 + 1, -(2 ** (_TOOM_BITS - 1) - 1)):
        assert _mul(small, big) == small * big
        assert _mul(big, small) == big * small
        assert _mul(-big, small) == -big * small


def test_toom_product_of_seeded_random_operands():
    rng = random.Random(2007)
    for _ in range(40):
        a = rng.getrandbits(rng.randrange(_TOOM_BITS, 12 * _TOOM_BITS))
        b = rng.getrandbits(rng.randrange(_TOOM_BITS, 12 * _TOOM_BITS))
        a, b = rng.choice((a, -a)), rng.choice((b, -b))
        assert _mul(a, b) == a * b
        assert _mul(a, a) == a * a


def _lucas_pair_native(k):
    """(F_k, L_k) by the same doubling, every product native."""
    f, l, odd = 0, 2, False
    for bit in bin(k)[2:]:
        f, l = f * l, l * l + (2 if odd else -2)
        odd = bit == "1"
        if odd:
            f, l = (f + l) >> 1, (5 * f + l) >> 1
    return f, l


def test_ladder_reaches_toom_only_past_the_index_gate(monkeypatch):
    sizes = []

    def spy(a, b):
        sizes.append(min(a.bit_length(), b.bit_length()))
        return a * b

    monkeypatch.setattr(fibcore, "_mul", spy)
    assert _lucas_pair(2 * _TOOM_INDEX - 1) == _lucas_pair_native(2 * _TOOM_INDEX - 1)
    assert sizes == []  # its last step doubles _TOOM_INDEX - 1
    k = 2 * _TOOM_INDEX
    assert _lucas_pair(k) == _lucas_pair_native(k)
    assert len(sizes) == 2 * k.bit_length()  # a product and a square per bit
    assert max(sizes) >= _TOOM_BITS * 99 // 100  # the last step's operands
    sizes.clear()
    k = 4 * _TOOM_INDEX + 3
    assert _lucas_pair(k) == _lucas_pair_native(k)
    assert len(sizes) == 2 * k.bit_length()


@pytest.mark.parametrize("i", [200_001, 1_000_003, 1_989_806])
def test_fib_with_toom_matches_the_native_ladder(i, monkeypatch):
    deep = []

    def spy(a, b):
        if min(a.bit_length(), b.bit_length()) >= _TOOM_BITS:
            deep.append(a.bit_length())
        return _mul(a, b)

    monkeypatch.setattr(fibcore, "_mul", spy)
    value = fib(i)
    assert deep  # the products above really split
    monkeypatch.setattr(fibcore, "_mul", _mul)
    monkeypatch.setattr(fibcore, "_TOOM_BITS", math.inf)
    assert value == fib(i)


def test_fib_budget():
    with pytest.raises(BudgetExceeded):
        fib(50_000_001)
    with pytest.raises(BudgetExceeded):
        fib(101, max_index=100)
    assert fib(100, max_index=100) == FIBS[100]
    with pytest.raises(ValueError):
        fib(-1)


def test_fib_keeps_small_indices_and_reads_them_back(monkeypatch):
    # from an empty memo: F_i is kept for i < 1024 alone, later calls read
    # it with no ladder, and the budget still applies to a kept index
    memo = {}
    monkeypatch.setattr(fibcore, "_memo", memo)
    assert fibcore._MEMO_INDEX == 1024
    for i in range(1024):
        assert fib(i) == fib_iterative(i), i
    assert sorted(memo) == list(range(1024))

    def no_ladder(i):
        raise AssertionError(f"a ladder ran for F_{i}")

    with monkeypatch.context() as patched:
        patched.setattr(fibcore, "_fib", no_ladder)
        assert [fib(i) for i in range(1024)] == FIBS[:1024]
        with pytest.raises(BudgetExceeded):
            fib(500, max_index=499)
    for i in (1024, 1025, 4096):
        assert fib(i) == fib_iterative(i), i
    assert sorted(memo) == list(range(1024))


def test_fib_exceeds():
    assert fib_exceeds(30, 832_039)
    assert not fib_exceeds(30, 832_040)  # F_30 == 832040 exactly
    assert fib_exceeds(31, 1_346_268)
    assert not fib_exceeds(31, 1_346_269)  # F_31, an odd top step
    assert fib_exceeds(91, 10**6)
    assert fib_exceeds(10**6, 2**1000)  # shortcut path, no materialization
    assert not fib_exceeds(0, 0)


def test_gcd_identity_examples():
    assert gcd(fib(12), fib(18)) == 8 == fib(6)
    assert gcd_identity_check(12, 18)
    assert gcd_identity_check(1, 1)
    assert gcd(fib(5), fib(10)) == 5 == fib(5)
    assert gcd_identity_check(5, 10)


def test_gcd_identity_grid():
    assert all(gcd_identity_check(a, b) for a in range(1, 41) for b in range(1, 41))


def test_expansion_examples():
    assert fib_multiple_expansion(2, 3) == 8 == fib(6)
    for n in range(1, 21):
        assert fib_multiple_expansion(n, 1) == fib(n)
    assert fib_multiple_expansion(3, 4) == 144 == fib(12)


def test_expansion_matches_fib_grid():
    for n in range(1, 11):
        for r in range(1, 31):
            assert fib_multiple_expansion(n, r) == FIBS[n * r], (n, r)


def test_cassini_examples():
    assert cassini(5) == 8 * 3 - 25 == -1
    assert cassini(2) == 2 * 1 - 1 == 1
    assert cassini(1) == 1 * 0 - 1 == -1


def test_cassini_sign_alternates():
    for n in range(1, 51):
        assert cassini(n) == (-1) ** n


def test_square_congruence():
    for n in range(1, 61):
        assert square_congruence_check(n), n


def test_addition_formula_examples():
    assert fib(7) == 13 == fib(4) * fib(4) + fib(3) * fib(3)
    assert addition_formula_check(3, 4)
    assert addition_formula_check(1, 1)
    assert fib(20) == 6765 == fib(11) * fib(10) + fib(10) * fib(9)
    assert addition_formula_check(10, 10)


def test_addition_formula_grid():
    assert all(
        addition_formula_check(a, b) for a in range(1, 41) for b in range(1, 41)
    )


def test_divisibility_criterion_grid():
    for a in range(3, 31):
        fa = FIBS[a]
        for b in range(1, 201):
            assert (FIBS[b] % fa == 0) == (b % a == 0), (a, b)
            assert index_divisibility_check(a, b)


def test_period_six_mod_four():
    mod4 = [f % 4 for f in FIBS[:205]]
    for a in range(0, 201):
        for b in range(a % 6, 201, 6):
            assert mod4[a] == mod4[b], (a, b)
    # consequence: indices coprime to 6 give residue 1
    for n in range(1, 201):
        if gcd(n, 6) == 1:
            assert mod4[n] == 1, n


def test_hoggatt_scaling_divisibility():
    for n in range(2, 9):
        fn = FIBS[n]
        for s in range(1, 4):
            step = fn ** (s - 1)
            for r in range(1, 61):
                if r % step == 0:
                    assert FIBS[n * r] % fn**s == 0, (n, s, r)


def test_valuation_examples():
    assert valuation(2, 8) == 3
    assert valuation(3, 144) == 2
    assert valuation(5, 7) == 0


def test_valuation_errors():
    with pytest.raises(ValueError):
        valuation(1, 10)
    with pytest.raises(ValueError):
        valuation(2, 0)


def test_checker_preconditions():
    with pytest.raises(ValueError):
        gcd_identity_check(0, 3)
    with pytest.raises(ValueError):
        fib_multiple_expansion(0, 3)
    with pytest.raises(ValueError):
        cassini(0)
    with pytest.raises(ValueError):
        addition_formula_check(1, 0)
    with pytest.raises(ValueError):
        index_divisibility_check(2, 5)
    with pytest.raises(BudgetExceeded):
        fib_multiple_expansion(7_142_858, 7)
