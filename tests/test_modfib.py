"""Modular Fibonacci, factorization, Pisano periods, and chains."""

import random
import sys
import threading
from decimal import Decimal
from math import gcd, lcm, prod

import pytest

from fibtower import (
    FactorBudgetExceeded,
    FactoredNatural,
    FibTowerError,
    TowerSpec,
    build_chain,
    factorize,
    factorize_fib,
    fib,
    fib_mod,
    fib_pair_mod,
    is_prime,
    lift_unit,
    pisano_period,
    pisano_period_brute,
    tower_residue,
)
from fibtower import modfib

FIBS = [0, 1]
while len(FIBS) <= 10_000:
    FIBS.append(FIBS[-1] + FIBS[-2])


def pi_of(m: int) -> int:
    return pisano_period(factorize(m)).value


# ------------------------------ fib_mod ------------------------------


def test_fib_mod_examples():
    assert fib_mod(91, 4) == 1  # index is 1 mod 6
    for m in (1, 2, 7, 97, 10**9):
        assert fib_mod(0, m) == 0
    assert 4_807_526_976 == FIBS[48] == 64 * 75_117_609
    assert fib_mod(48, 64) == 0


def test_fib_mod_total_cases():
    assert fib_mod(123456, 1) == 0
    with pytest.raises(ValueError):
        fib_mod(5, 0)
    with pytest.raises(ValueError):
        fib_mod(-1, 5)


def test_fib_mod_agrees_with_exact_small_exhaustive():
    for m in range(1, 61):
        for i in range(0, 301):
            assert fib_mod(i, m) == FIBS[i] % m, (i, m)


def test_fib_mod_agrees_with_exact_sampled():
    rng = random.Random(0xF1B)
    for _ in range(2000):
        i = rng.randrange(0, 10_001)
        m = rng.randrange(1, 10_001)
        assert fib_mod(i, m) == FIBS[i] % m, (i, m)
        a, b = fib_pair_mod(i, m)
        assert (a, b) == (FIBS[i] % m, FIBS[i + 1] % m)


# ----------------------------- primality -----------------------------


def test_is_prime():
    assert [p for p in range(2, 50) if is_prime(p)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    ]
    assert not is_prime(1)
    assert not is_prime(561)  # Carmichael
    assert not is_prime(29341)
    assert is_prime(2_147_483_647)
    assert is_prime(2**61 - 1)
    assert not is_prime((2**31 - 1) * (2**61 - 1))


# ---------------------------- factorization ----------------------------


def test_factorize_examples():
    assert FIBS[30] == 832_040
    assert factorize(832_040).factors == ((2, 3), (5, 1), (11, 1), (31, 1), (61, 1))
    assert factorize(1).factors == ()
    assert factorize(144).factors == ((2, 4), (3, 2))


def test_factorize_roundtrip_random():
    rng = random.Random(99)
    primes = [2, 3, 5, 7, 11, 13, 10007, 65537, 2_147_483_647]
    for _ in range(50):
        value = 1
        for _ in range(rng.randrange(1, 6)):
            value *= rng.choice(primes) ** rng.randrange(1, 4)
        fac = factorize(value)
        assert fac.value == value
        rebuilt = 1
        for p, e in fac.factors:
            rebuilt *= p**e
        assert rebuilt == value


def test_factorize_deterministic_and_seed_independent(monkeypatch):
    n = (2**61 - 1) * 2_147_483_647 * 97
    assert factorize(n) == factorize(n)
    monkeypatch.setattr(modfib, "DEFAULT_FACTOR_SEED", 1)
    one = factorize(n)
    monkeypatch.setattr(modfib, "DEFAULT_FACTOR_SEED", 2)
    assert factorize(n) == one


def test_factor_budget_exceeded(monkeypatch):
    p = 2**62 - 57  # prime
    q = 2**62 - 87  # prime
    assert is_prime(p) and is_prime(q)
    monkeypatch.setattr(modfib, "DEFAULT_FACTOR_BUDGET", 50)
    with pytest.raises(
        FactorBudgetExceeded, match="budget 50 exhausted on a 38-digit cofactor"
    ):
        factorize(p * q)


def test_every_factorization_reads_the_module_budget(cold_links, monkeypatch):
    # rho splits 100103 * 100109 in 547 units; with the budget at 50, the
    # direct call, a prime's period bound (20081202418 = 2 * 100003 *
    # 100403) and a chain modulus are all refused
    monkeypatch.setattr(modfib, "DEFAULT_FACTOR_BUDGET", 50)
    with pytest.raises(FactorBudgetExceeded, match="^rho budget 50 exhausted"):
        factorize(100_103 * 100_109)
    with pytest.raises(FactorBudgetExceeded, match="^rho budget 50 exhausted"):
        pi_of(20_081_202_419)
    with pytest.raises(FactorBudgetExceeded, match="^rho budget 50 exhausted"):
        tower_residue(TowerSpec(2, 5, 1), 100_103 * 100_109)
    assert not cold_links


def test_brent_rho_factor_and_units_are_pinned(monkeypatch):
    # the product of |x - y| and the one of x - y differ only in sign mod n,
    # so every factor, unit count and refusal stays as these pins record
    monkeypatch.setattr(modfib, "DEFAULT_FACTOR_BUDGET", 10**9)
    n = 4_294_967_291 * 4_294_967_279
    assert modfib._brent_rho(n, 0) == (4_294_967_279, 98_558)
    assert modfib._brent_rho(1_000_003 * 1_000_033, 1000) == (1_000_003, 2022)
    # the batched gcd reaches n here, so the factor comes from the backtrack
    assert modfib._brent_rho(100_103 * 100_109, 0) == (100_103, 547)
    with monkeypatch.context() as patch:
        patch.setattr(modfib, "DEFAULT_FACTOR_SEED", 7)
        assert modfib._brent_rho(n, 0) == (4_294_967_279, 225_022)
    monkeypatch.setattr(modfib, "DEFAULT_FACTOR_BUDGET", 100)
    with pytest.raises(
        FactorBudgetExceeded, match=r"^rho budget 100 exhausted on a 20-digit cofactor$"
    ):
        modfib._brent_rho(n, 0)


def test_primality_and_rho_beyond_int_str_digit_limit(monkeypatch):
    # both derive their random parameters from n itself; str(n) refuses ints
    # longer than the interpreter's limit (4300 digits by default, 640 at least)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert not is_prime(41**430)  # 694 digits, no prime factor below 41
        # 100003 and 100019 are past trial division, and x is no perfect
        # power, which factorize would take by its exact root; the budget pays for the primality test of the 701-digit
        # cofactor and for rho's first step on it
        x = 100_003**139 * 100_019
        monkeypatch.setattr(
            modfib, "DEFAULT_FACTOR_BUDGET", modfib._primality_cost(x) + 10
        )
        with pytest.raises(
            FactorBudgetExceeded, match="exhausted on a 701-digit cofactor"
        ):
            factorize(x)
    finally:
        sys.set_int_max_str_digits(limit)


def test_factorize_refuses_a_huge_cofactor_before_testing_its_primality(monkeypatch):
    # 5000 ones: trial division leaves a 4928-digit cofactor, and testing
    # its primality took most of the 35 s this refusal used to cost
    tested = []

    def spy(v):
        tested.append(v.bit_length())
        return is_prime(v)

    monkeypatch.setattr(modfib, "is_prime", spy)
    with pytest.raises(
        FactorBudgetExceeded,
        match="rho budget 2000000 cannot pay for a primality test on a 4928-digit cofactor",
    ):
        factorize(int(Decimal("1" * 5000)))
    assert max(tested, default=0) <= 512
    # a cofactor of 512 bits or fewer is tested free of charge
    assert modfib._primality_cost(2**512 - 1) == 0
    assert modfib._primality_cost(2**512) == 513 * 1 * 44


def test_factorize_takes_a_perfect_power_by_its_exact_root(monkeypatch):
    # rho's budget once ran out on each prime power below; no rho runs now
    for p in (10**12 + 39, 2**61 - 1, 10**17 + 3):
        assert is_prime(p)
    with monkeypatch.context() as patch:
        patch.setattr(modfib, "_brent_rho", None)
        assert factorize((10**12 + 39) ** 2).factors == ((10**12 + 39, 2),)
        assert factorize((2**61 - 1) ** 3).factors == ((2**61 - 1, 3),)
        assert factorize(7 * (10**17 + 3) ** 2).factors == ((7, 1), (10**17 + 3, 2))
        # a sixth power is a square, then a cube
        assert factorize((10**12 + 39) ** 6).factors == ((10**12 + 39, 6),)
    # rho splits the root of a composite power
    assert factorize((100_003 * 100_019) ** 5).factors == ((100_003, 5), (100_019, 5))
    # no exact root of a square times a prime, or of a product of primes
    assert modfib._perfect_root((2**61 - 1) ** 2 * (10**12 + 39)) == (
        (2**61 - 1) ** 2 * (10**12 + 39),
        1,
    )
    assert modfib._perfect_root(100_003 * 100_019) == (100_003 * 100_019, 1)


def test_factorize_fib_equals_factorize():
    for n in [*range(1, 151), 200, 300, 400]:
        assert factorize_fib(n) == factorize(fib(n)), n


def test_primitive_parts_are_trial_divided_by_primes_1_or_minus_1_mod_d():
    # test_factorize_fib_equals_factorize shows no prime of a part is missed
    primes = modfib._trial_primes()
    for d in (3, 4, 6, 7, 89, 97, 1000, 99_999, 100_001, 200_000):
        assert list(modfib._rank_primes(d)) == [p for p in primes if p % d in (1, d - 1)], d
    for d in (1, 2, 5):
        assert modfib._rank_primes(d) == primes


def test_factorize_fib_stops_trial_division_at_a_proven_prime(cold_links, monkeypatch):
    # F_47 = 2971215073 is prime: one test and no trial prime. F_59 = 353 *
    # 2710260697 stops after 353, F_79 = 157 * 92180471494753 after 157.
    # The periods descend from 4d's factors without factorize, whose
    # validating constructor would test those primes again
    taken = {}
    rank_primes = modfib._rank_primes

    def spy(d):
        for q in rank_primes(d):
            taken.setdefault(d, []).append(q)
            yield q

    def refuse(x):
        raise AssertionError("factorize_fib must not call factorize")

    monkeypatch.setattr(modfib, "_rank_primes", spy)
    monkeypatch.setattr(modfib, "factorize", refuse)
    for n in (47, 59, 79):
        assert factorize_fib(n) == factorize(fib(n)), n
    assert 47 not in taken
    assert taken[59] == [353] and taken[79] == [157]
    primes = {2_971_215_073, 353, 2_710_260_697, 157, 92_180_471_494_753}
    assert set(cold_links) == primes
    assert_certified(cold_links)


def exhaustive_trial(x):
    """x's factor map by every trial prime up to sqrt(x) or _TRIAL_LIMIT,
    then is_prime and rho on the cofactor left, as _factor_into worked
    without its early stop."""
    found = {}
    for p in modfib._trial_primes():
        if p * p > x:
            break
        while x % p == 0:
            found[p] = found.get(p, 0) + 1
            x //= p
    if x > 1:
        modfib._factor_into(found, x, ())
    return found


def primitive_part(d):
    part = fib(d)
    for e in range(1, d):
        if d % e == 0:
            while (g := gcd(part, fib(e))) > 1:
                part //= g
    return part


def factor_items(factor, *args):
    """factor(*args)'s prime -> exponent items in order, or its refusal."""
    try:
        return list(factor(*args).items())
    except FactorBudgetExceeded as exc:
        return str(exc)


def factor_into(x, trial):
    found = {}
    modfib._factor_into(found, x, trial)
    return found


def test_factor_into_equals_exhaustive_trial_division():
    # the parts of F_d for d <= 200 reach 41 digits, past _MR_PROVEN_LIMIT;
    # rho refuses those of F_173 and F_191 on both paths alike
    assert primitive_part(199) > modfib._MR_PROVEN_LIMIT
    refused = []
    for d in range(1, 201):
        x = primitive_part(d)
        got = factor_items(factor_into, x, modfib._rank_primes(d))
        assert got == factor_items(exhaustive_trial, x), d
        if isinstance(got, str):
            refused.append(d)
    assert refused == [173, 191]
    ps = (2, 3, 353, 99_991)
    qs = (100_003, 100_019, 10**12 + 39, 2**61 - 1, 2**89 - 1)
    assert qs[-1] > modfib._MR_PROVEN_LIMIT and all(map(is_prime, ps + qs))
    xs = [*qs, *(2 * q for q in qs), *(p * q for p in ps for q in qs)]
    xs += [q * q for q in qs] + [100_003 * 100_019, 100_003 * (10**12 + 39)]
    for x in xs:
        got = factor_items(factor_into, x, modfib._trial_primes())
        assert got == factor_items(exhaustive_trial, x), x


def test_early_stop_tests_only_cofactors_between_the_two_limits(monkeypatch):
    # trial division takes the first three apart to 1 (each one's largest
    # prime is squared), and the early stop takes the last one's 100003, so
    # no cofactor is left for the test after trial division: every is_prime
    # call is the early stop's
    tested = []
    real_is_prime = modfib.is_prime

    def spy(v):
        tested.append(v)
        return real_is_prime(v)

    monkeypatch.setattr(modfib, "is_prime", spy)
    smooth = (2**100 * 3**5 * 99_991**3, 2**90 * 9, prod(range(2, 60)) * 59)
    for x in (*smooth, 7 * 99_991 * 100_003):
        found = factor_into(x, modfib._trial_primes())
        assert prod(p**e for p, e in found.items()) == x
    assert tested and all(
        modfib._TRIAL_LIMIT < v < modfib._MR_PROVEN_LIMIT for v in tested
    )
    # past _MR_PROVEN_LIMIT trial division runs to the end, and only then is
    # the prime tested, with its extra rounds
    tested.clear()
    found = factor_into(2 * (2**89 - 1), modfib._trial_primes())
    assert found == {2: 1, 2**89 - 1: 1} and tested == [2**89 - 1]


@pytest.fixture
def cold_fib_factors(monkeypatch):
    """Empty factorize_fib caches (factorizations, returned, and primitive
    parts) for one test; the process caches are restored."""
    factors = {}
    monkeypatch.setattr(modfib, "_fib_factor_cache", factors)
    monkeypatch.setattr(modfib, "_fib_parts", {})
    return factors


def refusal(n):
    with pytest.raises(FactorBudgetExceeded) as err:
        factorize_fib(n)
    return str(err.value)


def test_factorize_fib_refusal_ignores_a_warm_cache(cold_fib_factors):
    cold = refusal(500)
    assert cold == "rho budget 2000000 exhausted on a 33-digit cofactor of F_500"
    factorize_fib(100)
    factorize_fib(250)
    assert {100, 250} <= set(cold_fib_factors)
    assert 500 not in cold_fib_factors  # a refusal is recorded by part
    assert refusal(500) == cold


def test_factorize_fib_gives_each_part_its_own_budget(cold_fib_factors, monkeypatch):
    # F_600's parts each fit 130 000 rho units, though not all together
    monkeypatch.setattr(modfib, "DEFAULT_FACTOR_BUDGET", 130_000)
    fac = factorize_fib(600)
    assert fac.value == fib(600) and len(fac.factors) == 29
    assert FactoredNatural(fac.value, fac.factors) == fac  # every factor prime
    # F*_77 and F*_91 cost 894 and 1662 units, each within 2000, so F_1001
    # (7 * 11 * 13) is refused on its own part, whether or not they ran first
    modfib._fib_parts.clear()
    monkeypatch.setattr(modfib, "DEFAULT_FACTOR_BUDGET", 2000)
    cold = refusal(1001)
    assert cold == "rho budget 2000 exhausted on a 147-digit cofactor of F_1001"
    modfib._fib_parts.clear()
    factorize_fib(77)
    factorize_fib(91)
    assert refusal(1001) == cold


def test_factorize_fib_refusal_ignores_call_order(cold_fib_factors):
    alone = refusal(1000)
    cold_fib_factors.clear()
    modfib._fib_parts.clear()
    refusal(500)
    assert refusal(1000) == alone


def test_factorize_fib_refuses_a_multiple_of_a_refused_part_without_factoring(
    cold_fib_factors, monkeypatch
):
    cold = refusal(500)
    factorize_fib(200)

    def refuse(*args):
        raise AssertionError("a cached part must not be factored again")

    monkeypatch.setattr(modfib, "_factor_into", refuse)
    assert refusal(1000) == cold
    assert modfib._fib_parts[500] == cold


def test_primitive_cache_under_concurrent_factorizations(cold_fib_factors):
    ns = (60, 84, 90, 120, 168, 180, 240)
    expected = {n: factorize(fib(n)) for n in ns}
    results, errors = [], []

    def work():
        try:
            for n in ns:
                results.append((n, factorize_fib(n)))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert len(results) == 4 * len(ns)
    assert all(fac == expected[n] for n, fac in results)
    assert cold_fib_factors == expected


def test_warm_factorize_fib_neither_factors_nor_computes_f_n(
    cold_fib_factors, monkeypatch
):
    cold = factorize_fib(120)
    assert cold_fib_factors == {120: cold}

    def refuse(*args):
        raise AssertionError("a warm factorize_fib must not factor or compute F_n")

    monkeypatch.setattr(modfib, "_factor_into", refuse)
    monkeypatch.setattr(modfib, "fib", refuse)
    assert factorize_fib(120) is cold


def test_factored_natural_validation():
    with pytest.raises(ValueError):
        FactoredNatural(12, ((2, 1), (3, 1)))  # product is 6
    with pytest.raises(ValueError):
        FactoredNatural(8, ((8, 1),))  # not prime
    with pytest.raises(ValueError):
        FactoredNatural(36, ((3, 2), (2, 2)))  # unsorted
    with pytest.raises(ValueError):
        FactoredNatural(4, ((2, 2), (3, 0)))  # zero exponent
    f = factorize(75025)
    assert f.factors == ((5, 2), (3001, 1))
    assert f.power(3).value == 75025**3


def test_power_equals_the_validated_power():
    # power scales the exponents in place; power(0) is 1, with no factors
    for f in (factorize(75025), factorize(2**3 * 3 * 3001), factorize(1)):
        for e in (0, 1, 3):
            factors = tuple((p, k * e) for p, k in f.factors) if e else ()
            assert f.power(e) == FactoredNatural(f.value**e, factors), (f, e)
    assert factorize(75025).power(0) == FactoredNatural(1, ())


def test_powers_and_factorize_fib_results_test_no_prime_again(
    cold_fib_factors, monkeypatch
):
    # their primes were validated where they came from; is_prime runs only
    # inside factoring (the period of every prime of F_120 is warm here).
    # Warm periods and chains are merged from certified cache entries, and a
    # warm chain is evaluated, with no is_prime call at all
    fn = factorize_fib(120)
    target = fn.power(3)
    moduli = [factorize(m) for m in (1, 97, 720, 10**6, 2**16 * 3**5, 7**4 * 11**3)]
    periods = [pisano_period(m) for m in moduli]
    spec = TowerSpec(4, 120, 1)
    chain = build_chain(4, target)
    residue = tower_residue(spec, target)
    cold_fib_factors.clear()
    modfib._fib_parts.clear()
    factoring, outside, calls = [0], [], []
    real_is_prime, factor_into = modfib.is_prime, modfib._factor_into

    def spy_is_prime(p):
        calls.append(p)
        if not factoring[0]:
            outside.append(p)
        return real_is_prime(p)

    def spy_factor_into(*args):
        factoring[0] += 1
        try:
            return factor_into(*args)
        finally:
            factoring[0] -= 1

    with monkeypatch.context() as patched:
        patched.setattr(modfib, "is_prime", spy_is_prime)
        patched.setattr(modfib, "_factor_into", spy_factor_into)
        cold = factorize_fib(120)
        powers = {e: fn.power(e) for e in (0, 1, 5)}
        calls.clear()
        warm = [pisano_period(m) for m in moduli]
        warm_chain = build_chain(4, target), tower_residue(spec, target)
    assert outside == [] and calls == []
    assert warm == periods and warm_chain == (chain, residue)
    assert cold == fn == factorize(fib(120))
    for e, power in powers.items():
        factors = {p: f * e for p, f in fn.factors}
        expected = FactoredNatural(*modfib._value_and_items(factors))
        assert power == expected and hash(power) == hash(expected), e


# ------------------------------- Pisano -------------------------------


def test_pisano_examples():
    assert pi_of(4) == 6
    assert pi_of(1) == 1
    assert pi_of(16) == 24
    assert pi_of(10) == 60
    assert pi_of(2) == 3
    assert pi_of(5) == 20
    assert pi_of(25) == 100
    assert pi_of(27) == 72


def test_pisano_prime_bound_needs_rho():
    # p == 4 (mod 5), so the bound is p - 1 = 2 * 100003 * 100403, whose two
    # large primes lie past trial division
    p = 20_081_202_419
    assert pi_of(p) == p - 1
    assert fib_pair_mod(p - 1, p) == (0, 1)
    for q in (2, 100_003, 100_403):
        assert is_prime(q) and (p - 1) % q == 0
        assert fib_pair_mod((p - 1) // q, p) != (0, 1), q


def test_pisano_brute_examples():
    assert pisano_period_brute(2) == 3
    assert pisano_period_brute(10) == 60
    assert pisano_period_brute(1) == 1


def test_factored_equals_brute_small():
    # pisano_period builds its result without validation; the public
    # constructor refuses unsorted primes, a zero exponent or a wrong value
    for m in range(1, 3001):
        period = pisano_period(factorize(m))
        assert FactoredNatural(period.value, period.factors) == period, m
        assert period.value == pisano_period_brute(m), m


def test_period_property_defines_reduction():
    # F_i mod m depends on i only through i mod period(m)
    rng = random.Random(0x5EED)
    for m in list(range(1, 65)) + [rng.randrange(65, 1001) for _ in range(40)]:
        period = pi_of(m)
        seq = [f % m for f in FIBS[: min(10_001, 2 * period + 2)]]
        for _ in range(25):
            i = rng.randrange(0, 10_001)
            assert fib_mod(i, m) == seq[i % period], (i, m)
        assert fib_mod(period, m) == 0
        assert fib_mod(period + 1, m) == 1 % m


def test_pisano_lcm_on_coprime_parts():
    periods = {m: pi_of(m) for m in range(1, 301)}
    for a in range(1, 301):
        for b in range(a + 1, 301):
            if gcd(a, b) == 1:
                assert pi_of(a * b) == lcm(periods[a], periods[b]), (a, b)


# ------------------------------- chains -------------------------------


def test_chain_examples():
    assert build_chain(3, factorize(16)) == (24, 24, 24, 16)
    assert build_chain(1, factorize(97)) == (pi_of(97), 97)
    assert build_chain(2, factorize(9)) == (24, 24, 9)


def assert_certified(cache):
    """Every entry is the minimal period of its key, proved without the cache."""
    for m, period in cache.items():
        t = period.value
        if m <= 100_000:
            assert t == pisano_period_brute(m), m
        assert fib_pair_mod(t, m) == (0, 1 % m), m
        for q, _ in period.factors:
            assert fib_pair_mod(t // q, m) != (0, 1 % m), (m, q)


def test_factorize_fib_certifies_prime_periods_from_4n(cold_links):
    # so a chain over F_n never factors p - 1 or 2(p + 1) for its primes
    fac = factorize_fib(180)
    assert set(cold_links) == {p for p, _ in fac.factors}
    assert all(4 * 180 % cold_links[p].value == 0 for p in cold_links)
    assert_certified(cold_links)


def test_chain_cold_and_warm_agree(cold_links):
    target = factorize(fib(30)).power(5)
    cold = build_chain(4, target)
    assert len(cold) == 5 and cold[-1] == target.value
    assert set(cold[1:]) <= set(cold_links)
    assert_certified(cold_links)
    warm = build_chain(4, target)
    assert warm == cold
    for t, m in zip(warm, warm[1:]):
        assert t == pisano_period(factorize(m)).value


def test_tower_residue_walks_the_chain_itself(cold_links):
    # no build_chain first: the evaluator certifies what the cache lacks,
    # and the chain it walked cold is the one a warm walk returns
    spec = TowerSpec(4, 30, 1)
    target = factorize_fib(30).power(5)
    cold = tower_residue(spec, target)
    walked = dict(cold_links)
    moduli = build_chain(4, target)
    assert set(moduli[1:]) <= set(walked)
    assert_certified(walked)
    assert tower_residue(spec, target) == cold == fib(30) ** 4 * lift_unit(spec)
    assert cold_links == walked


def test_chain_refuses_parts_that_share_a_factor(cold_links, monkeypatch):
    # a composite taken for a prime: 20 and 60 are periods of the parts 5
    # and 10, but their lcm 60 is not a period of 50 (pi(50) = 300). The
    # second target is past int's 4300-digit str limit, so the refusal must
    # not print the modulus in decimal
    big = 10**4400
    with monkeypatch.context() as patched:
        patched.setattr(modfib, "is_prime", lambda p: p in (5, 10, big))
        targets = [
            FactoredNatural(50, ((5, 1), (10, 1))),
            FactoredNatural(5 * big, ((5, 1), (big, 1))),
        ]
    cold_links[10] = cold_links[big] = factorize(60)
    assert fib_pair_mod(60, 50) != (0, 1)
    for target in targets:
        with pytest.raises(FibTowerError, match="shares a factor"):
            build_chain(1, target)
        assert target.value not in cold_links


def test_chain_checks_a_composite_modulus_by_its_parts(cold_links, monkeypatch):
    # pi(8) = 12 and pi(3) = 8 certify pi(24) = 24 by the CRT, with no
    # ladder mod 24; pi(8) comes from pi(2) = 3 by Wall's check mod 4, with
    # no ladder mod 8
    moduli = set()
    is_period = modfib._is_period

    def spy_is_period(t, modulus):
        moduli.add(modulus)
        return is_period(t, modulus)

    monkeypatch.setattr(modfib, "_is_period", spy_is_period)
    assert build_chain(1, factorize(24)) == (24, 24)
    assert {2, 4, 3} <= moduli
    assert not moduli & {8, 24}


def test_chain_checks_no_cached_part_again(cold_links, monkeypatch):
    # 24 and 10 certify the periods of the parts 8, 3, 2 and 5; the cold
    # chain 15 -> 40 -> 60 has the parts 3, 5 and 8, 5, all cached, so it
    # checks nothing
    build_chain(1, factorize(24))
    build_chain(1, factorize(10))
    checked = []
    is_period = modfib._is_period

    def spy_is_period(t, modulus):
        checked.append(modulus)
        return is_period(t, modulus)

    monkeypatch.setattr(modfib, "_is_period", spy_is_period)
    assert build_chain(2, factorize(15)) == (60, 40, 15)
    assert checked == []
    assert_certified(cold_links)


def test_prime_power_chain_never_checks_its_modulus(cold_links, monkeypatch):
    # Wall's rule takes pi(7^3) from pi(7) and one check mod 7^2
    m = 7**3
    moduli = set()
    is_period = modfib._is_period

    def spy_is_period(t, modulus):
        moduli.add(modulus)
        return is_period(t, modulus)

    monkeypatch.setattr(modfib, "_is_period", spy_is_period)
    assert build_chain(1, factorize(m)) == (pisano_period_brute(m), m)
    assert m not in moduli
    assert cold_links[m].value == pisano_period_brute(m)


def test_chain_walks_check_periods_only_in_certify(cold_links, monkeypatch):
    # a composite chain modulus, and a tower evaluated over 216 = 8 * 27:
    # every period check runs inside _prime_power_period(p, e), either mod
    # p by descent (e = 1) or at index pi(p) mod p^2 (e = 2); none in _walk.
    # The parts 8 and 27 take their periods by Wall's rule from the entries
    # of 2, 4, 3 and 9, and get no entry of their own
    frames = []
    calls = []
    is_period, period = modfib._is_period, modfib._prime_power_period

    def spy_is_period(t, modulus):
        calls.append((frames[-1] if frames else None, t, modulus))
        return is_period(t, modulus)

    def spy_period(p, e=1, candidate=None):
        frames.append((p, e))
        try:
            return period(p, e, candidate)
        finally:
            frames.pop()

    monkeypatch.setattr(modfib, "_is_period", spy_is_period)
    monkeypatch.setattr(modfib, "_prime_power_period", spy_period)
    assert build_chain(2, factorize(15)) == (60, 40, 15)
    tower_residue(TowerSpec(2, 5, 1), 216)
    for frame, t, modulus in calls:
        assert frame is not None, modulus
        p, e = frame
        if e == 1:
            assert modulus == p and is_prime(p), modulus
        else:
            assert modulus in {p**j for j in range(2, e + 1)}, modulus
            assert t == cold_links[p].value, modulus
    assert any(e >= 2 for (_, e), _, _ in calls)
    assert 216 in cold_links
    assert not {8, 27} & set(cold_links)


def test_certify_period_refuses_an_invalid_candidate(cold_links):
    # 4 is not a period mod 3 (pi(3) = 8), and nothing is cached
    with pytest.raises(FibTowerError, match="period candidate 4 invalid for modulus 3"):
        modfib._prime_power_period(3, 1, {2: 2})
    assert 3 not in cold_links


def test_warm_prime_gives_its_powers_without_a_primality_test(
    cold_links, monkeypatch
):
    # pi(7) is cached, and 7 came from a validated factorization: Wall's
    # rule takes pi(7^3) from that entry without testing 7 again
    pi_of(7)
    calls = []
    real_is_prime = modfib.is_prime

    def spy_is_prime(p):
        calls.append(p)
        return real_is_prime(p)

    monkeypatch.setattr(modfib, "is_prime", spy_is_prime)
    target = FactoredNatural._trusted_map({7: 3})
    assert build_chain(1, target) == (7**2 * 16, 7**3)
    assert calls == []


def test_prime_power_descent_matches_brute(cold_links):
    # among them 2^e, the even prime, and 5^e: 5 divides its own period 20,
    # so Wall's rule raises an exponent pi(5) already has
    prime_powers = [
        p**e
        for p in range(2, 142)
        if is_prime(p)
        for e in range(2, 15)
        if p**e <= 20_000
    ]
    assert {4, 8192, 25, 15_625, 19_321} <= set(prime_powers)
    for m in prime_powers:
        assert pi_of(m) == pisano_period_brute(m), m
    assert_certified(cold_links)


def test_prime_power_period_checks_only_p_squared(cold_links, monkeypatch):
    # pi(7) = 16 and pi(7^3) = 7^2 * 16: pi(7) fails its one check mod 7^2,
    # so t = 1, and no other power of 7 is checked
    m = 7**3
    moduli = []
    is_period = modfib._is_period

    def spy_is_period(t, modulus):
        moduli.append(modulus)
        return is_period(t, modulus)

    monkeypatch.setattr(modfib, "_is_period", spy_is_period)
    assert pi_of(m) == 7**2 * 16 == pisano_period_brute(m)
    assert [q for q in moduli if not is_prime(q)] == [49]


def test_prime_power_periods_are_certified_minimal():
    # a certificate that uses no cache and no brute force: t is a period
    # mod p^e, and t / q is not, for every prime q of t
    for p in range(2, 3000):
        if not is_prime(p):
            continue
        for e in range(2, 5):
            m = p**e
            t = pisano_period(FactoredNatural(m, ((p, e),)))
            assert fib_pair_mod(t.value, m) == (0, 1), m
            for q, _ in t.factors:
                assert fib_pair_mod(t.value // q, m) != (0, 1), (m, q)


def test_tall_prime_power_chain_checks_only_small_moduli(cold_links, monkeypatch):
    # pi(5^e) = 4 * 5^e and pi(4 * 5^e) = 12 * 5^e, from ladders mod 2, 4, 5
    # and 25 alone
    moduli = set()
    is_period = modfib._is_period

    def spy_is_period(t, modulus):
        moduli.add(modulus)
        return is_period(t, modulus)

    monkeypatch.setattr(modfib, "_is_period", spy_is_period)
    for e in (60, 100_002):
        target = FactoredNatural(5**e, ((5, e),))
        assert build_chain(2, target) == (12 * 5**e, 4 * 5**e, 5**e), e
        assert max(moduli) <= 25, e


def test_period_cache_under_concurrent_chains(cold_links):
    targets = [factorize(fib(n)).power(e) for n in (26, 27, 28) for e in (3, 4)]
    expected = {t.value: build_chain(4, t) for t in targets}
    cold_links.clear()
    results, errors = [], []

    def work():
        try:
            for t in targets:
                results.append((t.value, build_chain(4, t)))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert len(results) == 4 * len(targets)
    assert all(chain == expected[value] for value, chain in results)
    linked = {m: t for chain in expected.values() for t, m in zip(chain, chain[1:])}
    assert all(cold_links[m].value == t for m, t in linked.items())
    assert_certified(cold_links)


def test_chain_depth_validation():
    with pytest.raises(ValueError):
        build_chain(0, factorize(9))


def test_pisano_period_when_pi_p_holds_mod_p_squared(cold_links, monkeypatch):
    # no prime is known with pi(p^2) = pi(p); pretend 7 is one, so t = 2.
    # Once the entry of 49 shows t >= 2, Wall's rule checks 7^3, 7^4, ...,
    # whether 7^e is a chain modulus alone or a part of 2 * 7^e
    is_period = modfib._is_period
    monkeypatch.setattr(
        modfib, "_is_period", lambda t, m: (t, m) == (16, 49) or is_period(t, m)
    )
    exponents = (2, 3, 4)
    merged = [pisano_period(FactoredNatural(2 * 7**e, ((2, 1), (7, e)))) for e in exponents]
    assert [period.value for period in merged] == [3 * 16, 3 * 7 * 16, 3 * 7**2 * 16]
    cold_links.clear()
    alone = [pisano_period(FactoredNatural(7**e, ((7, e),))).value for e in exponents]
    assert alone == [16, 7 * 16, 7**2 * 16]
    cold_links.clear()
    chains = [build_chain(1, FactoredNatural(7**e, ((7, e),)))[0] for e in exponents]
    assert chains == alone


def test_composite_period_with_tall_parts_reads_p_and_p_squared(cold_links, monkeypatch):
    # once the entries of p and p^2 are cached, a composite's period is
    # merged from them by Wall's rule: no entry is written for 2^3, 3^3,
    # 7^5 or the modulus, and no ladder runs
    for p in (2, 3, 7):
        modfib._prime_power_period(p, 2)
    keys = set(cold_links)
    ladders = []
    monkeypatch.setattr(modfib, "fib_pair_mod", lambda *args: ladders.append(args))
    m = 2**3 * 3**3 * 7**5
    period = pisano_period(FactoredNatural(m, ((2, 3), (3, 3), (7, 5))))
    assert ladders == []
    assert set(cold_links) == keys
    monkeypatch.undo()
    assert period.value == pisano_period_brute(m) == 7**4 * 144
    assert period == factorize(period.value)


def test_wall_exponent_takes_one_ladder_per_prime(cold_links, monkeypatch):
    # t is a property of p alone (Wall 1960): chains over four powers of 7
    # read it from the entry of 49, made by one ladder, and run none mod
    # 7^j for j >= 3
    moduli = []
    ladder = modfib.fib_pair_mod

    def spy(i, m):
        moduli.append(m)
        return ladder(i, m)

    monkeypatch.setattr(modfib, "fib_pair_mod", spy)
    for e in (3, 5, 9):
        assert build_chain(3, factorize(7**e))[-2] == 7 ** (e - 1) * 16, e
    assert build_chain(3, factorize(2 * 7**4))[-2] == 7**3 * 48
    assert [m for m in moduli if m % 49 == 0] == [49]
    assert_certified(cold_links)
