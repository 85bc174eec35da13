"""Tower residues, case classification, and analysis reports."""

from itertools import product

import pytest

from fibtower import (
    CaseTag,
    FactoredNatural,
    FibTowerError,
    TowerSpec,
    analyze,
    branch_label,
    classify,
    factorize,
    fib,
    fib_pair_mod,
    predicted_residue,
    tower_parity_check,
    tower_residue,
)
from fibtower import modfib


def tower_exact(spec: TowerSpec) -> int:
    """Independent route: materialize the tower with exact integers."""
    g = fib(spec.n) ** spec.m
    for _ in range(spec.k - 1):
        g = fib(spec.n * g)
    return g


def test_tower_residue_examples():
    assert tower_exact(TowerSpec(2, 4, 1)) == 144
    assert tower_residue(TowerSpec(2, 4, 1), 27) == 144 % 27 == 9
    for n, m in product((3, 5, 8), (1, 2, 3)):
        assert tower_residue(TowerSpec(1, n, m), 1000) == fib(n) ** m % 1000
    assert tower_exact(TowerSpec(3, 3, 1)) == 46_368 == fib(24)
    assert tower_residue(TowerSpec(3, 3, 1), 16) == 0


def test_tower_residue_matches_exact_route():
    from fibtower import oracle_feasible

    for k, n, m in product((1, 2, 3), (1, 2, 3, 4, 5), (1, 2)):
        spec = TowerSpec(k, n, m)
        if not oracle_feasible(spec, 400_000):
            continue
        exact = tower_exact(spec)
        for modulus in (7, 8, 27, 97, 1000):
            assert tower_residue(spec, modulus) == exact % modulus, (spec, modulus)


def test_tower_residue_crt_consistency():
    pairs = ((8, 27), (5, 49), (9, 11), (97, 25))
    for k, n, m in product((2, 3, 4, 5), (3, 4, 6, 7, 12, 25), (1, 2)):
        spec = TowerSpec(k, n, m)
        for a, b in pairs:
            combined = tower_residue(spec, a * b)
            assert combined % a == tower_residue(spec, a), (spec, a, b)
            assert combined % b == tower_residue(spec, b), (spec, a, b)


def test_classify_partition():
    for k, n in product(range(2, 9), range(3, 40)):
        for m in (1, 2, 3):
            tag = classify(TowerSpec(k, n, m))
            assert tag is not CaseTag.OUT_OF_RANGE
            label = branch_label(TowerSpec(k, n, m))
            assert label is not None and label.startswith(tag.value)
    assert classify(TowerSpec(1, 10, 1)) is CaseTag.OUT_OF_RANGE
    assert classify(TowerSpec(3, 2, 1)) is CaseTag.OUT_OF_RANGE
    assert branch_label(TowerSpec(1, 10, 1)) is None


def test_predicted_residue_examples():
    assert predicted_residue(TowerSpec(3, 4, 1)) == (CaseTag.F_NMINUS1, 2)
    assert predicted_residue(TowerSpec(2, 7, 5)) == (CaseTag.UNIT_ONE, 1)
    assert predicted_residue(TowerSpec(3, 3, 1)) == (CaseTag.SIGNED_HALF_POW, 0)
    assert predicted_residue(TowerSpec(1, 7, 1)) == (CaseTag.OUT_OF_RANGE, None)


def test_predicted_residue_signed_negation():
    # odd n with 3 | n: the sign flips to modular negation
    tag, value = predicted_residue(TowerSpec(2, 9, 2))
    assert tag is CaseTag.SIGNED_HALF_POW
    fn, fn3 = fib(9), fib(6)
    assert value == fn - pow(fn3 // 2, 1, fn) == 34 - 4
    # even n keeps the plain power
    tag, value = predicted_residue(TowerSpec(2, 6, 2))
    assert tag is CaseTag.SIGNED_HALF_POW
    assert value == pow(fib(3) // 2, 1, fib(6)) == 1


def test_analyze_example_2_5_1():
    assert fib(25) == 75_025 == 25 * 3001
    rep = analyze(TowerSpec(2, 5, 1))
    assert rep.unit_residue == 3001 % 5 == 1
    assert rep.case is CaseTag.UNIT_ONE
    assert rep.match and rep.exact
    assert rep.expected_valuation == 2


def test_analyze_example_2_6_1():
    assert fib(48) // 64 == 75_117_609
    rep = analyze(TowerSpec(2, 6, 1))
    assert rep.unit_residue == 75_117_609 % 8 == 1
    assert rep.case is CaseTag.HALF_POW
    assert rep.predicted_residue == pow(fib(3) // 2, 1, 8) == 1
    assert rep.match


def test_analyze_example_3_3_1():
    # the n = 3 degenerate case: residue 0 is a legitimate match
    assert fib(24) == 46_368 and 46_368 // 8 == 5796
    rep = analyze(TowerSpec(3, 3, 1))
    assert rep.unit_residue == 5796 % 2 == 0
    assert not rep.exact
    assert rep.case is CaseTag.SIGNED_HALF_POW and rep.predicted_residue == 0
    assert rep.match


def test_analyze_trivial_bases():
    for n in (1, 2):
        rep = analyze(TowerSpec(4, n, 2))
        assert rep.trivial_base and rep.fn_value == 1
        assert rep.match
        assert rep.unit_residue == 0 and not rep.exact
        assert rep.case is CaseTag.OUT_OF_RANGE
        assert rep.chain_summary == ()


def test_analyze_height_one():
    rep = analyze(TowerSpec(1, 7, 2))
    assert rep.expected_valuation == 2
    assert rep.match
    assert rep.unit_residue == 1 and rep.exact
    assert rep.case is CaseTag.OUT_OF_RANGE and rep.predicted_residue is None


def test_analyze_report_invariants():
    # the chain route's residue mod F_n^(k+m) is F_n^(k+m-1) times the unit
    for k, n, m in product((1, 2, 3, 5), (1, 2, 3, 4, 9, 12), (1, 2)):
        spec = TowerSpec(k, n, m)
        rep = analyze(spec)
        fn, e = rep.fn_value, rep.expected_valuation
        assert e == k + m - 1
        if fn > 1:
            assert 0 <= rep.unit_residue < fn
            assert tower_residue(spec, fn ** (e + 1)) == fn**e * rep.unit_residue, spec
        if rep.predicted_residue is not None:
            assert rep.match == (rep.unit_residue == rep.predicted_residue)


def test_chained_divisibility_consequence():
    # height-2 towers with base exponent k certify F_n^(k+1) | F_{n * F_n^k},
    # read here from the chain route's residue mod F_n^(k+2)
    for n in range(3, 11):
        fn = fib(n)
        for k in range(1, 5):
            assert tower_residue(TowerSpec(2, n, k), fn ** (k + 2)) % fn ** (k + 1) == 0, (n, k)


def test_parity_examples():
    assert tower_parity_check(TowerSpec(2, 7, 1)) == (True, True, True)
    assert tower_exact(TowerSpec(2, 3, 1)) == 8
    assert tower_parity_check(TowerSpec(2, 3, 1)) == (True, True, True)
    assert tower_parity_check(TowerSpec(2, 4, 1)) == (True, True, True)
    with pytest.raises(ValueError):
        tower_parity_check(TowerSpec(1, 7, 1))


def test_parity_grid():
    for n, k, m in product(range(1, 16), (2, 3, 4), (1, 2)):
        assert all(tower_parity_check(TowerSpec(k, n, m))), (k, n, m)


def test_spec_validation():
    with pytest.raises(ValueError):
        TowerSpec(0, 3, 1)
    with pytest.raises(ValueError):
        TowerSpec(2, 0, 1)
    with pytest.raises(ValueError):
        TowerSpec(2, 3, 0)


def test_analyze_accepts_factored_probes():
    spec = TowerSpec(3, 7, 1)
    assert tower_residue(spec, factorize(97)) == tower_residue(spec, 97)


def test_analyze_beyond_grid_scale():
    # larger bases pull bigger primes into the chains (F_100 contains 570601)
    for n, k in ((30, 2), (37, 7), (100, 7)):
        rep = analyze(TowerSpec(k, n, 2))
        assert rep.match and rep.exact, (n, k)
    rep = analyze(TowerSpec(2, 30, 2))
    assert rep.case is CaseTag.SIGNED_HALF_POW
    assert rep.unit_residue == fib(27) // 2 == 98_209
    rep = analyze(TowerSpec(7, 100, 2))
    assert rep.case is CaseTag.F_NMINUS1
    assert rep.unit_residue == fib(99) % fib(100)


def test_chain_part_period_must_divide_the_level_below(cold_links):
    # 30 is a period of 4, and Wall's rule lifts it to 60 for the part 8 of
    # 216 = 8 * 27: a period of 8, but not the one the walk lcm'd into the
    # period 72 of 216, so the index mod 72 does not determine F mod 8
    spec = TowerSpec(2, 5, 1)
    tower_residue(spec, 216)
    assert cold_links[216].value == 72
    assert fib_pair_mod(30, 4) == (0, 1)
    assert fib_pair_mod(60, 8) == (0, 1)
    cold_links[4] = factorize(30)
    with pytest.raises(FibTowerError, match="does not divide") as exc:
        tower_residue(spec, 216)
    assert not isinstance(exc.value, ValueError)


def test_chain_parts_must_be_coprime(cold_links, monkeypatch):
    # a composite taken for a prime: "2 * 6" passes every period check
    # (24 is the period of 6 and of 12) but has no CRT. Cold, the walk
    # refuses it; with 12's period warm, the walk takes the cache hit and
    # the evaluator's CRT inverse refuses it
    spec = TowerSpec(2, 5, 1)
    with monkeypatch.context() as patched:
        patched.setattr(modfib, "is_prime", lambda p: p in (2, 6))
        target = FactoredNatural(12, ((2, 1), (6, 1)))
    cold_links[6] = factorize(24)
    with pytest.raises(FibTowerError, match="chain modulus shares a factor") as exc:
        tower_residue(spec, target)
    assert not isinstance(exc.value, ValueError)
    tower_residue(spec, 12)
    with pytest.raises(FibTowerError, match="shares a factor with the other parts") as exc:
        tower_residue(spec, target)
    assert not isinstance(exc.value, ValueError)
