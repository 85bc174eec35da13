"""Route 3: the tower mod F_n^e by the F_n-adic expansion, F_n unfactored."""

import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fibtower import (
    DEFAULT_ORACLE_MAX_INDEX,
    LIFT_BUDGET,
    FibTowerError,
    LiftBudgetExceeded,
    TowerSpec,
    analyze,
    factorize_fib,
    fib,
    lift_residue,
    oracle_eval,
    predicted_residue,
    tower_residue,
)
from fibtower import lift, tower
from fibtower.verify import _feasible_grid_specs


def unit(spec):
    """(tower / F_n^(k+m-1)) mod F_n from route 3."""
    fn = fib(spec.n)
    return lift_residue(spec, spec.k + spec.m) // fn ** (spec.k + spec.m - 1) % fn


@settings(max_examples=100, derandomize=True, deadline=None)
@given(k=st.integers(1, 8), n=st.integers(1, 90), m=st.integers(1, 12))
@example(k=8, n=90, m=12)
@example(k=8, n=3, m=12)
@example(k=2, n=5, m=1)  # wrong without the sign (-1)^q of F'^(2q) for odd n
@example(k=4, n=11, m=1)  # wrong without the 2 that an odd n adds to w
def test_lift_agrees_with_the_chain_route(k, n, m):
    spec = TowerSpec(k, n, m)
    target = factorize_fib(n).power(k + m)
    assert lift_residue(spec, k + m) == tower_residue(spec, target)


def test_lift_agrees_with_the_oracle_on_every_feasible_grid_spec():
    specs = list(_feasible_grid_specs(DEFAULT_ORACLE_MAX_INDEX))
    assert len(specs) == 154
    for spec in specs:
        res = oracle_eval(spec)
        assert unit(spec) == res.quotient_residue, spec
        if res.valuation is not None:
            e = res.valuation + 1
            assert lift_residue(spec, e) == res.value % fib(spec.n) ** e, spec


@pytest.mark.parametrize("n", [500, 700, 800, 900, 1000])
def test_lift_matches_the_prediction_where_factoring_is_refused(n):
    spec = TowerSpec(3, n, 1)
    assert unit(spec) == predicted_residue(spec)[1]


def test_lift_gives_the_exact_2_adic_valuation_at_n_3():
    # v_2(G(k, 3, m)) = m + 2k - 2 (Lengyel 1995): the tower is 2^v times
    # an odd number, so it is 2^v mod 2^(v+1)
    for k in range(2, 13):
        for m in range(1, 6):
            v = m + 2 * k - 2
            assert lift_residue(TowerSpec(k, 3, m), v + 1) == 2**v, (k, m)


def test_lift_trivial_bases_and_height_one():
    assert lift_residue(TowerSpec(4, 2, 3), 5) == 0
    assert lift_residue(TowerSpec(4, 10, 3), 0) == 0
    assert lift_residue(TowerSpec(1, 10, 3), 5) == 55**3
    assert lift_residue(TowerSpec(3, 10, 2), 1) == 0
    with pytest.raises(ValueError):
        lift_residue(TowerSpec(2, 10, 1), -1)


def test_lift_budget_refuses_before_any_level_arithmetic(monkeypatch):
    def no_arithmetic(*args):
        raise AssertionError("level arithmetic ran on a refused plan")

    monkeypatch.setattr(lift, "_multiple_residue", no_arithmetic)
    spec = TowerSpec(3, 500, 200)
    with pytest.raises(LiftBudgetExceeded) as err:
        lift_residue(spec, 203)
    assert str(err.value) == (
        f"lift budget {LIFT_BUDGET} exceeded at level 1 of 2 lifting {spec} mod F_500^203"
    )


# Each internal check, made to fail by a fault injected from outside.


def test_lift_checks_that_cassinis_unit_is_1_mod_f_n(monkeypatch):
    monkeypatch.setattr(lift, "fib", lambda i: fib(i) + (i == 9))
    with pytest.raises(FibTowerError, match=r"\(-1\)\^10 F_9\^2 is not 1 mod F_10"):
        lift_residue(TowerSpec(2, 10, 1), 2)


def test_lift_checks_that_binomial_divisions_are_exact(cold_lift, monkeypatch):
    # F_12 = 144 shares 2 and 3 with 3!, so a_3 = 6; a wrong a_3 leaves the
    # falling factorial of degree 3 undivided
    parts = lift._factorial_parts

    def wrong_a_3(top, fn):
        a, inverses = parts(top, fn)
        assert a[3] == 6
        return a[:3] + [a[3] + 1] + a[4:], inverses

    monkeypatch.setattr(lift, "_factorial_parts", wrong_a_3)
    with pytest.raises(FibTowerError, match=r"not divisible by 7, the F_n-part of 3!"):
        lift_residue(TowerSpec(2, 12, 3), 5)


def test_lift_checks_that_the_crt_parts_are_coprime(cold_lift, monkeypatch):
    # with nothing stripped, the 2 that an odd n brings into w stays in the
    # small part S_0 of a level whose other part is a power of F_9 = 34
    monkeypatch.setattr(lift, "_coprime_part", lambda s, f: s)
    with pytest.raises(FibTowerError, match="share a factor"):
        lift_residue(TowerSpec(3, 9, 1), 2)
    # and, with nothing stripped, b_6 = 6! keeps the 5 of F_5: no inverse
    with pytest.raises(FibTowerError, match="the part of 6! coprime to F_n shares a factor"):
        lift_residue(TowerSpec(3, 5, 4), 7)


def test_lift_checks_that_two_lifts_of_a_level_agree(cold_lift):
    # G(3, 12, 1) held mod F_12 alone: F_12^4 does not divide that, so the
    # level is lifted again, and the two must agree mod F_12
    spec, fn = TowerSpec(3, 12, 1), fib(12)
    value = lift_residue(spec, 4)
    cold_lift.clear()
    cold_lift[12, 1, 3] = fn, (value + 1) % fn
    with pytest.raises(FibTowerError, match=r"two lifts of G\(3, 12, 1\) disagree"):
        lift_residue(spec, 4)
    # an entry that agrees mod F_12 is merged by the CRT
    cold_lift.clear()
    cold_lift[12, 1, 3] = 5 * fn, value % fn + 2 * fn
    assert lift_residue(spec, 4) == value
    modulus, merged = cold_lift[12, 1, 3]
    assert modulus == 5 * fn**4
    assert merged % fn**4 == value and merged % (5 * fn) == value % fn + 2 * fn


def count_lifted_levels(monkeypatch):
    """A list that grows by one for each level route 3 lifts."""
    lifted = []
    multiple_residue = lift._multiple_residue

    def spy(*args):
        lifted.append(args[1])
        return multiple_residue(*args)

    monkeypatch.setattr(lift, "_multiple_residue", spy)
    return lifted


@pytest.mark.parametrize("n", [26, 73, 75, 80])
def test_a_sweep_column_lifted_warm_equals_it_lifted_cold(cold_lift, monkeypatch, n):
    # k ascending and m = 1..3, the order of run_sweep's rows for one n;
    # each row is lifted once on the memo its earlier rows left, and once
    # on an empty one
    lifted = count_lifted_levels(monkeypatch)
    warm_levels = cold_levels = 0
    for k in range(2, 9):
        for m in range(1, 4):
            spec = TowerSpec(k, n, m)
            del lifted[:]
            warm = lift_residue(spec, k + m)
            warm_levels += len(lifted)
            held = dict(cold_lift)
            cold_lift.clear()
            del lifted[:]
            assert lift_residue(spec, k + m) == warm, spec
            cold_levels += len(lifted)
            cold_lift.clear()
            cold_lift.update(held)
    assert cold_levels == 3 * sum(range(1, 8))
    assert warm_levels < cold_levels


def test_a_warm_lift_still_charges_the_whole_plan(cold_lift, monkeypatch):
    # the memo holds the whole answer, yet the plan is refused as it is cold
    spec = TowerSpec(3, 30, 1)
    lift_residue(spec, 4)
    assert (30, 1, 3) in cold_lift
    lifted = count_lifted_levels(monkeypatch)
    monkeypatch.setattr(lift, "LIFT_BUDGET", 0)
    with pytest.raises(LiftBudgetExceeded) as warm:
        lift_residue(spec, 4)
    cold_lift.clear()
    with pytest.raises(LiftBudgetExceeded) as cold:
        lift_residue(spec, 4)
    assert str(warm.value) == str(cold.value) == (
        f"lift budget 0 exceeded at level 1 of 2 lifting {spec} mod F_30^4"
    )
    assert lifted == []


def test_the_memo_holds_the_latest_n_alone(cold_lift):
    lift_residue(TowerSpec(4, 26, 2), 6)
    assert {key[:2] for key in cold_lift} == {(26, 2)}
    assert sorted(j for *_, j in cold_lift) == [2, 3, 4]
    lift_residue(TowerSpec(2, 73, 1), 3)
    assert list(cold_lift) == [(73, 1, 2)]


def test_the_memo_under_concurrent_lifts(cold_lift):
    # four threads walk the columns of n = 26 and n = 27, two forward and
    # two backward, so each keeps emptying the memo for the others
    specs = [TowerSpec(k, n, m) for n in (26, 27) for k in range(2, 7) for m in (1, 2)]
    expected = {}
    for spec in specs:
        cold_lift.clear()
        expected[spec] = lift_residue(spec, spec.k + spec.m)
    cold_lift.clear()
    results, errors = [], []

    def work(order):
        try:
            for spec in order:
                results.append((spec, lift_residue(spec, spec.k + spec.m)))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=work, args=(specs[::step],)) for step in (1, -1, 1, -1)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert len(results) == 4 * len(specs)
    assert all(value == expected[spec] for spec, value in results)
    assert len({n for n, _, _ in cold_lift}) == 1


def test_analyze_takes_every_residue_from_route_3(monkeypatch):
    # the top exponent of (3, 5, 1100) is E = 1103 on the small F_5 = 5
    specs = [TowerSpec(3, 5, 1100)] + [TowerSpec(3, n, 1) for n in (3, 30, 90, 600)]

    def not_evaluated(*args):
        raise AssertionError("analyze evaluated the chain")

    monkeypatch.setattr(tower, "tower_residue", not_evaluated)
    reports = [analyze(spec) for spec in specs]
    assert all(rep.match and rep.chain_summary for rep in reports)
    assert reports[0].exact and len(reports[0].chain_summary) == 3

    # a refused spec is refused by route 3 alone, before F_n is factored
    factored = []
    monkeypatch.setattr(tower, "factorize_fib", factored.append)
    monkeypatch.setattr(lift, "LIFT_BUDGET", 0)
    for spec in specs:
        with pytest.raises(LiftBudgetExceeded) as err:
            analyze(spec)
        assert str(err.value) == (
            f"lift budget 0 exceeded at level 1 of 2 lifting {spec} mod "
            f"F_{spec.n}^{spec.k + spec.m}"
        )
    assert factored == []


@pytest.mark.parametrize(
    "k, n, m, charge, admitted",
    [
        (3, 5, 1100, 3028, True),
        (2, 90, 300, 8628, True),
        (30, 1000, 1, 9897, True),
        (3, 100000, 1, 18622, True),
        (300, 15, 1, 28207, False),
        (2, 4001, 40, 29483, False),
        (3, 500, 200, 116528, False),
        (1000, 5, 1, 310126, False),
        (2, 5, 100000, 366740590, False),
    ],
)
def test_lift_charges_a_level_by_the_size_of_f_n_to_the_e(
    monkeypatch, k, n, m, charge, admitted
):
    # the plan alone: _plan does no level arithmetic
    spec, fn = TowerSpec(k, n, m), fib(n)
    with monkeypatch.context() as patch:
        patch.setattr(lift, "LIFT_BUDGET", charge)
        levels, _, _ = lift._plan(spec, fn, k + m)
    assert sum(lift._level_cost(top, fn.bit_length()) for *_, top in levels) == charge
    if admitted:
        lift._plan(spec, fn, k + m)
    else:
        with pytest.raises(LiftBudgetExceeded):
            lift._plan(spec, fn, k + m)


def test_plan_tops_do_not_grow_down_a_tall_tower():
    # F_3, F_9 and F_27 are twice an odd number (n == 3 mod 6)
    for spec in [
        TowerSpec(100, 30, 1),
        TowerSpec(100, 27, 1),
        TowerSpec(60, 3, 1),
        TowerSpec(200, 9, 1),
    ]:
        levels, _, _ = lift._plan(spec, fib(spec.n), spec.k + spec.m)
        tops = [top for *_, top in levels]
        assert len(tops) == spec.k - 1 and tops[0] == spec.k + spec.m, spec
        # E stays put or falls by one per level
        assert all(top - 1 <= below <= top for top, below in zip(tops, tops[1:])), spec


def test_lift_of_a_tall_tower_agrees_with_the_chain_route():
    for spec in [
        TowerSpec(100, 30, 1),
        TowerSpec(100, 27, 1),
        TowerSpec(100, 33, 2),
        TowerSpec(200, 9, 1),
    ]:
        e = spec.k + spec.m
        target = factorize_fib(spec.n).power(e)
        assert lift_residue(spec, e) == tower_residue(spec, target), spec


@settings(max_examples=50, derandomize=True, deadline=None)
@given(k=st.integers(9, 40), n=st.integers(1, 40), m=st.integers(1, 3))
@example(k=40, n=36, m=3)
@example(k=40, n=3, m=3)
@example(k=40, n=39, m=3)
def test_lift_agrees_with_the_chain_route_on_tall_towers(k, n, m):
    spec = TowerSpec(k, n, m)
    target = factorize_fib(n).power(k + m)
    assert lift_residue(spec, k + m) == tower_residue(spec, target)
