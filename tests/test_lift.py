"""Route 3: the tower mod F_n^e by the F_n-adic expansion, F_n unfactored."""

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
@example(k=2, n=5, m=1)
@example(k=4, n=11, m=1)
@example(k=2, n=9, m=2)  # wrong with F'^(x-1) read mod 2: F'^2 == -1 (mod F) for odd n
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
        e = spec.k + spec.m
        assert lift_residue(spec, e) == res.value % fib(spec.n) ** e, spec


@pytest.mark.parametrize("n", [500, 700, 800, 900, 1000])
def test_lift_matches_the_prediction_where_factoring_is_refused(n):
    spec = TowerSpec(3, n, 1)
    assert unit(spec) == predicted_residue(spec)[1]


def test_lift_refuses_an_exponent_above_k_plus_m(monkeypatch):
    # the truncation lemma needs F_n^(E-2) | x, which the tower's theorem
    # gives up to e = k + m alone; the refusal comes before any arithmetic
    def no_arithmetic(*args):
        raise AssertionError("arithmetic ran on a refused exponent")

    monkeypatch.setattr(lift, "fib", no_arithmetic)
    monkeypatch.setattr(lift, "_plan", no_arithmetic)
    for spec in [TowerSpec(1, 10, 3), TowerSpec(2, 3, 1), TowerSpec(12, 3, 5)]:
        e = spec.k + spec.m + 1
        with pytest.raises(ValueError, match=rf"exponent {e} exceeds k \+ m"):
            lift_residue(spec, e)


def test_lift_trivial_bases_and_height_one():
    assert lift_residue(TowerSpec(4, 2, 3), 5) == 0
    assert lift_residue(TowerSpec(4, 10, 3), 0) == 0
    assert lift_residue(TowerSpec(1, 10, 3), 4) == 55**3
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


def test_lift_checks_the_truncation_lemmas_hypothesis(monkeypatch):
    # level 2 of (2, 10, 1) sits at E = 3, so it needs F_10 | x; x = F_10
    # made F_10 + 1 fails the truncation lemma's hypothesis
    multiple_residue = lift._multiple_residue
    monkeypatch.setattr(
        lift, "_multiple_residue", lambda x, *rest: multiple_residue(x + 1, *rest)
    )
    with pytest.raises(FibTowerError, match=r"F_n\^1 does not divide the level below"):
        lift_residue(TowerSpec(2, 10, 1), 3)


def test_lift_checks_that_the_crt_parts_are_coprime(monkeypatch):
    # with nothing stripped, the 2 that an odd n brings into w stays in the
    # small part S_0 of a level whose other part is a power of F_9 = 34
    monkeypatch.setattr(lift, "_coprime_part", lambda s, f: s)
    with pytest.raises(FibTowerError, match="share a factor"):
        lift_residue(TowerSpec(3, 9, 1), 2)


@pytest.mark.parametrize("n", [26, 73, 75, 80])
def test_a_sweep_column_lifted_warm_equals_it_lifted_cold(monkeypatch, n):
    # k ascending and m = 1..3, the order of run_sweep's rows for one n;
    # each row is lifted once after the rows before it, and once with the
    # small-period and S* caches emptied. Nothing else is kept between
    # calls, so both lift every level of the plan and run its checks
    lifted = []
    multiple_residue = lift._multiple_residue

    def spy(x, top, *rest):
        lifted.append(top)
        return multiple_residue(x, top, *rest)

    monkeypatch.setattr(lift, "_multiple_residue", spy)
    for k in range(2, 9):
        for m in range(1, 4):
            spec, e = TowerSpec(k, n, m), k + m
            del lifted[:]
            warm = lift_residue(spec, e)
            assert lifted == list(range(m + 2, e + 1)), spec
            monkeypatch.setattr(lift, "_small_periods", {})
            lift._fixed_point.cache_clear()
            del lifted[:]
            assert lift_residue(spec, e) == warm, spec
            assert lifted == list(range(m + 2, e + 1)), spec


def other_with_the_same_2_3_parts_and_size(fn):
    """A number other than fn with fn's 2- and 3-parts and bit length, or
    None when fn is the only one."""
    part = fn & -fn
    rest = fn // part
    while rest % 3 == 0:
        rest //= 3
        part *= 3
    bits = fn.bit_length()
    lowest = -(-(1 << (bits - 1)) // part)
    for other in range(((1 << bits) - 1) // part, lowest - 1, -1):
        if other % 6 in (1, 5) and other != rest:
            return part * other
    return None


def test_level_j_sits_at_one_modulus_for_every_height(monkeypatch):
    # n = 3..50 meets every class of n mod 24; towers of F_100000 this tall
    # are refused, and the plan is made beyond the budget here
    monkeypatch.setattr(lift, "LIFT_BUDGET", 10**15)
    for n in [*range(3, 51), 100_000]:
        fn = fib(n)
        other = other_with_the_same_2_3_parts_and_size(fn)
        for m in (1, 2, 3):
            at = {}
            for k in range(2, 13):
                spec = TowerSpec(k, n, m)
                plan = lift._plan(spec, fn, k + m)
                for i, (s, e, *_) in enumerate(plan[0]):
                    at.setdefault(k - i, set()).add((s, e))
                # the plan reads F_n through its 2- and 3-parts alone, and
                # the charge its bit length, which other shares as well
                if other is not None:
                    assert lift._plan(spec, other, k + m) == plan, (spec, other)
            s_star = plan[0][0][0]
            assert s_star in (1, 2, 24), (n, m)
            assert at == {j: {(s_star, j + m)} for j in range(2, 13)}, (n, m)


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
