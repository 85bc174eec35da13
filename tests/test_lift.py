"""Route 3: the tower's unit mod F_n, carried up the tower, F_n unfactored."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fibtower
from fibtower import (
    ANALYZE_BUDGET,
    DEFAULT_ORACLE_MAX_INDEX,
    BudgetExceeded,
    FibTowerError,
    TowerSpec,
    analyze,
    factorize_fib,
    fib,
    lift_unit,
    oracle_eval,
    predicted_residue,
    tower_residue,
)
from fibtower import lift, modfib, tower
from fibtower.verify import _feasible_grid_specs


def assert_agrees_with_the_chain_route(spec):
    # the chain route's residue mod F_n^(k+m) is F_n^(k+m-1) times the unit,
    # which checks the divisibility as well
    e = spec.k + spec.m
    target = factorize_fib(spec.n).power(e)
    assert tower_residue(spec, target) == fib(spec.n) ** (e - 1) * lift_unit(spec), spec


@settings(max_examples=100, derandomize=True, deadline=None)
@given(k=st.integers(1, 8), n=st.integers(1, 90), m=st.integers(1, 12))
@example(k=8, n=90, m=12)
@example(k=8, n=3, m=12)
@example(k=2, n=5, m=1)
@example(k=4, n=11, m=1)
@example(k=2, n=9, m=2)  # wrong with F'^(x-1) read mod 2: F'^2 == -1 (mod F) for odd n
@example(k=2, n=6, m=1)  # wrong without the F/2 term: the unit 1 becomes 5
def test_lift_agrees_with_the_chain_route(k, n, m):
    assert_agrees_with_the_chain_route(TowerSpec(k, n, m))


def test_lift_agrees_with_the_oracle_on_every_feasible_grid_spec():
    specs = list(_feasible_grid_specs(DEFAULT_ORACLE_MAX_INDEX))
    assert len(specs) == 154
    for spec in specs:
        assert lift_unit(spec) == oracle_eval(spec).quotient_residue, spec


@pytest.mark.parametrize("n", [500, 700, 800, 900, 1000])
def test_lift_matches_the_prediction_where_factoring_is_refused(n):
    spec = TowerSpec(3, n, 1)
    assert lift_unit(spec) == predicted_residue(spec)[1]


def test_lift_trivial_bases_and_height_one():
    assert lift_unit(TowerSpec(4, 2, 3)) == 0
    assert lift_unit(TowerSpec(4, 1, 1)) == 0
    assert lift_unit(TowerSpec(1, 10, 3)) == 1
    assert lift_unit(TowerSpec(1, 3, 1)) == 1


def test_lift_factors_nothing_and_takes_no_pisano_period(monkeypatch):
    # route 3 reads F_n whole: F mod 24 at a small index is all it takes
    # from the chain route's module
    def refused(*args):
        raise AssertionError("route 3 reached the chain route's factoring")

    for name in ("factorize", "pisano_period", "factorize_fib", "build_chain"):
        monkeypatch.setattr(modfib, name, refused)
    for spec in [
        TowerSpec(2, 3, 1),
        TowerSpec(5, 6, 2),
        TowerSpec(4, 9, 3),
        TowerSpec(3, 10, 1),
        TowerSpec(40, 36, 3),
        TowerSpec(3, 1000, 1),
    ]:
        assert lift_unit(spec) == predicted_residue(spec)[1], spec


def test_analyze_refuses_before_any_arithmetic_but_fib(monkeypatch):
    # the price reads F_n's bit length alone; a k = 1 tower is priced too
    def no_arithmetic(*args):
        raise AssertionError("arithmetic ran on a refused tower")

    with monkeypatch.context() as patch:
        for name in ("predicted_residue", "lift_unit", "factorize_fib"):
            patch.setattr(tower, name, no_arithmetic)
        for spec, top in [
            (TowerSpec(3, 3000000, 1), "F_3000000^4 of up to 8330900 bits"),
            (TowerSpec(3, 1000, 2000), "F_1000^2003 of up to 1390082 bits"),
            (TowerSpec(1, 5, 10**6), "F_5^1000001 of up to 3000003 bits"),
        ]:
            with pytest.raises(BudgetExceeded) as err:
                analyze(spec)
            assert str(err.value).startswith(
                f"analysis budget {ANALYZE_BUDGET} exceeded: {spec} is priced "
            ), spec
            assert str(err.value).endswith(f" units, {spec.k + 1} products mod {top}")
    rep = analyze(TowerSpec(1, 4001, 40))
    assert rep.match and rep.unit_residue == 1 and rep.chain_summary == ()


def test_lift_checks_that_cassinis_unit_is_1_mod_f_n(monkeypatch):
    # a fault injected from outside: F_9 made F_9 + 1
    monkeypatch.setattr(lift, "fib", lambda i: fib(i) + (i == 9))
    with pytest.raises(FibTowerError, match=r"\(-1\)\^10 F_9\^2 is not 1 mod F_10"):
        lift_unit(TowerSpec(2, 10, 1))


def test_analyze_takes_every_residue_from_route_3(monkeypatch):
    # the top exponent of (3, 5, 1100) is E = 1103 on the small F_5 = 5
    specs = [TowerSpec(3, 5, 1100)] + [TowerSpec(3, n, 1) for n in (3, 30, 90, 600)]

    def not_evaluated(*args):
        raise AssertionError("analyze evaluated the chain")

    monkeypatch.setattr(tower, "tower_residue", not_evaluated)
    reports = [analyze(spec) for spec in specs]
    assert all(rep.match and rep.chain_summary for rep in reports)
    assert reports[0].exact and len(reports[0].chain_summary) == 3

    # a refused spec is refused on its price, before F_n is factored
    factored = []
    monkeypatch.setattr(tower, "factorize_fib", factored.append)
    monkeypatch.setattr(tower, "ANALYZE_BUDGET", 0)
    for spec, price, bits in zip(specs, (164, 4, 4, 4, 40), (3309, 8, 80, 248, 1664)):
        with pytest.raises(BudgetExceeded) as err:
            analyze(spec)
        assert str(err.value) == (
            f"analysis budget 0 exceeded: {spec} is priced {price} units, "
            f"4 products mod F_{spec.n}^{spec.k + spec.m} of up to {bits} bits"
        )
    assert factored == []


class Admitted(Exception):
    """Raised in place of the analysis of a spec that its price admits."""


@pytest.mark.parametrize(
    "k, n, m, price, admitted",
    [
        (3, 5, 1100, 164, True),
        (2, 90, 300, 4011, True),
        (30, 1000, 1, 54715, True),
        (3, 100000, 1, 1176680, True),
        (300, 15, 1, 10234, True),
        (2, 4001, 40, 155679, True),
        (3, 500, 200, 75276, True),
        (1000, 5, 1, 34034, True),
        (2, 5, 100000, 1030008, True),
        (2, 208414, 1, 2156226, True),
        (10000, 5, 1, 34333433, False),
        (3, 1000, 2000, 29484984, False),
        (3, 137000, 1, 2208472, False),
        (1, 5, 10**6, 68664688, False),
    ],
)
def test_analyze_prices_k_plus_1_products_mod_f_n_to_the_k_plus_m(
    monkeypatch, k, n, m, price, admitted
):
    # the price alone: an admitted spec stops where its analysis would start
    def admit(spec):
        raise Admitted

    monkeypatch.setattr(tower, "predicted_residue", admit)
    spec = TowerSpec(k, n, m)
    with pytest.raises(Admitted if admitted else BudgetExceeded):
        analyze(spec)
    monkeypatch.setattr(tower, "ANALYZE_BUDGET", price)
    with pytest.raises(Admitted):
        analyze(spec)
    monkeypatch.setattr(tower, "ANALYZE_BUDGET", price - 1)
    with pytest.raises(BudgetExceeded, match=f" is priced {price} units, {k + 1} products "):
        analyze(spec)


def test_lift_of_a_tall_tower_agrees_with_the_chain_route():
    for spec in [
        TowerSpec(100, 30, 1),
        TowerSpec(100, 27, 1),
        TowerSpec(100, 33, 2),
        TowerSpec(200, 9, 1),
    ]:
        assert_agrees_with_the_chain_route(spec)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(k=st.integers(9, 40), n=st.integers(1, 40), m=st.integers(1, 3))
@example(k=40, n=36, m=3)
@example(k=40, n=3, m=3)
@example(k=40, n=39, m=3)
def test_lift_agrees_with_the_chain_route_on_tall_towers(k, n, m):
    assert_agrees_with_the_chain_route(TowerSpec(k, n, m))


def test_lift_reads_f_mod_24_from_its_table():
    # pi(24) = 24, so the table of F_0 .. F_23 mod 24 gives F_i mod 24 at
    # every index
    assert modfib.fib_pair_mod(24, 24) == (0, 1)
    table = lift._fib_mod_24()
    assert table == tuple(modfib.fib_mod(i, 24) for i in range(24))
    for i in range(24, 5000, 7):
        assert table[i % 24] == modfib.fib_mod(i, 24), i


def test_importing_fibtower_runs_no_fibonacci_ladder():
    # fib's memo and route 3's mod-24 table fill on first use, so a ladder
    # counted in a run is one that run asked for
    code = """
import sys
called = set()

def profile(frame, event, arg):
    if event == "call" and "fibtower" in frame.f_code.co_filename:
        called.add(frame.f_code.co_name)

sys.setprofile(profile)
import fibtower
sys.setprofile(None)
ladders = called & {"_lucas_pair", "fib_pair_mod", "fib_iterative"}
print(sorted(ladders), fibtower.fibcore._memo, fibtower.lift._fib_mod_24.cache_info().currsize)
"""
    src = str(Path(fibtower.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "{}", "0"]
