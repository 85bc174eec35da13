"""Exact big-integer oracle: feasibility ladder and valuation extraction."""

import pytest

from fibtower import (
    BudgetExceeded,
    TowerSpec,
    analyze,
    fib,
    oracle_budget,
    oracle_eval,
    oracle_feasible,
    tower_residue,
)
from fibtower import oracle


def test_oracle_example_2_4_1():
    res = oracle_eval(TowerSpec(2, 4, 1), 10**6)
    assert res.value == 144 and res.top_index == 12
    assert res.valuation == 2  # 144 = 3^2 * 16
    assert res.unit_residue == 16 % 3 == 1
    assert res.quotient_residue == 1


def test_oracle_height_one():
    for n, m in ((3, 1), (7, 2), (10, 3)):
        res = oracle_eval(TowerSpec(1, n, m), 10**6)
        assert res.value == fib(n) ** m
        assert res.valuation == m
        assert res.unit_residue == 1
        assert res.top_index == n


def test_oracle_trivial_base():
    res = oracle_eval(TowerSpec(5, 2, 3), 10**6)
    assert res.value == 1 and res.valuation is None
    assert res.unit_residue == 0 and res.quotient_residue == 0


def test_oracle_example_3_5_1():
    res = oracle_eval(TowerSpec(3, 5, 1), 10**6)
    assert res.top_index == 5 * fib(25) == 375_125
    assert res.valuation == 3
    rep = analyze(TowerSpec(3, 5, 1))
    assert rep.unit_residue == res.quotient_residue
    assert res.value % 97 == tower_residue(TowerSpec(3, 5, 1), 97)


def test_oracle_feasible_examples():
    assert not oracle_feasible(TowerSpec(3, 7, 1), 10**6)  # next index ~3.3e19
    assert oracle_feasible(TowerSpec(2, 10, 1), 10**6)  # index 550
    for n, m in ((5, 1), (40, 2), (1000, 3)):
        assert oracle_feasible(TowerSpec(1, n, m), 10**6)


def test_oracle_budget_error_names_level():
    assert oracle_budget() == 2_000_000
    assert oracle_budget(12) == 12
    with pytest.raises(BudgetExceeded) as err:
        oracle_eval(TowerSpec(2, 10, 1), 500)  # index 550 at level 2
    assert "level 2" in str(err.value)
    with pytest.raises(BudgetExceeded) as err:
        oracle_eval(TowerSpec(3, 7, 1), 10**6)
    assert "level 3" in str(err.value)
    with pytest.raises(BudgetExceeded) as err:
        oracle_eval(TowerSpec(2, 10, 1), 5)  # n itself is over the budget
    assert "level 2" in str(err.value)


@pytest.mark.parametrize(
    "spec, limit",
    [
        (TowerSpec(2, 60_000_000, 1), 10**9),  # F_n is past fib's own index budget
        (TowerSpec(2, 10, 3000), None),  # the level-2 index has 5200 digits
    ],
)
def test_oracle_refuses_level_two_without_computing_it(spec, limit):
    assert not oracle_feasible(spec, limit)
    with pytest.raises(BudgetExceeded, match="level 2"):
        oracle_eval(spec, limit)


def test_oracle_height_one_respects_the_budget():
    spec = TowerSpec(1, 100, 1)  # the value F_100 needs index 100
    assert not oracle_feasible(spec, 50)
    with pytest.raises(BudgetExceeded, match="level 1"):
        oracle_eval(spec, 50)
    assert oracle_feasible(TowerSpec(1, 50, 1), 50)
    assert oracle_eval(TowerSpec(1, 50, 1), 50).top_index == 50


def test_oracle_feasible_never_computes_the_top_value(monkeypatch):
    indices = []

    def spy_fib(i, **kwargs):
        indices.append(i)
        return fib(i, **kwargs)

    monkeypatch.setattr(oracle, "fib", spy_fib)
    assert oracle_feasible(TowerSpec(3, 5, 1), 10**6)  # top index 375 125
    assert indices and max(indices) < 375_125


def test_oracle_agrees_with_chain_engine_small():
    for k, n, m in ((2, 6, 1), (2, 7, 2), (3, 3, 2), (3, 4, 1), (4, 3, 1)):
        spec = TowerSpec(k, n, m)
        assert oracle_feasible(spec, 2_000_000), spec
        res = oracle_eval(spec, 2_000_000)
        rep = analyze(spec)
        assert rep.unit_residue == res.quotient_residue, spec
        assert res.valuation >= rep.expected_valuation
        for probe in (7, 8, 97):
            assert tower_residue(spec, probe) == res.value % probe, (spec, probe)


def test_oracle_residues_match_a_second_division_on_a_grid():
    # n = 3 gives v > lead, so the quotient residue is read at a step before
    # the cofactor's last division; n = 6 gives v == lead, as F_{6*8^m} has
    # exactly 3m + 3 factors of 2
    deeper = []
    for n in range(1, 13):
        for k in range(1, 5):
            for m in range(1, 4):
                spec = TowerSpec(k, n, m)
                if not oracle_feasible(spec):
                    continue
                res = oracle_eval(spec)
                fn = fib(n)
                if fn == 1:
                    assert res.valuation is None
                    continue
                lead = k + m - 1
                assert res.quotient_residue == (res.value // fn**lead) % fn, spec
                cof, v = res.value, 0
                while cof % fn == 0:
                    cof, v = cof // fn, v + 1
                assert (res.valuation, res.unit_residue) == (v, cof % fn), spec
                if v > lead:
                    deeper.append(n)
    assert set(deeper) == {3}
