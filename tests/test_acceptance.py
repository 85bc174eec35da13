"""Acceptance gate: every criterion runs at its stated tolerance.

All tolerances are exact (zero): any failed comparison here would be a
counterexample to a proved statement or a broken determinism contract.
Each test prints one PASS line with its scope and timing (visible with -s).
"""

import time
from itertools import product

import numpy as np
import pytest

from fibtower import (
    BRANCH_LABELS,
    CaseTag,
    TowerSpec,
    analyze,
    build_chain,
    factorize,
    fib,
    fib_pair_mod,
    oracle_eval,
    oracle_feasible,
    pisano_period,
    render_csv,
    render_json,
    run_sweep,
    tower_residue,
)
from fibtower.verify import identity_suite, lemma_suite

ORACLE_BUDGET = 2_000_000
PISANO_LIMIT = 100_000

_t0 = time.time()


def _report(line: str) -> None:
    print(f"[acceptance +{time.time() - _t0:7.1f}s] {line}")


@pytest.fixture(scope="module")
def residue_grid_sweep():
    # n in [3,25], k in [2,6], m in [1,3]: the full residue-formula grid
    return run_sweep((2, 6), (3, 25), (1, 3))


def test_acceptance_01_divisibility_grid():
    """Guaranteed power divides every tower on n[1..25] k[1..6] m[1..3]."""
    start = time.time()
    failures = []
    count = 0
    for n, k, m in product(range(1, 26), range(1, 7), range(1, 4)):
        count += 1
        rep = analyze(TowerSpec(k=k, n=n, m=m))
        if not rep.divisibility_ok:
            failures.append((n, k, m))
    assert not failures, f"divisibility counterexamples: {failures}"
    _report(
        f"PASS divisibility grid: {count} points, 0 failures "
        f"({time.time() - start:.1f}s)"
    )


def test_acceptance_02_residue_formula_grid(residue_grid_sweep):
    """Predicted residue matches on n[3..25] k[2..6] m[1..3]; all branches hit."""
    rows = residue_grid_sweep.rows
    bad = [r.spec for r in rows if r.status != "ok" or not r.report.match]
    assert not bad, f"residue mismatches: {bad}"
    summary = residue_grid_sweep.summary()
    for tag in (t for t in CaseTag if t is not CaseTag.OUT_OF_RANGE):
        assert summary["case"].get(tag.value, 0) >= 10, summary["case"]
    for label in BRANCH_LABELS:
        assert summary["branch"].get(label, 0) >= 10, summary["branch"]
    _report(
        f"PASS residue formula grid: {len(rows)} points all match; "
        f"branch coverage {sorted(summary['branch'].values())}"
    )


def test_acceptance_03_exact_divisibility(residue_grid_sweep):
    """Unit is nonzero for n >= 4; and n = 3 shows the bound is sharp."""
    inexact = [
        r.spec
        for r in residue_grid_sweep.rows
        if r.spec.n >= 4 and not r.report.exact
    ]
    assert not inexact, f"exact divisibility failed at: {inexact}"
    n3 = [r.report for r in residue_grid_sweep.rows if r.spec.n == 3]
    assert n3 and any(not rep.exact for rep in n3)
    _report(
        "PASS exact divisibility: unit nonzero on all n>=4 rows; "
        f"n=3 inexact rows: {sum(not rep.exact for rep in n3)}/{len(n3)}"
    )


def test_acceptance_04_height_two_three_fixtures():
    """Frozen unit residues for the height-2/3 specializations."""
    fixtures = (
        (TowerSpec(2, 5, 1), 1),
        (TowerSpec(2, 6, 1), 1),  # half of F_3, mod 8
        (TowerSpec(3, 4, 1), 2),  # F_3 mod 3
        (TowerSpec(3, 6, 1), 1),  # (F_3/2)^2 mod 8, even n so no sign flip
    )
    for spec, expected in fixtures:
        rep = analyze(spec)
        assert rep.unit_residue == expected, (spec, rep.unit_residue)
        assert rep.match and rep.divisibility_ok
        if oracle_feasible(spec, ORACLE_BUDGET):
            res = oracle_eval(spec, ORACLE_BUDGET)
            assert res.quotient_residue == expected, spec
    _report("PASS height-2/3 fixtures: units (1, 1, 2, 1), oracle-confirmed where feasible")


def test_acceptance_05_oracle_equivalence():
    """Exact big-integer route agrees with the chain engine on every feasible spec."""
    start = time.time()
    specs = [
        TowerSpec(k=k, n=n, m=m)
        for n, k, m in product(range(1, 26), range(1, 7), range(1, 4))
        if oracle_feasible(TowerSpec(k=k, n=n, m=m), ORACLE_BUDGET)
    ]
    # the budget must cover the documented slices
    for n in range(1, 17):
        assert TowerSpec(2, n, 1) in specs
    for n in range(1, 6):
        assert TowerSpec(3, n, 1) in specs
    assert TowerSpec(4, 3, 1) in specs
    for spec in specs:
        res = oracle_eval(spec, ORACLE_BUDGET)
        rep = analyze(spec)
        lead = spec.k + spec.m - 1
        if res.valuation is not None:
            assert res.valuation >= lead, spec
            if spec.n >= 4 and spec.k >= 2:
                assert res.valuation == lead, spec
            assert rep.unit_residue == res.quotient_residue, spec
        for probe in (8, 97, fib(spec.n) ** (spec.k + spec.m)):
            assert tower_residue(spec, probe) == res.value % probe, (spec, probe)
    _report(
        f"PASS oracle equivalence: {len(specs)} feasible specs "
        f"({time.time() - start:.1f}s)"
    )


def test_acceptance_06_identity_and_lemma_suites():
    """All identity families and lemma properties pass on their stated ranges."""
    start = time.time()
    results = identity_suite() + lemma_suite()
    failed = [r for r in results if not r.ok]
    assert not failed, failed
    assert len(results) == 12
    _report(
        f"PASS identity/lemma suites: {len(results)} properties, "
        f"{sum(r.cases for r in results)} cases ({time.time() - start:.1f}s)"
    )


def _brute_periods_batch(limit: int) -> np.ndarray:
    """All Pisano periods up to limit by vectorized pair iteration.

    Independent of the factored method: nothing but the defining recurrence.
    """
    res = np.zeros(limit + 1, dtype=np.int64)
    res[1] = 1
    moduli = np.arange(2, limit + 1, dtype=np.int64)
    a = np.ones_like(moduli)
    b = np.ones_like(moduli)
    t = 1
    since_compact = 0
    while moduli.size:
        hit = (a == 0) & (b == 1)
        if hit.any():
            idx = moduli[hit]
            unset = res[idx] == 0
            res[idx[unset]] = t
            since_compact += 1
        if since_compact >= 64 or (t > 6 * limit):
            keep = res[moduli] == 0
            moduli, a, b = moduli[keep], a[keep], b[keep]
            since_compact = 0
            if not moduli.size:
                break
            if t > 6 * limit:
                raise AssertionError(f"missed universal bound: {moduli[:5]}")
        c = a + b
        np.subtract(c, moduli, out=c, where=c >= moduli)
        a, b = b, c
        t += 1
    return res


def test_acceptance_07_pisano_correctness():
    """Factored periods equal brute periods for every modulus up to 100000."""
    start = time.time()
    brute = _brute_periods_batch(PISANO_LIMIT)
    assert brute[4] == 6
    mismatches = [
        m
        for m in range(1, PISANO_LIMIT + 1)
        if pisano_period(factorize(m)).value != brute[m]
    ]
    assert not mismatches, f"period mismatches at: {mismatches[:10]}"
    # every chain the sweeps use ends at its target, and each entry is the
    # minimal period of the next, proved here without the period cache
    verified = 0
    for n, k, m in product(range(3, 26), range(1, 7), range(1, 4)):
        target = factorize(fib(n)).power(k + m)
        chain = build_chain(k, target)
        assert len(chain) == k + 1 and chain[-1] == target.value
        for t, modulus in zip(chain, chain[1:]):
            one = (0, 1 % modulus)
            assert fib_pair_mod(t, modulus) == one, (n, k, m, t, modulus)
            for q, _ in factorize(t).factors:
                assert fib_pair_mod(t // q, modulus) != one, (n, k, m, t, q)
        verified += 1
    _report(
        f"PASS pisano correctness: {PISANO_LIMIT} moduli, "
        f"{verified} sweep chains verified ({time.time() - start:.1f}s)"
    )


def test_acceptance_08_determinism(tmp_path):
    """Full sweep is byte-identical with --jobs 1 and --jobs 8."""
    from fibtower.cli import main

    start = time.time()
    args = ["sweep", "--k", "2..6", "--n", "3..25", "--m", "1..3"]
    paths = []
    for jobs, name in ((1, "serial"), (8, "parallel")):
        for fmt in ("json", "csv"):
            out = tmp_path / f"{name}.{fmt}"
            code = main(args + ["--jobs", str(jobs), "--format", fmt, "--out", str(out)])
            assert code == 0
            paths.append(out)
    assert paths[0].read_bytes() == paths[2].read_bytes()
    assert paths[1].read_bytes() == paths[3].read_bytes()
    serial = run_sweep((2, 6), (3, 25), (1, 3), jobs=1)
    parallel = run_sweep((2, 6), (3, 25), (1, 3), jobs=8)
    assert render_json(serial) == render_json(parallel)
    assert render_csv(serial) == render_csv(parallel)
    _report(f"PASS determinism: jobs 1 vs 8 byte-identical ({time.time() - start:.1f}s)")
