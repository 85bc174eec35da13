"""Named property suites over the identity, lemma, and oracle checkers.

Each suite returns one result per property family, with the first
counterexample recorded on failure. The CLI prints these; the test suite
asserts them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from math import gcd

from .errors import BudgetExceeded
from .fibcore import (
    addition_formula_check,
    cassini,
    fib,
    fib_multiple_expansion,
    gcd_identity_check,
    index_divisibility_check,
    square_congruence_check,
)
from .lemmas import (
    binomial_power_divisibility,
    divisor_power_witness,
    truncated_expansion_check,
)
from .lift import lift_unit
from .modfib import tower_residue
from .oracle import oracle_budget, oracle_eval, oracle_feasible
from .tower import TowerSpec, analyze, tower_parity_check

WITNESS_SAMPLE_SEED = 0x1F1B2


@dataclass(frozen=True)
class PropertyResult:
    name: str
    ok: bool
    cases: int
    detail: str = ""


def _run(name: str, pairs) -> PropertyResult:
    """pairs: iterable of (label, bool). Stops at the first failure."""
    count = 0
    for label, ok in pairs:
        count += 1
        if not ok:
            return PropertyResult(name, False, count, f"counterexample: {label}")
    return PropertyResult(name, True, count)


# ----------------------------- identity suite -----------------------------


def identity_suite() -> list[PropertyResult]:
    results = []
    results.append(
        _run(
            "gcd_identity",
            ((f"a={a} b={b}", gcd_identity_check(a, b)) for a in range(1, 41) for b in range(1, 41)),
        )
    )
    results.append(
        _run(
            "index_multiple_expansion",
            (
                (f"n={n} r={r}", fib_multiple_expansion(n, r) == fib(n * r))
                for n in range(1, 11)
                for r in range(1, 31)
            ),
        )
    )
    results.append(
        _run(
            "index_divisibility",
            (
                (f"a={a} b={b}", index_divisibility_check(a, b))
                for a in range(3, 31)
                for b in range(1, 201)
            ),
        )
    )
    results.append(
        _run(
            "cassini",
            ((f"n={n}", cassini(n) == (-1) ** n) for n in range(1, 51)),
        )
    )
    results.append(
        _run(
            "square_congruence",
            ((f"n={n}", square_congruence_check(n)) for n in range(1, 61)),
        )
    )
    results.append(
        _run(
            "addition_formula",
            (
                (f"a={a} b={b}", addition_formula_check(a, b))
                for a in range(1, 41)
                for b in range(1, 41)
            ),
        )
    )

    def period6_cases():
        mod4 = [fib(i) % 4 for i in range(205)]
        for a in range(201):
            for b in range(a % 6, 201, 6):
                yield f"a={a} b={b}", mod4[a] == mod4[b]
        for n in range(1, 201):
            if gcd(n, 6) == 1:
                yield f"pre6 n={n}", mod4[n] == 1

    results.append(_run("mod4_period6", period6_cases()))
    return results


# ------------------------------ lemma suite ------------------------------


def lemma_suite() -> list[PropertyResult]:
    results = []

    def hoggatt_cases():
        for n in range(2, 9):
            fn = fib(n)
            for s in range(1, 4):
                for r in range(1, 61):
                    if r % fn ** (s - 1) == 0:
                        yield f"n={n} s={s} r={r}", fib(n * r) % fn**s == 0

    results.append(_run("index_scaling_divisibility", hoggatt_cases()))

    def witness_cases():
        rng = random.Random(WITNESS_SAMPLE_SEED)
        produced = 0
        while produced < 500:
            a = rng.randrange(1, 51)
            j = rng.randrange(1, 65)
            s = rng.randrange(2, 13)
            # keep only instances where some exponent exists (c <= 6 since j <= 64)
            probe = a
            exists = False
            for _ in range(7):
                if probe % j == 0:
                    exists = True
                    break
                probe *= s
            if not exists:
                continue
            produced += 1
            w = divisor_power_witness(a, j, s)
            ok = (
                s % w.prime == 0
                and j % w.prime**w.exponent == 0
                and a * s**w.exponent % j == 0
                and (w.exponent == 0 or a * s ** (w.exponent - 1) % j != 0)
            )
            yield f"a={a} j={j} s={s}", ok

    results.append(_run("divisor_power_witness", witness_cases()))

    def binomial_cases():
        for s, k, l, b in product(range(1, 6), range(1, 4), range(1, 4), range(1, 7)):
            r = s**k * b
            yield f"s={s} k={k} l={l} r={r}", binomial_power_divisibility(s, k, l, r)

    results.append(_run("binomial_power_divisibility", binomial_cases()))

    def parity_cases():
        for n, k, m in product(range(1, 21), range(2, 6), range(1, 3)):
            facts = tower_parity_check(TowerSpec(k=k, n=n, m=m))
            yield f"k={k} n={n} m={m} facts={facts}", all(facts)

    results.append(_run("tower_parity_facts", parity_cases()))

    def truncation_cases():
        for n in range(3, 9):
            fn = fib(n)
            for k in range(1, 3):
                for b in range(1, 5):
                    r = fn**k * b
                    if n * r > 10**6:
                        continue
                    yield f"n={n} k={k} r={r}", truncated_expansion_check(n, r, k)

    results.append(_run("truncated_expansion", truncation_cases()))
    return results


# ------------------------------ oracle suite ------------------------------


def _feasible_grid_specs(limit: int):
    for n, k, m in product(range(1, 26), range(1, 7), range(1, 4)):
        spec = TowerSpec(k=k, n=n, m=m)
        if oracle_feasible(spec, limit):
            yield spec


def oracle_suite(max_index: int | None = None) -> list[PropertyResult]:
    """Exact results vs route 3 and the chain engine on every feasible grid spec.

    oracle_unit_agreement tests route 3 through analyze, which takes every
    unit from it, and lift_agreement calls lift_unit directly; the chain
    route's residue is checked by oracle_probe_agreement, whose probes
    include F_n^(k+m), the modulus whose residue holds the unit. Raises
    BudgetExceeded when the index budget admits no grid spec, so that no
    property passes on zero cases.
    """
    limit = oracle_budget(max_index)
    specs = list(_feasible_grid_specs(limit))
    if not specs:
        raise BudgetExceeded(f"oracle index budget {limit} admits no grid spec")
    exact = {spec: oracle_eval(spec, limit) for spec in specs}
    results = []

    def valuation_cases():
        for spec in specs:
            res = exact[spec]
            lead = spec.k + spec.m - 1
            ok = res.valuation is None or res.valuation >= lead
            if spec.n >= 4 and spec.k >= 2:
                ok = ok and res.valuation == lead
            if spec.n == 3:  # F_3 = 2: the 2-adic valuation (Lengyel 1995)
                ok = ok and res.valuation == spec.m + 2 * spec.k - 2
            yield f"{spec} valuation={res.valuation}", ok

    results.append(_run("oracle_valuation", valuation_cases()))

    def unit_cases():
        for spec in specs:
            res = exact[spec]
            ok = analyze(spec).unit_residue == res.quotient_residue
            yield f"{spec} unit={res.quotient_residue}", ok

    results.append(_run("oracle_unit_agreement", unit_cases()))

    def lift_cases():
        for spec in specs:
            res = exact[spec]
            yield f"{spec} unit={res.quotient_residue}", lift_unit(spec) == res.quotient_residue

    results.append(_run("lift_agreement", lift_cases()))

    def probe_cases():
        for spec in specs:
            res = exact[spec]
            fn = fib(spec.n)
            probes = [7, 8, 97]
            if fn > 1:
                probes.append(fn ** (spec.k + spec.m))
            for probe in probes:
                yield (
                    f"{spec} mod {probe}",
                    tower_residue(spec, probe) == res.value % probe,
                )

    results.append(_run("oracle_probe_agreement", probe_cases()))
    return results


# --suite name -> (the label of its summary line, the suites it runs in order)
SUITES = {
    "identities": ("identity families", (identity_suite,)),
    "lemmas": ("lemma properties", (lemma_suite,)),
    "oracle": ("oracle agreement properties", (oracle_suite,)),
    "all": ("properties", (identity_suite, lemma_suite, oracle_suite)),
}


def suites_for(name: str, max_index: int | None = None) -> list[PropertyResult]:
    """The results of SUITES[name]'s suites; max_index reaches the oracle suite."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return [
        res
        for suite in SUITES[name][1]
        for res in (oracle_suite(max_index) if suite is oracle_suite else suite())
    ]
