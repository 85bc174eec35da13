"""Hypothesis property tests: the chain route against the exact oracle,
against itself and against a full-modulus evaluation of its levels, the
modular Fibonacci kernel, factorization, and the command line's exit
codes."""

import contextlib
import io
from math import gcd, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fibtower import (
    BudgetExceeded,
    TowerSpec,
    build_chain,
    factorize,
    factorize_fib,
    fib,
    fib_mod,
    fib_pair_mod,
    is_prime,
    oracle_eval,
    oracle_feasible,
    tower_residue,
)
from fibtower import modfib
from fibtower.cli import main

# Small enough that every feasible oracle value stays cheap to materialize.
ORACLE_LIMIT = 10_000


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    k=st.integers(1, 3),
    n=st.integers(1, 12),
    m=st.integers(1, 2),
    probe=st.integers(2, 10_000),
)
def test_tower_residue_matches_oracle_at_random_probes(k, n, m, probe):
    spec = TowerSpec(k, n, m)
    assume(oracle_feasible(spec, ORACLE_LIMIT))
    assert tower_residue(spec, probe) == oracle_eval(spec, ORACLE_LIMIT).value % probe


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    k=st.integers(1, 4),
    n=st.integers(1, 15),
    m=st.integers(1, 2),
    limit=st.integers(1, 10**5),
)
def test_oracle_feasible_iff_eval_stays_in_budget(k, n, m, limit):
    spec = TowerSpec(k, n, m)
    try:
        oracle_eval(spec, limit)
    except BudgetExceeded:
        assert not oracle_feasible(spec, limit), (spec, limit)
    else:
        assert oracle_feasible(spec, limit), (spec, limit)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    k=st.integers(1, 5),
    n=st.integers(1, 40),
    m=st.integers(1, 3),
    a=st.integers(1, 3_000),
    b=st.integers(1, 3_000),
)
def test_tower_residue_is_crt_consistent(k, n, m, a, b):
    assume(gcd(a, b) == 1)
    spec = TowerSpec(k, n, m)
    r = tower_residue(spec, a * b)
    assert r % a == tower_residue(spec, a)
    assert r % b == tower_residue(spec, b)


def full_modulus_residue(spec, target):
    """The chain evaluated one Fibonacci number per level mod the whole
    level modulus, at the index reduced mod the whole modulus below."""
    moduli = build_chain(spec.k, target)
    r = pow(fib(spec.n), spec.m, moduli[1])
    for below, modulus in zip(moduli[1:], moduli[2:]):
        r = fib_mod(spec.n * r % below, modulus)
    return r


# analyze's target F_n^(k+m): at m = 12 and n near 90 the levels pass
# 1000 bits, and the parts of the top level are p^(a(k+m)).
@settings(max_examples=100, derandomize=True, deadline=None)
@given(k=st.integers(1, 8), n=st.integers(1, 90), m=st.integers(1, 12))
@example(k=8, n=90, m=12)
def test_split_chain_evaluation_matches_full_modulus_on_powers_of_fn(k, n, m):
    spec = TowerSpec(k, n, m)
    target = factorize_fib(n).power(k + m)
    assert tower_residue(spec, target) == full_modulus_residue(spec, target)


# Products of up to two of 2^a, 5^b and a prime power p^e (none gives 1),
# times 1 or a prime of 21 or 27 digits (10^20 + 39 and 2^89 - 1); two
# such primes in one modulus would be beyond factorize's budget.
RESIDUE_MODULI = st.tuples(
    st.lists(
        st.one_of(
            st.integers(1, 80).map(lambda a: 2**a),
            st.integers(1, 30).map(lambda b: 5**b),
            st.tuples(st.sampled_from([3, 7, 13, 89, 1597, 10007]), st.integers(1, 8))
            .map(lambda t: t[0] ** t[1]),
        ),
        max_size=2,
    ).map(prod),
    st.sampled_from([1, 10**20 + 39, 2**89 - 1]),
).map(prod)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(k=st.integers(1, 8), n=st.integers(1, 90), m=st.integers(1, 12), modulus=RESIDUE_MODULI)
@example(k=1, n=90, m=12, modulus=2**89 - 1)
@example(k=6, n=12, m=3, modulus=7**8)
def test_split_chain_evaluation_matches_full_modulus_on_tower_residue(k, n, m, modulus):
    spec = TowerSpec(k, n, m)
    target = factorize(modulus)
    assert tower_residue(spec, target) == full_modulus_residue(spec, target)


def test_all_ones_chain_has_residue_zero():
    # the chain of the modulus 1 has no prime-power parts at any level
    for k in range(1, 7):
        assert tower_residue(TowerSpec(k, 10, 2), 1) == 0


# Moduli up to about 2^2100: plain, with the factors 2, 5 and 25 that the
# kernel's exact division by 5 must survive, and powers F_n^j as in a chain.
MODULI = st.one_of(
    st.integers(1, 100),
    st.integers(1, 2**2100),
    st.tuples(st.sampled_from([2, 5, 10, 25, 50, 2**9 * 5**4]), st.integers(1, 2**2080))
    .map(prod),
    st.tuples(st.integers(3, 300), st.integers(1, 10)).map(lambda t: fib(t[0]) ** t[1]),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(i=st.integers(0, 30_000), m=MODULI)
def test_fib_pair_mod_matches_exact_fib(i, m):
    assert fib_pair_mod(i, m) == (fib(i) % m, fib(i + 1) % m)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(i=st.integers(0, 2**1500), j=st.integers(0, 2**1500), m=MODULI)
def test_fib_pair_mod_addition_law(i, j, m):
    # F_{i+j} = F_i F_{j+1} + F_{i+1} F_j - F_i F_j and
    # F_{i+j+1} = F_{i+1} F_{j+1} + F_i F_j
    a, b = fib_pair_mod(i, m)
    c, d = fib_pair_mod(j, m)
    assert fib_pair_mod(i + j, m) == ((a * d + b * c - a * c) % m, (b * d + a * c) % m)


# Products of up to four factors below 10^9: every prime left after trial
# division is below 10^9, so rho splits each composite well within budget.
@settings(max_examples=200, derandomize=True, deadline=None)
@given(parts=st.lists(st.integers(1, 10**9), min_size=1, max_size=4))
def test_factorize_round_trip(parts):
    x = prod(parts)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modfib, "DEFAULT_FACTOR_SEED", 1)
        fac = factorize(x)
        assert fac.value == x == prod(p**e for p, e in fac.factors)
        assert all(is_prime(p) for p, _ in fac.factors)
        patch.setattr(modfib, "DEFAULT_FACTOR_SEED", 2)
        assert factorize(x) == fac


# Argument text: small integers of either sign, empty and non-numeric
# strings, and arbitrary text of at most `chars` characters, which int()
# reads as at most that many digits. Every command below stays fast on
# these bounds.
def arg(high, chars):
    return st.one_of(
        st.integers(-3, high).map(str),
        st.sampled_from(["", "abc", "1.5", "0x10", "1e3", "-", "--", "..", " "]),
        st.text(max_size=chars),
    )


def grid_range():
    return st.one_of(
        st.tuples(st.integers(-1, 4), st.integers(-1, 4)).map(lambda r: f"{r[0]}..{r[1]}"),
        arg(4, 1),
    )


ARGV = st.one_of(
    st.tuples(st.just("fib"), arg(2_000, 3)),
    st.tuples(st.just("fib"), arg(2_000, 3), st.just("--max-index"), arg(2_000, 3)),
    st.tuples(st.just("fibmod"), arg(10**6, 3), arg(10**6, 3)),
    st.tuples(st.just("pisano"), arg(5_000, 3)),
    st.tuples(st.just("analyze"), arg(4, 1), arg(12, 1), arg(3, 1)),
    st.tuples(
        st.just("sweep"), st.just("--k"), grid_range(), st.just("--n"), grid_range(),
        st.just("--m"), grid_range(), st.just("--jobs"), st.sampled_from(["-1", "0", "1", "x"]),
    ),
    st.lists(st.text(max_size=4), max_size=3),
).map(list)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(argv=ARGV)
def test_cli_exit_codes_on_malformed_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    message = err.getvalue()
    # 3 only from an exact-index budget set on the command line itself
    assert code in (0, 2) or (code == 3 and "--max-index" in argv), (argv, code, message)
    if code:
        assert message
    assert "Traceback" not in message
    assert "_nonnegative" not in message
