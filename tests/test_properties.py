"""Hypothesis property tests: the chain route against the exact oracle."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fibtower import TowerSpec, oracle_eval, oracle_feasible, tower_residue

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
