"""Valuation and unit-residue analysis of iterated Fibonacci index towers.

A tower is the sequence that starts at F_n^m and repeatedly applies
x -> F_{n*x}; its k-th term is divisible by F_n^(k+m-1), and the quotient
mod F_n follows a five-way piecewise formula in the parities of k and the
divisibility of n by 3 and 4. The tower value itself is astronomically
large for k >= 3, so it is never computed here: this module holds the
spec, the case formula, analyze and the parity check. analyze takes the
unit from route 3 (fibtower.lift), which carries it up the tower mod F_n
and never factors F_n, and builds route 1's Pisano chain only for its
report; the parity check evaluates that chain
(fibtower.modfib.tower_residue) mod 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import FactorBudgetExceeded, FibTowerError
from .fibcore import fib
from .lift import lift_unit
from .modfib import build_chain, factorize_fib, tower_residue


@dataclass(frozen=True)
class TowerSpec:
    """Parameters of one tower: height k, Fibonacci index n, base exponent m."""

    k: int
    n: int
    m: int

    def __post_init__(self) -> None:
        if self.k < 1 or self.n < 1 or self.m < 1:
            raise ValueError("k, n, m must all be at least 1")


class CaseTag(Enum):
    """Which branch of the piecewise unit-residue formula applies."""

    UNIT_ONE = "UNIT_ONE"
    F_NMINUS1 = "F_NMINUS1"
    HALF_POW = "HALF_POW"
    SIGNED_HALF_POW = "SIGNED_HALF_POW"
    OUT_OF_RANGE = "OUT_OF_RANGE"


def branch_label(spec: TowerSpec) -> str | None:
    """Sub-branch of the piecewise formula (one per condition disjunct);
    None below k = 2 or n = 3."""
    k, n, m = spec.k, spec.n, spec.m
    if k < 2 or n < 3:
        return None
    k_even = k % 2 == 0
    if n % 3:
        if k_even:
            return "UNIT_ONE/k_even"
        return "UNIT_ONE/k_odd_4ndivn" if n % 4 else "F_NMINUS1/k_odd_4divn"
    if k_even:
        return "HALF_POW/k_even_m1" if m == 1 else "SIGNED_HALF_POW/k_even_m_ge2"
    return "HALF_POW/k_odd_m_ge2" if m >= 2 else "SIGNED_HALF_POW/k_odd_m1"


def classify(spec: TowerSpec) -> CaseTag:
    """Case tag for a spec, the prefix of its branch label; OUT_OF_RANGE
    below k = 2 or n = 3."""
    label = branch_label(spec)
    if label is None:
        return CaseTag.OUT_OF_RANGE
    return CaseTag(label.partition("/")[0])


BRANCH_LABELS = (
    "UNIT_ONE/k_even",
    "UNIT_ONE/k_odd_4ndivn",
    "F_NMINUS1/k_odd_4divn",
    "HALF_POW/k_odd_m_ge2",
    "HALF_POW/k_even_m1",
    "SIGNED_HALF_POW/k_even_m_ge2",
    "SIGNED_HALF_POW/k_odd_m1",
)


def predicted_residue(spec: TowerSpec) -> tuple[CaseTag, int | None]:
    """Piecewise prediction for (tower / F_n^(k+m-1)) mod F_n.

    Exact small-integer arithmetic throughout: the halved term F_{n-3}/2 is
    an exact integer whenever 3 | n, and the sign for odd n is realized as
    modular negation.
    """
    tag = classify(spec)
    if tag is CaseTag.OUT_OF_RANGE:
        return tag, None
    k, n = spec.k, spec.n
    fn = fib(n)
    if tag is CaseTag.UNIT_ONE:
        return tag, 1 % fn
    if tag is CaseTag.F_NMINUS1:
        return tag, fib(n - 1) % fn
    fn3 = fib(n - 3)
    if fn3 % 2:
        raise FibTowerError(f"F_{n - 3} odd with 3 | {n}; divisibility broken")
    x = pow(fn3 // 2, k - 1, fn)
    if tag is CaseTag.SIGNED_HALF_POW and n % 2 and x:
        x = fn - x
    return tag, x


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the analysis states about one tower spec.

    unit_residue is (tower / F_n^(k+m-1)) mod F_n. divisibility_ok is
    always True: route 3 carries that unit itself and never forms the
    tower's residue mod F_n^(k+m), so analyze has no remainder to test.
    The divisibility is the tower's theorem, and what can fail is checked
    elsewhere: route 3's Cassini check, the lemma suite's
    truncated_expansion, the oracle suite (exact valuations and units),
    and the tests that compare route 3's unit with the chain route's
    residue mod F_n^(k+m). trivial_base marks n <= 2, where F_n = 1 divides everything and the
    residue formula does not apply.
    """

    spec: TowerSpec
    fn_value: int
    expected_valuation: int
    divisibility_ok: bool
    unit_residue: int | None
    exact: bool
    case: CaseTag
    predicted_residue: int | None
    match: bool
    trivial_base: bool
    chain_summary: tuple[tuple[int, int], ...]


def analyze(spec: TowerSpec) -> AnalysisReport:
    """Valuation/unit analysis of one tower spec against the predicted residue.

    Route 3 gives the quotient mod F_n without forming the tower or its
    residue mod any power of F_n, so divisibility_ok is True on every
    admitted spec (see AnalysisReport).

    n = 3 is the sharp edge of exact divisibility: F_0 = 0 makes the
    predicted residue 0, so matching with exact = False is the expected
    outcome there, not a failure.

    The unit comes from route 3 alone: lift_unit carries it up the tower
    mod F_n without factoring F_n, and raises LiftBudgetExceeded, which
    propagates, when the tower is charged past LIFT_BUDGET. Only an
    admitted spec factors F_n: factorize_fib factors it part by part, each
    primitive part and each chain period under its own
    DEFAULT_FACTOR_BUDGET, and build_chain certifies the chain for
    F_n^(k+m), which fills the report's chain and nothing else. When that
    raises FactorBudgetExceeded, naming the first refused part F_d, the
    chain is empty. A refused part is factored once per process: a
    multiple of d is refused without factoring it again.
    """
    k, n, m = spec.k, spec.n, spec.m
    fn = fib(n)
    case, predicted = predicted_residue(spec)
    expected_valuation = k + m - 1
    trivial = fn == 1
    if trivial:
        unit, chain_summary = 0, ()
    else:
        unit = lift_unit(spec)
        try:
            moduli = build_chain(k, factorize_fib(n).power(k + m))
        except FactorBudgetExceeded:
            chain_summary = ()
        else:
            chain_summary = tuple(zip(moduli[1:], moduli))
    return AnalysisReport(
        spec=spec,
        fn_value=fn,
        expected_valuation=expected_valuation,
        divisibility_ok=True,
        unit_residue=unit,
        exact=bool(unit),
        case=case,
        predicted_residue=predicted,
        match=predicted is None or unit == predicted,
        trivial_base=trivial,
        chain_summary=chain_summary,
    )


def tower_parity_check(spec: TowerSpec) -> tuple[bool, bool, bool]:
    """Parity and mod-8 facts about the tower value r, from r mod 8.

    Returns the truth of: (r even iff 3|n or 4|n); (n coprime to 6 implies
    r == 1 mod 4); (3|n implies r == 0 mod 8). The conditional clauses are
    vacuously true when their hypotheses fail. Requires k >= 2.
    """
    if spec.k < 2:
        raise ValueError("parity facts apply to towers of height at least 2")
    n = spec.n
    r8 = tower_residue(spec, 8)
    even_iff = (r8 % 2 == 0) == (n % 3 == 0 or n % 4 == 0)
    one_mod4 = r8 % 4 == 1 if (n % 2 and n % 3) else True
    zero_mod8 = r8 == 0 if n % 3 == 0 else True
    return even_iff, one_mod4, zero_mod8
