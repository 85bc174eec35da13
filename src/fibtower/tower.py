"""Valuation and unit-residue analysis of iterated Fibonacci index towers.

A tower is the sequence that starts at F_n^m and repeatedly applies
x -> F_{n*x}; its k-th term is divisible by F_n^(k+m-1), and the quotient
mod F_n follows a five-way piecewise formula in the parities of k and the
divisibility of n by 3 and 4. The tower value itself is astronomically
large for k >= 3, so it is never computed here: this module holds the
spec, the case formula, analyze and the parity check. analyze prices
each spec against ANALYZE_BUDGET, takes the unit from route 3
(fibtower.lift), which carries it up the tower mod F_n and never factors
F_n, and builds route 1's Pisano chain only for its report; the parity
check evaluates that chain (fibtower.modfib.tower_residue) mod 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import BudgetExceeded, FactorBudgetExceeded, FibTowerError
from .fibcore import fib
from .lift import lift_unit
from .modfib import _product_cost, build_chain, factorize_fib, tower_residue

# Budget units one analyze may take, in modfib._product_cost units, as rho's
# budget is counted. A spec (k, n, m) is priced k + 1 products mod
# F_n^(k+m), the top of the report's chain: the chain and its rendering
# handle k moduli of at most that size, while route 3's k - 1 products and
# the prediction's pow are taken mod F_n alone. The value sits just above
# the price of (2, 208414, 1), 2 156 226, the highest among the towers of
# height k >= 2 that the earlier per-level lift charge admitted, so every
# one of them is still admitted.
ANALYZE_BUDGET = 2_200_000


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
    """What analyze finds for one tower spec, and what follows from it.

    Six values are stored; unit_residue is (tower / F_n^(k+m-1)) mod F_n,
    0 when F_n = 1. The five properties below are derived from them, so a
    report cannot contradict itself.
    """

    spec: TowerSpec
    fn_value: int
    unit_residue: int
    case: CaseTag
    predicted_residue: int | None
    chain_summary: tuple[tuple[int, int], ...]

    @property
    def expected_valuation(self) -> int:
        """k + m - 1, the power of F_n that the theorem says divides the tower."""
        return self.spec.k + self.spec.m - 1

    @property
    def divisibility_ok(self) -> bool:
        """Always True: the theorem's constant, kept in the report schema so
        that report bytes stay as they were.

        Route 3 carries the unit and never forms the tower's residue mod
        F_n^(k+m), so analyze has no remainder to test. The checks that can
        fail are elsewhere: route 3's Cassini check, the lemma suite's
        truncated_expansion, the oracle suite's exact valuations and units,
        and the tests that compare route 3's unit with the chain route's
        residue mod F_n^(k+m).
        """
        return True

    @property
    def exact(self) -> bool:
        """The unit is nonzero: F_n^(k+m) does not divide the tower."""
        return bool(self.unit_residue)

    @property
    def match(self) -> bool:
        """The unit is the predicted residue, or no prediction applies."""
        return self.predicted_residue is None or self.unit_residue == self.predicted_residue

    @property
    def trivial_base(self) -> bool:
        """F_n = 1 (n <= 2): it divides everything, and no formula applies."""
        return self.fn_value == 1


def analyze(spec: TowerSpec) -> AnalysisReport:
    """Valuation/unit analysis of one tower spec against the predicted residue.

    It passes the six values it computes; AnalysisReport derives the rest.
    n = 3 is the sharp edge of exact divisibility: F_0 = 0 makes the
    predicted residue 0, so matching with exact = False is the expected
    outcome there, not a failure.

    After fib(n), and before any other arithmetic, a spec with F_n > 1 is
    priced (k + 1) * _product_cost((k + m) * bits(F_n)) and refused with
    BudgetExceeded, naming the price, when that passes ANALYZE_BUDGET.
    The unit comes from route 3 alone: lift_unit carries it up the tower
    mod F_n without factoring F_n. factorize_fib factors F_n part by part,
    each primitive part and each chain period under its own
    DEFAULT_FACTOR_BUDGET, and build_chain certifies the chain for
    F_n^(k+m), which fills the report's chain and nothing else. When that
    raises FactorBudgetExceeded, naming the first refused part F_d, the
    chain is empty. A refused part is factored once per process: a
    multiple of d is refused without factoring it again.
    """
    k, n, m = spec.k, spec.n, spec.m
    fn = fib(n)
    if fn > 1:
        top_bits = (k + m) * fn.bit_length()
        price = (k + 1) * _product_cost(top_bits)
        if price > ANALYZE_BUDGET:
            raise BudgetExceeded(
                f"analysis budget {ANALYZE_BUDGET} exceeded: {spec} is priced "
                f"{price} units, {k + 1} products mod F_{n}^{k + m} of up to {top_bits} bits"
            )
    case, predicted = predicted_residue(spec)
    if fn == 1:
        unit, chain_summary = 0, ()
    else:
        unit = lift_unit(spec)
        try:
            moduli = build_chain(k, factorize_fib(n).power(k + m))
        except FactorBudgetExceeded:
            chain_summary = ()
        else:
            chain_summary = tuple(zip(moduli[1:], moduli))
    return AnalysisReport(spec, fn, unit, case, predicted, chain_summary)


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
