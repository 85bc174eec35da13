"""The four benchmark workloads: their inputs, one timed pass, and its check.

Every workload is a closed loop driven from a single process at jobs=1:
the next item is submitted only after the previous one returned. A pass
calls the program through module attributes (``report.run_sweep``, not a
name bound at import), so wrappers the tracer installs are seen.

The seed only permutes the order in which independent items are submitted
(moduli, oracle specs, frontier probes); seed 0 keeps the natural order.
Results do not depend on that order and are checked against the same
references. ``run_sweep`` takes ranges and fixes its own order, so the seed
does not change ``sweep_wide``.
"""

from __future__ import annotations

import hashlib
import random
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable

import meter
from fibtower import modfib, oracle, report, tower
from fibtower.errors import BudgetExceeded, CapExceeded, FactorBudgetExceeded

# Outcomes report.run_sweep also records as budget_exceeded.
_BUDGET_ERRORS = (BudgetExceeded, FactorBudgetExceeded, CapExceeded)

# Inputs per scale. "full" is the measured workload; "smoke" is a small
# slice of each, used by the benchmark's own tests.
SIZES = {
    "full": {
        "sweep_wide": ((2, 8), (26, 90), (1, 3)),
        "frontier": tuple(range(100, 1001, 100)),
        "pisano_scan": 100_000,
        "oracle_grid": ((1, 25), (1, 6), (1, 3)),
    },
    "smoke": {
        "sweep_wide": ((2, 3), (26, 28), (1, 2)),
        "frontier": (100, 200, 500),
        "pisano_scan": 3000,
        "oracle_grid": ((1, 10), (1, 3), (1, 2)),
    },
}

FRONTIER_K = 3
FRONTIER_M = 1


@dataclass
class PassResult:
    """One pass of a workload: its timing, its outcome counts and its output.

    Times are perf_counter_ns instants: the pass runs from ``t0_ns`` to
    ``t1_ns`` and item i from ``spans[2 * i]`` to ``spans[2 * i + 1]``.
    ``output`` is what the reference records: a digest string, or for the
    frontier a mapping from n to (status, unit residue).
    """

    t0_ns: int
    t1_ns: int
    attempted: int
    ok: int
    failed: int
    spans: array
    output: object
    extra: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return (self.t1_ns - self.t0_ns) / 1e9


def _order(items: list, seed: int) -> list:
    if seed:
        random.Random(seed).shuffle(items)
    return items


def sha256_lines(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _int_digest(value: int) -> str:
    # Hash the bytes: str() of a tower value can exceed CPython's
    # int-to-str digit limit.
    return hashlib.sha256(value.to_bytes((value.bit_length() + 7) // 8, "big")).hexdigest()


def sweep_wide(size, seed: int) -> PassResult:
    """run_sweep over the wide grid, then render_json, as `fibtower sweep` does.

    An item is a row: the call run_sweep makes to ``report.analyze`` is timed
    by a wrapper installed for the pass (over the tracer's, when tracing).
    """
    k_range, n_range, m_range = size
    spans = array("q")
    clock = time.perf_counter_ns
    analyze = report.analyze

    def timed(spec):
        spans.append(clock())
        try:
            return analyze(spec)
        finally:
            spans.append(clock())

    report.analyze = timed
    try:
        t0 = clock()
        rep = report.run_sweep(k_range, n_range, m_range)
        text = report.render_json(rep)
        t1 = clock()
    finally:
        report.analyze = analyze
    ok = sum(row.status == report.STATUS_OK for row in rep.rows)
    mismatched = sum(row.status == report.STATUS_MISMATCH for row in rep.rows)
    return PassResult(
        t0_ns=t0,
        t1_ns=t1,
        attempted=len(rep.rows),
        ok=ok,
        failed=mismatched,
        spans=spans,
        output=hashlib.sha256(text.encode()).hexdigest(),
    )


def frontier(size, seed: int) -> PassResult:
    """analyze(k=3, n, m=1) for each probed n; budget refusals are outcomes."""
    spans = array("q")
    outcomes: dict[str, list] = {}
    failed = 0
    clock = time.perf_counter_ns
    t0 = clock()
    for n in _order(list(size), seed):
        spec = tower.TowerSpec(k=FRONTIER_K, n=n, m=FRONTIER_M)
        spans.append(clock())
        try:
            rep = tower.analyze(spec)
        except _BUDGET_ERRORS:
            outcome = [report.STATUS_BUDGET, None]
        else:
            good = rep.divisibility_ok and rep.match
            failed += not good
            status = report.STATUS_OK if good else report.STATUS_MISMATCH
            outcome = [status, None if rep.unit_residue is None else str(rep.unit_residue)]
        spans.append(clock())
        outcomes[str(n)] = outcome
    t1 = clock()
    ok_ns = [int(n) for n, (status, _) in outcomes.items() if status == report.STATUS_OK]
    return PassResult(
        t0_ns=t0,
        t1_ns=t1,
        attempted=len(outcomes),
        ok=len(ok_ns),
        failed=failed,
        spans=spans,
        output=dict(sorted(outcomes.items(), key=lambda kv: int(kv[0]))),
        extra={"frontier_n": max(ok_ns, default=0)},
    )


def pisano_scan(size, seed: int) -> PassResult:
    """pisano_period(factorize(m)) for m = 1..size, one modulus at a time."""
    periods = [0] * size
    spans = array("q")  # compact: 200 000 instants stay out of the measured RSS
    clock = time.perf_counter_ns
    t0 = clock()
    for m in _order(list(range(1, size + 1)), seed):
        spans.append(clock())
        periods[m - 1] = modfib.pisano_period(modfib.factorize(m)).value
        spans.append(clock())
    t1 = clock()
    return PassResult(
        t0_ns=t0,
        t1_ns=t1,
        attempted=size,
        ok=size,
        failed=0,
        spans=spans,
        output=sha256_lines(map(str, periods)),
    )


def oracle_grid(size, seed: int) -> PassResult:
    """Screen the spec grid with oracle_feasible, then oracle_eval the feasible ones."""
    (n_lo, n_hi), (k_lo, k_hi), (m_lo, m_hi) = size
    specs = [
        tower.TowerSpec(k=k, n=n, m=m)
        for n in range(n_lo, n_hi + 1)
        for k in range(k_lo, k_hi + 1)
        for m in range(m_lo, m_hi + 1)
    ]
    spans = array("q")
    results = []
    clock = time.perf_counter_ns
    t0 = clock()
    feasible = [s for s in _order(specs, seed) if oracle.oracle_feasible(s)]
    for spec in feasible:
        spans.append(clock())
        results.append(oracle.oracle_eval(spec))
        spans.append(clock())
    t1 = clock()
    lines = sorted(
        (
            (r.spec.n, r.spec.k, r.spec.m),
            f"{r.spec.n},{r.spec.k},{r.spec.m},{r.valuation},{r.quotient_residue},"
            f"{r.unit_residue},{_int_digest(r.value)}",
        )
        for r in results
    )
    return PassResult(
        t0_ns=t0,
        t1_ns=t1,
        attempted=len(results),
        ok=len(results),
        failed=0,
        spans=spans,
        output=sha256_lines(line for _, line in lines),
    )


@dataclass(frozen=True)
class Workload:
    run: object
    # True when every pass must start in a fresh interpreter, because the
    # program's process-global caches would otherwise start warm.
    cold: bool
    # Traced functions this workload must reach (see tracer.TARGETS).
    exercises: tuple[str, ...]
    # Calibration kernel its untraced work is counted in (see meter.py).
    kernel: Callable[[], int] = meter.kernel


_CHAIN_PATH = (
    "tower.analyze",
    "tower.predicted_residue",
    "fibcore.fib",
    "modfib.factorize",
    "modfib.FactoredNatural",
    "modfib.is_prime",
    "modfib.build_chain",
    "modfib.pisano_period",
    "modfib.pisano_prime",
    "modfib.PisanoChain.verify",
    "modfib.fib_pair_mod",
    "modfib.fib_mod",
)

WORKLOADS = {
    "sweep_wide": Workload(
        sweep_wide, True, ("report.run_sweep", "report.render_json") + _CHAIN_PATH
    ),
    "frontier": Workload(frontier, True, _CHAIN_PATH),
    "pisano_scan": Workload(
        pisano_scan,
        True,
        (
            "modfib.factorize",
            "modfib.FactoredNatural",
            "modfib.is_prime",
            "modfib.pisano_period",
            "modfib.pisano_prime",
            "modfib.fib_pair_mod",
        ),
    ),
    "oracle_grid": Workload(
        oracle_grid,
        False,
        ("oracle.oracle_feasible", "oracle.oracle_eval", "fibcore.fib"),
        meter.big_kernel,
    ),
}


def check(name: str, result: PassResult, reference) -> int:
    """Number of items whose output disagrees with the reference.

    A frontier probe the reference records as over budget may come back
    ok, with a checked residue: that is the frontier moving, not an error.
    For the other workloads the reference is one digest of the whole
    output, so a mismatch fails every item of the pass.
    """
    if name != "frontier":
        return 0 if result.output == reference else result.attempted
    if result.output.keys() != reference.keys():
        return result.attempted
    wrong = 0
    for n, got in result.output.items():
        want = reference[n]
        moved = want[0] == report.STATUS_BUDGET and got[0] == report.STATUS_OK
        wrong += got != want and not moved
    return wrong
