"""Grid sweeps over tower specs and machine-readable reports.

Reports are byte-deterministic for a fixed tool version and seed: rows are
ordered by (n, k, m) regardless of how many workers evaluated them, JSON
keys are sorted, and every integer is serialized as a decimal string since
the values routinely exceed 64-bit ranges.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Decimal, Inexact, localcontext
from itertools import product
from json.encoder import encode_basestring_ascii

from . import __version__, modfib
from .errors import BudgetExceeded
from .tower import AnalysisReport, TowerSpec, analyze, branch_label, classify

STATUS_OK = "ok"
STATUS_MISMATCH = "mismatch"
STATUS_BUDGET = "budget_exceeded"


def parse_range(text: str) -> tuple[int, int]:
    """Parse 'A..B' (or a bare 'A') into an inclusive range."""
    lo, sep, hi = text.partition("..")
    try:
        low = int(lo)
        high = int(hi) if sep else low
    except ValueError:
        raise ValueError(f"bad range {text!r}; expected A..B") from None
    if low < 1 or high < low:
        raise ValueError(f"empty or invalid range {text!r}")
    return low, high

CSV_COLUMNS = (
    "n",
    "k",
    "m",
    "fn",
    "expected_valuation",
    "divisibility_ok",
    "unit_residue",
    "exact",
    "case",
    "predicted_residue",
    "match",
    "status",
)


@dataclass(frozen=True)
class SweepRow:
    """One grid point: its spec and its analysis, None when a budget refused it."""

    spec: TowerSpec
    report: AnalysisReport | None

    @property
    def status(self) -> str:
        """budget_exceeded without an analysis; else ok exactly when the
        analysis matches its prediction."""
        if self.report is None:
            return STATUS_BUDGET
        return STATUS_OK if self.report.match else STATUS_MISMATCH


@dataclass(frozen=True)
class SweepReport:
    tool_version: str
    seed: int
    k_range: tuple[int, int]
    n_range: tuple[int, int]
    m_range: tuple[int, int]
    rows: tuple[SweepRow, ...]

    def summary(self) -> dict[str, dict[str, int]]:
        by_status: dict[str, int] = {}
        by_case: dict[str, int] = {}
        by_branch: dict[str, int] = {}
        for row in self.rows:
            by_status[row.status] = by_status.get(row.status, 0) + 1
            if row.report is not None:
                tag = row.report.case.value
                by_case[tag] = by_case.get(tag, 0) + 1
                label = branch_label(row.spec)
                if label is not None:
                    by_branch[label] = by_branch.get(label, 0) + 1
        return {"status": by_status, "case": by_case, "branch": by_branch}


def _evaluate_point(point: tuple[int, int, int]) -> SweepRow:
    n, k, m = point
    spec = TowerSpec(k=k, n=n, m=m)
    try:
        return SweepRow(spec, analyze(spec))
    except BudgetExceeded:
        return SweepRow(spec, None)


def run_sweep(
    k_range: tuple[int, int],
    n_range: tuple[int, int],
    m_range: tuple[int, int],
    jobs: int = 1,
) -> SweepReport:
    """Analyze every grid point; rows come back in (n, k, m) order.

    With jobs > 1 the points are mapped over a process pool of at most
    jobs, point-count and CPU-count workers; map order is preserved, so the
    report is identical to a serial run.
    """
    for lo, hi in (k_range, n_range, m_range):
        if lo > hi or lo < 1:
            raise ValueError("ranges must be nonempty and start at 1 or above")
    points = list(
        product(
            range(n_range[0], n_range[1] + 1),
            range(k_range[0], k_range[1] + 1),
            range(m_range[0], m_range[1] + 1),
        )
    )
    # a fork-started pool forks all its workers at the first submit
    workers = min(jobs, len(points), os.cpu_count() or 1)
    if workers > 1:
        # imported here, so that importing fibtower loads neither
        # concurrent.futures nor multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(points) // (workers * 4))
            rows = tuple(pool.map(_evaluate_point, points, chunksize=chunk))
    else:
        rows = tuple(_evaluate_point(p) for p in points)
    return SweepReport(
        tool_version=__version__,
        seed=modfib.DEFAULT_FACTOR_SEED,
        k_range=k_range,
        n_range=n_range,
        m_range=m_range,
        rows=rows,
    )


# ------------------------------ serialization ------------------------------


# A JSON report is laid out as json.dumps(payload, indent=2, sort_keys=True)
# lays it out, byte for byte, but each row is made by json's C encoder (see
# render_json). Every int is written as a decimal string by _dec: str() below
# 2000 bits, Decimal above, whose int<->str conversions are exempt from
# sys.get_int_max_str_digits(); that limit by default refuses ints of more
# than 4300 digits, and chain moduli such as F_90^302 have thousands.

# Ints up to this many bits convert by Decimal(int) directly; above it,
# splitting stops gaining.
_DEC_SPLIT_BITS = 8192


def int_to_decimal(value: int) -> Decimal:
    """Decimal(value) for an int value >= 0, in subquadratic time.

    Decimal(int) takes time quadratic in the length of the int: on
    CPython 3.11, about 20 s for the million digits of F_5000001. This
    splits value on bits and rebuilds it with exact Decimal sums and
    products, which libmpdec multiplies by number-theoretic transform; it
    is the divide and conquer of CPython 3.12's _pylong.int_to_decimal,
    which 3.10 and 3.11 lack.
    """
    if value.bit_length() <= _DEC_SPLIT_BITS:
        return Decimal(value)
    powers: dict[int, Decimal] = {}

    def pow2(w: int) -> Decimal:
        if w not in powers:
            half = w >> 1
            powers[w] = (
                Decimal(1 << w) if w <= _DEC_SPLIT_BITS else pow2(half) * pow2(w - half)
            )
        return powers[w]

    def join(v: int, w: int) -> Decimal:
        """Decimal(v) for 0 <= v < 2^w."""
        if w <= _DEC_SPLIT_BITS:
            return Decimal(v)
        half = w >> 1
        hi = v >> half
        return join(v - (hi << half), half) + join(hi, w - half) * pow2(half)

    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = MAX_PREC, MAX_EMAX, MIN_EMIN
        ctx.traps[Inexact] = True  # every step is exact, or this raises
        return join(value, value.bit_length())


# Digit strings up to this long convert by int() directly, under the
# default 4300-digit limit of sys.get_int_max_str_digits().
_INT_PARSE_DIGITS = 4000


def decimal_to_int(text: str) -> int:
    """int(text) for a string of decimal digits of any length, in
    subquadratic time; the inverse of int_to_decimal.

    int(Decimal(text)) is exempt from the int<->str digit limit but takes
    time quadratic in the length of text on CPython 3.11 (about 3 s for
    300 000 digits). This splits text in halves, down to pieces of at most
    _INT_PARSE_DIGITS digits for int(), and joins each pair of halves with
    one product by a power of ten, which CPython multiplies by Karatsuba.
    The caller checks that text holds decimal digits only.
    """
    powers: dict[int, int] = {}

    def pow10(w: int) -> int:
        if w not in powers:
            half = w >> 1
            powers[w] = (
                10**w if w <= _INT_PARSE_DIGITS else pow10(half) * pow10(w - half)
            )
        return powers[w]

    def join(lo: int, hi: int) -> int:
        """int(text[lo:hi])."""
        if hi - lo <= _INT_PARSE_DIGITS:
            return int(text[lo:hi])
        mid = (lo + hi) >> 1
        return join(lo, mid) * pow10(hi - mid) + join(mid, hi)

    return join(0, len(text))


# str() of an int of at most this many bits (603 digits) stays below 640
# digits, the least limit sys.set_int_max_str_digits() accepts, so no setting
# makes it raise; on the small ints of a row it is 3x faster than
# str(Decimal(int)).
_STR_BITS = 2000


def _dec(value: int) -> str:
    """Decimal string of a nonnegative int of any length."""
    if value.bit_length() <= _STR_BITS:
        return str(value)
    return str(int_to_decimal(value))


def _parse_dec(text: str) -> int:
    """Inverse of _dec; rejects anything but a string of decimal digits."""
    if not (isinstance(text, str) and text.isdecimal()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return decimal_to_int(text)


def _opt(value: int | None) -> str | None:
    return None if value is None else _dec(value)


def _parse_opt(text: str | None) -> int | None:
    return None if text is None else _parse_dec(text)


def _chain(chain_summary: tuple[tuple[int, int], ...]) -> list[dict[str, str]]:
    return [{"modulus": _dec(mod), "period": _dec(per)} for mod, per in chain_summary]


def _parse_chain(levels: list[dict[str, str]]) -> tuple[tuple[int, int], ...]:
    return tuple((_parse_dec(lvl["modulus"]), _parse_dec(lvl["period"])) for lvl in levels)


# A row's analysis, one JSON key per AnalysisReport field or property:
# key -> (attribute, encode). A refused row holds None under every key.
# cli._format_analysis prints the keys in this order.
_ANALYSIS_KEYS = {
    "fn": ("fn_value", _dec),
    "expected_valuation": ("expected_valuation", _dec),
    "divisibility_ok": ("divisibility_ok", bool),
    "unit_residue": ("unit_residue", _dec),
    "exact": ("exact", bool),
    "case": ("case", lambda case: case.value),
    "predicted_residue": ("predicted_residue", _opt),
    "match": ("match", bool),
    "trivial_base": ("trivial_base", bool),
    "chain": ("chain_summary", _chain),
}
_ROW_KEYS = {"n", "k", "m", "status", *_ANALYSIS_KEYS}


def _row_dict(row: SweepRow) -> dict:
    out: dict = {
        "n": _dec(row.spec.n),
        "k": _dec(row.spec.k),
        "m": _dec(row.spec.m),
        "status": row.status,
    }
    rep = row.report
    for key, (attribute, encode) in _ANALYSIS_KEYS.items():
        out[key] = None if rep is None else encode(getattr(rep, attribute))
    return out


def analysis_to_dict(report: AnalysisReport) -> dict:
    """JSON-ready dict for a single analysis (decimal-string integers)."""
    return _row_dict(SweepRow(report.spec, report))


def _summary_dict(report: SweepReport) -> dict:
    return {
        group: {key: _dec(count) for key, count in counts.items()}
        for group, counts in report.summary().items()
    }


# CPython 3.11 and older run json.dumps(indent=2) in pure Python, whatever
# the payload. A row is a flat dict but for its chain, so the C encoder lays it
# out (indent None, its item separator putting each key on a line of its
# own at the row's depth), and a non-empty chain, laid out at its own depth,
# is spliced in where a NUL placeholder was encoded: no field holds a NUL.
# The rows are spliced into the small outer payload the same way.
_PLACEHOLDER = "\0"
_PLACEHOLDER_JSON = json.dumps(_PLACEHOLDER)
_ROW_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))


def _chain_json(levels: list[dict[str, str]]) -> str:
    """A non-empty chain as json.dumps(indent=2, sort_keys=True) lays it out
    under a row's key; its levels hold the keys _chain writes, in sorted order."""
    return (
        "["
        + ",".join(
            '\n        {\n          "modulus": '
            + encode_basestring_ascii(level["modulus"])
            + ',\n          "period": '
            + encode_basestring_ascii(level["period"])
            + "\n        }"
            for level in levels
        )
        + "\n      ]"
    )


def _row_json(row: SweepRow) -> str:
    d = _row_dict(row)
    chain = d["chain"]
    if chain:
        d["chain"] = _PLACEHOLDER
    body = _ROW_ENCODER.encode(d)
    if chain:
        body = body.replace(_PLACEHOLDER_JSON, _chain_json(chain), 1)
    return "{\n      " + body[1:-1] + "\n    }"


def render_json(report: SweepReport) -> str:
    """The report as json.dumps(payload, indent=2, sort_keys=True) + "\\n"
    gives it, byte for byte; every row is laid out by json's C encoder."""
    payload = {
        "tool_version": report.tool_version,
        "seed": _dec(report.seed),
        "grid": {
            "k": [_dec(report.k_range[0]), _dec(report.k_range[1])],
            "n": [_dec(report.n_range[0]), _dec(report.n_range[1])],
            "m": [_dec(report.m_range[0]), _dec(report.m_range[1])],
        },
        "rows": _PLACEHOLDER,
        "summary": _summary_dict(report),
    }
    rows = "[]"
    if report.rows:
        rows = "[\n    " + ",\n    ".join(map(_row_json, report.rows)) + "\n  ]"
    text = json.dumps(payload, indent=2, sort_keys=True)
    return text.replace(_PLACEHOLDER_JSON, rows, 1) + "\n"


def _parse_row(obj: dict) -> SweepRow:
    """Inverse of _row_dict.

    Decodes the spec and the values analyze computes, and takes the case
    from classify. Every other key (status and the report's properties) is
    derived, so the row is refused unless _row_dict gives back the stored
    dict exactly: the same keys, and under each the same JSON value and type.
    """
    if obj.keys() != _ROW_KEYS:
        key = min(obj.keys() ^ _ROW_KEYS)
        raise ValueError(f"row {'has the extra' if key in obj else 'lacks the'} key {key!r}")
    spec = TowerSpec(k=_parse_dec(obj["k"]), n=_parse_dec(obj["n"]), m=_parse_dec(obj["m"]))
    report = None
    if obj["fn"] is not None:
        report = AnalysisReport(
            spec,
            _parse_dec(obj["fn"]),
            _parse_dec(obj["unit_residue"]),
            classify(spec),
            _parse_opt(obj["predicted_residue"]),
            _parse_chain(obj["chain"]),
        )
    row = SweepRow(spec, report)
    for key, value in sorted(_row_dict(row).items()):
        # type-strict: JSON 1 is not true
        if type(obj[key]) is not type(value) or obj[key] != value:
            raise ValueError(f"row {spec} stores {key} as {obj[key]!r}, which reads {value!r}")
    return row


def parse_json(text: str) -> SweepReport:
    """Inverse of render_json; validates the stored summary against the rows."""
    payload = json.loads(text)
    grid = payload["grid"]
    report = SweepReport(
        tool_version=payload["tool_version"],
        seed=_parse_dec(payload["seed"]),
        k_range=(_parse_dec(grid["k"][0]), _parse_dec(grid["k"][1])),
        n_range=(_parse_dec(grid["n"][0]), _parse_dec(grid["n"][1])),
        m_range=(_parse_dec(grid["m"][0]), _parse_dec(grid["m"][1])),
        rows=tuple(_parse_row(r) for r in payload["rows"]),
    )
    if _summary_dict(report) != payload["summary"]:
        raise ValueError("summary does not match row tallies")
    return report


def render_csv(report: SweepReport) -> str:
    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)

    lines = [",".join(CSV_COLUMNS)]
    for row in report.rows:
        d = _row_dict(row)
        lines.append(",".join(cell(d[col]) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"
