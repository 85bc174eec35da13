"""Command-line front end.

Exit codes: 0 success, 1 mathematical mismatch (a would-be counterexample,
or an internal consistency check that failed), 2 usage error or output
that cannot be written, 3 resource budget exhausted.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

from . import __version__
from .errors import BudgetExceeded, FibTowerError
from .fibcore import fib
from .modfib import factorize, fib_mod, pisano_period, pisano_period_brute
from .oracle import oracle_budget
from .report import (
    _ANALYSIS_KEYS,
    STATUS_MISMATCH,
    analysis_to_dict,
    decimal_to_int,
    int_to_decimal,
    parse_range,
    render_csv,
    render_json,
    run_sweep,
)
from .tower import TowerSpec, analyze
from .verify import SUITES, oracle_suite, suites_for

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# pisano checks its factored period by brute force up to this modulus
CROSSCHECK_LIMIT = 100_000


def _integer(text: str, least: int, kind: str) -> int:
    """An integer argument of at least `least`, for argparse.

    Accepts what int() accepts, and decimal digit strings of any length:
    int() refuses more than 4300 digits, decimal_to_int does not.
    """
    try:
        value = int(text)
    except ValueError:
        digits = text.strip()
        value = decimal_to_int(digits) if digits.isascii() and digits.isdigit() else least - 1
    if value >= least:
        return value
    shown = repr(text) if len(text) <= 40 else f"{text[:20]!r}... ({len(text)} characters)"
    raise argparse.ArgumentTypeError(f"invalid {kind} integer value: {shown}")


def _nonnegative(text: str) -> int:
    """argparse type for integer arguments that may be 0."""
    return _integer(text, 0, "nonnegative")


def _positive(text: str) -> int:
    """argparse type for integer arguments of at least 1: 0 and negative
    values are usage errors."""
    return _integer(text, 1, "positive")


def _range(text: str) -> tuple[int, int]:
    """argparse type for the sweep's A..B arguments (report.parse_range)."""
    try:
        return parse_range(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _jobs(text: str) -> int:
    """argparse type for --jobs: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The parser; each subcommand sets `run`, the function that answers it."""
    parser = argparse.ArgumentParser(
        prog="fibtower",
        description="Exact valuation and unit-residue analysis of Fibonacci index towers.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fib = sub.add_parser("fib", help="exact Fibonacci number")
    p_fib.set_defaults(run=_cmd_fib)
    p_fib.add_argument("index", type=_nonnegative)
    p_fib.add_argument("--max-index", type=_nonnegative, default=None)

    p_fibmod = sub.add_parser("fibmod", help="Fibonacci number modulo m")
    p_fibmod.set_defaults(run=_cmd_fibmod)
    p_fibmod.add_argument("index", type=_nonnegative)
    p_fibmod.add_argument("modulus", type=_positive)

    p_pisano = sub.add_parser("pisano", help="Pisano period of a modulus")
    p_pisano.set_defaults(run=_cmd_pisano)
    p_pisano.add_argument("modulus", type=_positive)

    p_analyze = sub.add_parser("analyze", help="analyze one tower spec")
    p_analyze.set_defaults(run=_cmd_analyze)
    p_analyze.add_argument("k", type=_positive)
    p_analyze.add_argument("n", type=_positive)
    p_analyze.add_argument("m", type=_positive)
    p_analyze.add_argument("--json", action="store_true", dest="as_json")

    p_sweep = sub.add_parser("sweep", help="analyze a parameter grid")
    p_sweep.set_defaults(run=_cmd_sweep)
    p_sweep.add_argument("--k", type=_range, required=True, metavar="A..B")
    p_sweep.add_argument("--n", type=_range, required=True, metavar="A..B")
    p_sweep.add_argument("--m", type=_range, required=True, metavar="A..B")
    p_sweep.add_argument("--jobs", type=_jobs, default=1)
    p_sweep.add_argument("--out", type=Path, default=None)
    p_sweep.add_argument("--format", choices=("json", "csv"), default="json")

    p_verify = sub.add_parser("verify", help="run the property suites")
    p_verify.set_defaults(run=_cmd_verify)
    p_verify.add_argument("--suite", choices=tuple(SUITES), default="all")
    p_verify.add_argument("--max-index", type=_nonnegative, default=None)

    return parser


# The commands print integers through int_to_decimal: Decimal's str is
# exempt from sys.get_int_max_str_digits(), which by default refuses ints of
# more than 4300 digits (F_n for n >= 20578, residues mod a 5000-digit
# modulus), and int_to_decimal avoids Decimal(int)'s quadratic time.


def _cmd_fib(args) -> int:
    print(int_to_decimal(fib(args.index, max_index=args.max_index)))
    return EXIT_OK


def _cmd_fibmod(args) -> int:
    print(int_to_decimal(fib_mod(args.index, args.modulus)))
    return EXIT_OK


def _cmd_pisano(args) -> int:
    m = args.modulus
    period = pisano_period(factorize(m)).value
    if m <= CROSSCHECK_LIMIT and period != pisano_period_brute(m):
        print(f"factored/brute disagreement for modulus {m}", file=sys.stderr)
        return EXIT_MISMATCH
    print(int_to_decimal(period))
    return EXIT_OK


def _format_analysis(report) -> str:
    d = analysis_to_dict(report)
    order = ("k", "n", "m", *(key for key in _ANALYSIS_KEYS if key != "chain"), "status")
    lines = [f"{key:>20}  {d[key]}" for key in order]
    chain = " <- ".join(str(level["modulus"]) for level in d["chain"])
    if not chain:
        chain = "(trivial)" if report.trivial_base else "(none: answered by route 3)"
    lines.append(f"{'chain':>20}  {chain}")
    return "\n".join(lines)


def _cmd_analyze(args) -> int:
    report = analyze(TowerSpec(k=args.k, n=args.n, m=args.m))
    if args.as_json:
        print(json.dumps(analysis_to_dict(report), indent=2, sort_keys=True))
    else:
        print(_format_analysis(report))
    return EXIT_OK if report.match else EXIT_MISMATCH


def _cmd_sweep(args) -> int:
    if args.out is not None and not args.out.parent.is_dir():
        print(f"cannot write {args.out}: no directory {args.out.parent}", file=sys.stderr)
        return EXIT_USAGE
    report = run_sweep(args.k, args.n, args.m, jobs=args.jobs)
    text = render_csv(report) if args.format == "csv" else render_json(report)
    if args.out is not None:
        try:
            args.out.write_bytes(text.encode("utf-8"))
        except OSError as exc:
            print(f"cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    mismatch = any(row.status == STATUS_MISMATCH for row in report.rows)
    return EXIT_MISMATCH if mismatch else EXIT_OK


def _cmd_verify(args) -> int:
    results = suites_for(args.suite, args.max_index)
    failed = 0
    for res in results:
        if res.ok:
            print(f"PASS  {res.name}  ({res.cases} cases)")
        else:
            failed += 1
            print(f"FAIL  {res.name}  ({res.cases} cases)  {res.detail}")
    total = len(results)
    label, suites = SUITES[args.suite]
    print(f"{total - failed}/{total} {label} pass")
    if oracle_suite in suites:
        print(f"oracle index budget: {oracle_budget(args.max_index)}")
    return EXIT_OK if failed == 0 else EXIT_MISMATCH


def main(argv: list[str] | None = None) -> int:
    # stdout is held until the command ends, so that a failed write (a
    # closed pipe, a full disk) is told apart from the command's own errors
    with redirect_stdout(io.StringIO()) as out:
        code = _run(argv)
    try:
        sys.stdout.write(out.getvalue())
        sys.stdout.flush()
    except OSError as exc:
        print(f"cannot write standard output: {exc.strerror or exc}", file=sys.stderr)
        # the interpreter flushes stdout again at exit; send that to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    return code


def _run(argv: list[str] | None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FibTowerError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
