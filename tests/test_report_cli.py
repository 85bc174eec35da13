"""Sweep reports (JSON/CSV) and the command-line interface."""

import concurrent.futures
import dataclasses
import errno
import hashlib
import json
import os
import random
import re
import sys
from decimal import Decimal

import pytest

from fibtower import (
    ANALYZE_BUDGET,
    CSV_COLUMNS,
    AnalysisReport,
    SweepReport,
    SweepRow,
    TowerSpec,
    analysis_to_dict,
    factorize,
    fib,
    parse_json,
    parse_range,
    pisano_period,
    predicted_residue,
    render_csv,
    render_json,
    run_sweep,
)
from fibtower import FibTowerError, cli, modfib, report, verify
from fibtower.cli import main


def test_parse_range():
    assert parse_range("2..6") == (2, 6)
    assert parse_range("4") == (4, 4)
    for bad in ("6..2", "0..3", "", "a..b", "1..", "3..x"):
        with pytest.raises(ValueError):
            parse_range(bad)


def test_run_sweep_ordering_and_summary():
    report = run_sweep((1, 3), (2, 5), (1, 2))
    keys = [(r.spec.n, r.spec.k, r.spec.m) for r in report.rows]
    assert keys == sorted(keys)
    assert len(report.rows) == 3 * 4 * 2
    summary = report.summary()
    assert sum(summary["status"].values()) == len(report.rows)
    assert summary["status"]["ok"] == len(report.rows)


def test_json_roundtrip():
    report = run_sweep((2, 3), (3, 6), (1, 1))
    text = render_json(report)
    parsed = parse_json(text)
    assert parsed == report
    assert render_json(parsed) == text


def test_json_numbers_are_decimal_strings():
    report = run_sweep((2, 2), (25, 25), (1, 1))
    payload = json.loads(render_json(report))
    row = payload["rows"][0]
    assert row["fn"] == "75025"
    assert isinstance(row["unit_residue"], str)
    assert isinstance(row["chain"][0]["modulus"], str)
    assert payload["seed"] == "2971215073"
    assert isinstance(row["match"], bool)


def test_json_roundtrip_rejects_tampered_summary():
    report = run_sweep((2, 2), (4, 4), (1, 1))
    payload = json.loads(render_json(report))
    payload["summary"]["status"]["ok"] = "999"
    with pytest.raises(ValueError):
        parse_json(json.dumps(payload))
    # a row's status alone changed, then with the summary tallied to agree:
    # the status is derived from the row's analysis, so the row is refused
    payload = json.loads(render_json(report))
    payload["rows"][0]["status"] = "mismatch"
    with pytest.raises(ValueError, match="stores status as 'mismatch'"):
        parse_json(json.dumps(payload))
    payload["summary"]["status"] = {"mismatch": "1"}
    with pytest.raises(ValueError, match="stores status as 'mismatch'"):
        parse_json(json.dumps(payload))


@pytest.mark.parametrize("key", ["divisibility_ok", "exact", "match", "trivial_base"])
def test_json_roundtrip_rejects_a_flag_that_is_not_a_boolean(key):
    payload = json.loads(render_json(run_sweep((2, 2), (4, 4), (1, 1))))
    payload["rows"][0][key] = "yes"
    with pytest.raises(ValueError, match=f"stores {key} as 'yes'"):
        parse_json(json.dumps(payload))


TAMPERED_ROWS = [
    # F_4 = 3 and the unit is 1: a unit of 2 reads as a mismatch
    ("unit_residue", "2", "stores match as True, which reads False"),
    ("divisibility_ok", False, "stores divisibility_ok as False"),
    ("expected_valuation", "3", "stores expected_valuation as '3', which reads '2'"),
    ("exact", 1, "stores exact as 1, which reads True"),
    ("trivial_base", True, "stores trivial_base as True"),
    ("case", "HALF_POW", "stores case as 'HALF_POW', which reads 'UNIT_ONE'"),
    ("fn", "03", "stores fn as '03', which reads '3'"),
    ("extra", "1", "has the extra key 'extra'"),
    ("exact", None, "lacks the key 'exact'"),
    ("chain", None, "lacks the key 'chain'"),
]


@pytest.mark.parametrize(
    "key, value, message", TAMPERED_ROWS, ids=[f"{key}-{value}" for key, value, _ in TAMPERED_ROWS]
)
def test_parse_json_refuses_a_row_that_contradicts_itself(key, value, message):
    # a row stores what analyze computes; every other key must be what
    # those values give, in JSON type too. None here deletes the key
    payload = json.loads(render_json(run_sweep((2, 2), (4, 4), (1, 1))))
    row = payload["rows"][0]
    if value is None:
        del row[key]
    else:
        row[key] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_json(json.dumps(payload))


def _malformed(payload: dict, case: str):
    """payload, a (2, 4, 1) report, broken in one of the ways below."""
    row = payload["rows"][0]
    if case == "not an object":
        return [payload]
    if case == "no grid":
        del payload["grid"]
    elif case == "row a list":
        payload["rows"][0] = list(row)
    elif case == "level a string":
        row["chain"][0] = "modulus"
    elif case == "level without modulus":
        del row["chain"][0]["modulus"]
    return payload


MALFORMED = [
    ("not an object", "malformed report: TypeError("),
    ("no grid", "malformed report: KeyError('grid')"),
    ("row a list", "row is a list, not an object"),
    ("level a string", "malformed report: TypeError("),
    ("level without modulus", "malformed report: KeyError('modulus')"),
]


@pytest.mark.parametrize("case, message", MALFORMED, ids=[case for case, _ in MALFORMED])
def test_parse_json_refuses_a_malformed_report_with_value_error(case, message):
    payload = json.loads(render_json(run_sweep((2, 2), (4, 4), (1, 1))))
    assert payload["rows"][0]["chain"]
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_json(json.dumps(_malformed(payload, case)))


def test_parse_json_reads_a_report_with_extra_top_level_and_grid_keys():
    rep = run_sweep((2, 2), (4, 4), (1, 1))
    payload = json.loads(render_json(rep))
    payload["note"] = "written by hand"
    payload["grid"]["step"] = "1"
    assert parse_json(json.dumps(payload)) == rep


def _dumps_layout(rep: SweepReport) -> str:
    """render_json's payload, from the same _row_dicts, laid out by json.dumps."""
    ranges = {"k": rep.k_range, "n": rep.n_range, "m": rep.m_range}
    payload = {
        "tool_version": rep.tool_version,
        "seed": report._dec(rep.seed),
        "grid": {axis: [report._dec(lo), report._dec(hi)] for axis, (lo, hi) in ranges.items()},
        "rows": [report._row_dict(row) for row in rep.rows],
        "summary": report._summary_dict(rep),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_render_json_is_json_dumps_layout():
    # k = 1 rows and n <= 2 rows with their trivial bases; each report also
    # reads back as written
    rep = run_sweep((1, 3), (1, 12), (1, 2))
    assert {row.spec.k for row in rep.rows if row.report.trivial_base} >= {1, 2, 3}
    text = render_json(rep)
    assert text == _dumps_layout(rep)
    assert render_json(parse_json(text)) == text
    # rows analyze refuses at once: null under every analysis key
    rep = run_sweep((2, 3), (500, 500), (2000, 2000))
    assert [row.status for row in rep.rows] == ["budget_exceeded"] * 2
    text = render_json(rep)
    assert text == _dumps_layout(rep)
    assert render_json(parse_json(text)) == text
    # chains of depth 12
    rep = run_sweep((12, 12), (3, 14), (1, 2))
    assert max(len(row.report.chain_summary) for row in rep.rows) == 12
    assert render_json(rep) == _dumps_layout(rep)
    # a report without rows
    empty = SweepReport("0.1.0", 1, (2, 2), (3, 3), (1, 1), rows=())
    assert render_json(empty) == _dumps_layout(empty)


def test_render_json_encodes_each_chain_int_once(monkeypatch):
    # rows share chain levels (F_n^(k+m) for several k + m, and periods
    # below), and each distinct chain int is encoded by _dec once per report
    rep = run_sweep((2, 4), (26, 30), (1, 3))
    levels = [level for row in rep.rows for level in row.report.chain_summary]
    chain_ints = {v for level in levels for v in level}
    assert len(levels) > len(set(levels))
    # the other ints render_json encodes through _dec
    others = {rep.seed, *rep.k_range, *rep.n_range, *rep.m_range}
    others |= {row.report.predicted_residue for row in rep.rows}
    others |= {count for tally in rep.summary().values() for count in tally.values()}
    assert chain_ints.isdisjoint(others)
    calls = []
    dec = report._dec

    def spy_dec(value):
        calls.append(value)
        return dec(value)

    with monkeypatch.context() as patched:
        patched.setattr(report, "_dec", spy_dec)
        text = render_json(rep)
    chain_calls = [v for v in calls if v in chain_ints]
    assert sorted(chain_calls) == sorted(chain_ints)
    assert text == _dumps_layout(rep)


def test_render_csv_encodes_no_chain_int():
    # CSV has no chain column: a chain of values that cannot be encoded
    # leaves the CSV bytes as they are
    class Unencodable:
        def __getattr__(self, name):
            raise AssertionError(f"a chain value was read: .{name}")

    rep = run_sweep((2, 3), (26, 28), (1, 2))
    poison = ((Unencodable(), Unencodable()),)
    poisoned = dataclasses.replace(
        rep,
        rows=tuple(
            SweepRow(row.spec, dataclasses.replace(row.report, chain_summary=poison))
            for row in rep.rows
        ),
    )
    assert render_csv(poisoned) == render_csv(rep)


def test_render_json_layout_of_an_empty_chain(cold_links, monkeypatch):
    # with rho cut to 10 steps, F_91 and F_97 are refused by factoring, so
    # route 3 answers their rows with no chain; F_90 ... F_96 factor
    monkeypatch.setattr(modfib, "DEFAULT_FACTOR_BUDGET", 10)
    rep = run_sweep((2, 3), (90, 97), (1, 2))
    chains = {row.spec.n: row.report.chain_summary for row in rep.rows}
    assert chains[91] == chains[97] == () and chains[90]
    assert render_json(rep) == _dumps_layout(rep)


def test_dec_matches_int_to_decimal_across_the_str_threshold():
    # 10^640 has 641 digits, one more than str() gives under the least limit
    values = [2**1999 - 1, 2**1999, 2**2000 - 1, 2**2000, 2**2001 - 1, 10**640]
    assert [v.bit_length() for v in values] == [1999, 2000, 2000, 2001, 2001, 2127]
    want = [str(report.int_to_decimal(v)) for v in values]
    assert [report._dec(v) for v in values] == want
    if not hasattr(sys, "set_int_max_str_digits"):
        return  # CPython before 3.10.7 has no digit limit
    # 640 digits is the least limit CPython accepts; str() serves 2000 bits
    # (603 digits) under it, and Decimal the rest
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert [report._dec(v) for v in values] == want
    finally:
        sys.set_int_max_str_digits(limit)


def test_csv_layout():
    report = run_sweep((2, 2), (4, 4), (1, 1))
    text = render_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1] == "4,2,1,3,2,true,1,true,UNIT_ONE,1,true,ok"


def test_csv_trivial_base_row():
    text = render_csv(run_sweep((3, 3), (1, 1), (2, 2)))
    assert text.strip().split("\n")[1] == "1,3,2,1,4,true,0,false,OUT_OF_RANGE,,true,ok"


def test_reports_beyond_int_str_digit_limit():
    # F_90^302, the chain modulus of analyze(2, 90, 300), has 5575 digits,
    # above CPython's default int->str cap of 4300. The chain values are
    # stand-ins of that size: serialization does not check the mathematics.
    spec = TowerSpec(2, 90, 300)
    fn = fib(90)
    case, predicted = predicted_residue(spec)
    modulus = fn**302
    analysis = AnalysisReport(
        spec=spec,
        fn_value=fn,
        unit_residue=predicted,
        case=case,
        predicted_residue=predicted,
        chain_summary=((2 * modulus, 2 * modulus), (modulus, 2 * modulus)),
    )
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        fn_text, modulus_text = str(fn), str(modulus)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(modulus_text) == 5575
    report = SweepReport(
        tool_version="0.1.0",
        seed=2971215073,
        k_range=(2, 2),
        n_range=(90, 90),
        m_range=(300, 300),
        rows=(SweepRow(spec=spec, report=analysis),),
    )
    text = render_json(report)
    assert text == _dumps_layout(report)
    assert parse_json(text) == report
    assert json.loads(text)["rows"][0]["chain"][1]["modulus"] == modulus_text
    assert analysis_to_dict(analysis)["chain"][1]["modulus"] == modulus_text
    assert render_csv(report).split("\n")[1].startswith(f"90,2,300,{fn_text},301,")


def test_int_to_decimal_matches_decimal():
    bits = report._DEC_SPLIT_BITS
    digits = len(str(Decimal(2**bits)))  # 10^(digits-1) < 2^bits < 10^digits
    values = [0, fib(10**6)]
    values += [10**k + d for k in (digits - 1, digits, 3 * digits) for d in (-1, 0)]
    values += [2**k + d for k in (bits - 1, bits, bits + 1, 5 * bits) for d in (-1, 1)]
    for value in values:
        assert str(report.int_to_decimal(value)) == str(Decimal(value)), value.bit_length()


def test_decimal_to_int_matches_decimal():
    rng = random.Random(18)
    piece = report._INT_PARSE_DIGITS
    lengths = [1, piece - 1, piece, piece + 1, 2 * piece, 2 * piece + 1, 5 * piece + 3]
    for length in lengths + [300_000]:
        text = "".join(rng.choice("0123456789") for _ in range(length))
        assert report.decimal_to_int(text) == int(Decimal(text)), length
    for text in ("0" * (2 * piece + 1), "0" * piece + "7" * (piece + 2)):
        assert report.decimal_to_int(text) == int(Decimal(text)), len(text)
    value = fib(10**6)
    assert report.decimal_to_int(str(report.int_to_decimal(value))) == value


# F_500 is refused by factoring (rho exhausts its budget on a 33-digit
# cofactor of its primitive part), so analyze answers it by route 3 alone;
# at m = 2000 analyze refuses it on its price, before any of that runs.
REFUSED_ON_ITS_PRICE = (
    f"analysis budget {ANALYZE_BUDGET} exceeded: TowerSpec(k=3, n=500, m=2000) "
    "is priced 7328820 units, 4 products mod F_500^2003 of up to 693038 bits"
)


@pytest.fixture(scope="module")
def over_budget_sweep():
    return run_sweep((3, 3), (500, 500), (2000, 2000))


@pytest.fixture(scope="module")
def route_3_sweep():
    return run_sweep((3, 3), (500, 500), (1, 1))


def test_budget_refusal_row_roundtrips(over_budget_sweep, route_3_sweep):
    (row,) = over_budget_sweep.rows
    assert row.status == "budget_exceeded" and row.report is None
    assert over_budget_sweep.summary()["status"] == {"budget_exceeded": 1}
    assert parse_json(render_json(over_budget_sweep)) == over_budget_sweep
    (row,) = route_3_sweep.rows
    assert row.status == "ok" and row.report.match and row.report.chain_summary == ()
    assert parse_json(render_json(route_3_sweep)) == route_3_sweep


def test_budget_refusal_csv(over_budget_sweep, route_3_sweep):
    lines = render_csv(over_budget_sweep).strip().split("\n")
    assert lines[1:] == ["500,3,2000,,,,,,,,,budget_exceeded"]
    rep = route_3_sweep.rows[0].report
    (line,) = render_csv(route_3_sweep).strip().split("\n")[1:]
    assert line == (
        f"500,3,1,{rep.fn_value},3,true,{rep.unit_residue},true,"
        f"F_NMINUS1,{rep.predicted_residue},true,ok"
    )


def test_cli_analyze_budget_refusal_names_budget(capsys):
    assert main(["analyze", "3", "500", "2000"]) == 3
    err = capsys.readouterr().err
    assert err == f"budget exhausted: {REFUSED_ON_ITS_PRICE}\n"
    assert main(["analyze", "3", "500", "1", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["match"] is True and out["chain"] == [] and out["trivial_base"] is False
    assert main(["analyze", "3", "4001", "1"]) == 0
    assert "chain  (none: answered by route 3)" in capsys.readouterr().out


def test_sweep_jobs_deterministic_small():
    serial = run_sweep((2, 4), (2, 8), (1, 2), jobs=1)
    parallel = run_sweep((2, 4), (2, 8), (1, 2), jobs=2)
    assert render_json(serial) == render_json(parallel)


def test_sweep_with_a_refusal_and_n_600_is_jobs_independent():
    # F_600 factors through its primitive parts; F_601 is refused, and
    # route 3 answers it
    serial = run_sweep((3, 3), (600, 601), (1, 1), jobs=1)
    parallel = run_sweep((3, 3), (600, 601), (1, 1), jobs=2)
    assert [row.status for row in serial.rows] == ["ok", "ok"]
    assert [bool(row.report.chain_summary) for row in serial.rows] == [True, False]
    assert render_json(serial) == render_json(parallel)
    # F_4001 is refused at once: its cofactor is too large to test for
    # primality within the factoring budget. Route 3 answers k = 1, and
    # analyze refuses k = 2, 3 on their price at m = 180.
    serial = run_sweep((1, 3), (4001, 4001), (180, 180), jobs=1)
    parallel = run_sweep((1, 3), (4001, 4001), (180, 180), jobs=2)
    assert [row.status for row in serial.rows] == ["ok", "budget_exceeded", "budget_exceeded"]
    assert render_json(serial) == render_json(parallel)


def test_sweep_pool_never_outgrows_points_or_cpus(monkeypatch):
    pools = []

    class RecordingPool:
        """Stands in for the process pool; evaluates in this process."""

        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            pools.append((self.max_workers, chunksize))
            return map(fn, items)

    # run_sweep imports the pool class only when it needs a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    one_point = ((2, 2), (3, 3), (1, 1))
    assert run_sweep(*one_point, jobs=64) == run_sweep(*one_point)
    assert pools == []  # a single point needs no pool
    grid = ((2, 3), (3, 12), (1, 2))  # 40 points
    assert run_sweep(*grid, jobs=64) == run_sweep(*grid)
    run_sweep(*grid, jobs=3)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    run_sweep(*grid, jobs=64)
    assert pools == [(4, 2), (3, 3)]


def test_sweep_wide_report_bytes_are_pinned():
    # the sweep_wide benchmark grid; any change to these bytes is a change
    # of the report format or of a computed value
    rep = run_sweep((2, 8), (26, 90), (1, 3))
    assert len(rep.rows) == 1365
    text = render_json(rep)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "b90dceb7b1c3092dd30498da23ee0454b93260b6f62b26ec11f6a5bdfe789c37"
    assert render_json(parse_json(text)) == text
    digest = hashlib.sha256(render_csv(rep).encode()).hexdigest()
    assert digest == "2e111914200235b2ee0d2a17c382396dcc54c0dd7894ceec857e87f6b78b540e"


# --------------------------------- CLI ---------------------------------


def test_cli_fib(capsys):
    assert main(["fib", "0"]) == 0
    assert capsys.readouterr().out == "0\n"
    assert main(["fib", "12"]) == 0
    assert capsys.readouterr().out == "144\n"


def test_cli_fib_beyond_int_str_digit_limit(capsys):
    # F_30000 has 6270 digits, above CPython's default int->str cap of 4300
    limit = sys.get_int_max_str_digits()
    assert main(["fib", "30000"]) == 0
    out = capsys.readouterr().out
    assert sys.get_int_max_str_digits() == limit
    a, b = 0, 1
    for _ in range(30000):
        a, b = b, a + b
    sys.set_int_max_str_digits(0)
    try:
        expected = str(a)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(expected) == 6270
    assert out == expected + "\n"


def test_cli_fib_prints_as_decimal_does(capsys):
    # F_100000 has 69 424 bits, so the CLI prints it by int_to_decimal's split
    assert main(["fib", "100000"]) == 0
    assert capsys.readouterr().out == str(Decimal(fib(100_000))) + "\n"


def test_cli_fib_budget_exit(capsys):
    assert main(["fib", "100", "--max-index", "50"]) == 3
    assert "budget" in capsys.readouterr().err


def test_cli_fibmod_and_pisano(capsys):
    assert main(["fibmod", "91", "4"]) == 0
    assert capsys.readouterr().out == "1\n"
    assert main(["pisano", "4"]) == 0
    assert capsys.readouterr().out == "6\n"
    # 75025 = 5^2 * 3001 and both prime-power parts have period 100
    assert main(["pisano", "75025"]) == 0
    assert capsys.readouterr().out == "100\n"


def test_cli_pisano_of_the_square_of_a_13_digit_prime(capsys):
    # rho's budget ran out on (10^12 + 39)^2 before factorize took a
    # perfect power by its exact root; Wall's rule gives p * pi(p)
    p = 10**12 + 39
    assert main(["pisano", "1000000000078000000001521"]) == 0
    assert capsys.readouterr().out == f"{p * pisano_period(factorize(p)).value}\n"


def test_cli_fibmod_beyond_int_str_digit_limit(capsys):
    # a 5000-digit modulus: int() refuses to parse it, str() to print the residue
    text = "1" * 5000
    modulus = int(Decimal(text))
    assert main(["fibmod", "1000000", text]) == 0
    out = capsys.readouterr().out
    assert int(Decimal(out)) == fib(1_000_000) % modulus


def test_cli_usage_errors(capsys):
    assert main(["fib"]) == 2
    assert main(["fib", "-5"]) == 2
    assert main(["nope"]) == 2
    capsys.readouterr()
    # a modulus of 0 or below takes one path and one message, in both commands
    for argv in (["fibmod", "3", "0"], ["fibmod", "3", "-5"], ["pisano", "0"], ["pisano", "-5"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (
            f"fibtower {argv[0]}: error: argument modulus: "
            f"invalid positive integer value: {argv[-1]!r}"
        )
    # so is a k, n or m of 0 or below
    for position, name in enumerate("knm"):
        for bad in ("0", "-1"):
            argv = ["analyze", "3", "5", "1"]
            argv[1 + position] = bad
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.splitlines()[-1] == (
                f"fibtower analyze: error: argument {name}: "
                f"invalid positive integer value: {bad!r}"
            )


def test_cli_integer_argument_message(capsys):
    for bad in ("abc", "-5", ""):
        assert main(["fib", bad]) == 2
        err = capsys.readouterr().err
        assert f"invalid nonnegative integer value: {bad!r}" in err
        assert "_positive" not in err and "_nonnegative" not in err
    assert main(["fib", "x" * 5000]) == 2
    err = capsys.readouterr().err
    assert f"invalid nonnegative integer value: {'x' * 20!r}... (5000 characters)" in err
    assert len(err) < 1000
    assert main(["fib", "0"]) == 0


def test_cli_pisano_exits_1_when_brute_force_disagrees(monkeypatch, capsys):
    monkeypatch.setattr(cli, "pisano_period_brute", lambda m: 7)
    assert main(["pisano", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "factored/brute disagreement for modulus 4\n"


def test_cli_analyze_budget_exit(capsys):
    assert main(["analyze", "2", "1000000000", "1"]) == 3
    assert "budget" in capsys.readouterr().err


def test_cli_repeat_invocations_byte_identical(capsys):
    args = ["sweep", "--k", "2..3", "--n", "3..6", "--m", "1..2"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_cli_analyze_json(capsys):
    assert main(["analyze", "2", "5", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["unit_residue"] == "1"
    assert payload["case"] == "UNIT_ONE"
    assert payload["match"] is True
    assert payload["status"] == "ok"


def fail_a_check(spec):
    raise FibTowerError(f"period check failed at {spec.n}")


def test_cli_analyze_maps_a_failed_check_to_exit_1(monkeypatch, capsys):
    monkeypatch.setattr(cli, "analyze", fail_a_check)
    assert main(["analyze", "2", "5", "1"]) == 1
    err = capsys.readouterr().err
    assert err == "check failed: period check failed at 5\n"


def test_cli_sweep_maps_a_failed_check_to_exit_1(monkeypatch, capsys):
    monkeypatch.setattr(report, "analyze", fail_a_check)
    assert main(["sweep", "--k", "2..2", "--n", "3..4", "--m", "1..1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "check failed: period check failed at 3\n"
    assert captured.out == ""


def test_cli_sweep_exit_code_reads_row_status_once(monkeypatch, capsys):
    # the exit code comes from the rows' status; the tallies, with a branch
    # label per row, are taken once, for the report's summary
    real_analyze, real_label = report.analyze, report.branch_label
    labels = []

    def counting_label(spec):
        labels.append(spec)
        return real_label(spec)

    def mismatch_at_n_4(spec):
        # F_4 = 3 and the unit is 1: a unit of 2 is not the predicted 1
        rep = real_analyze(spec)
        return dataclasses.replace(rep, unit_residue=2) if spec.n == 4 else rep

    monkeypatch.setattr(report, "branch_label", counting_label)
    argv = ["sweep", "--k", "2..2", "--n", "3..5", "--m", "1..1"]
    assert main(argv) == 0
    assert len(labels) == 3
    assert json.loads(capsys.readouterr().out)["summary"]["status"] == {"ok": "3"}
    monkeypatch.setattr(report, "analyze", mismatch_at_n_4)
    assert main(argv) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["summary"]["status"] == {"mismatch": "1", "ok": "2"}
    assert len(labels) == 6


def test_cli_analyze_human(capsys):
    assert main(["analyze", "3", "3", "1"]) == 0
    out = capsys.readouterr().out
    assert "SIGNED_HALF_POW" in out and "chain" in out
    assert main(["analyze", "1", "7", "2"]) == 0
    capsys.readouterr()


def test_cli_sweep_to_file(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(
        ["sweep", "--k", "2..2", "--n", "4..4", "--m", "1..1", "--format", "csv",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[1].startswith("4,2,1,3,2,true,1,true,UNIT_ONE")
    json_out = tmp_path / "report.json"
    assert main(["sweep", "--k", "2..3", "--n", "3..4", "--m", "1..1",
                 "--out", str(json_out)]) == 0
    parse_json(json_out.read_text())
    capsys.readouterr()


def test_cli_sweep_refuses_a_missing_out_directory_before_sweeping(
    tmp_path, monkeypatch, capsys
):
    def no_sweep(*args, **kwargs):
        raise AssertionError("swept before checking --out")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    out = tmp_path / "missing" / "report.json"
    assert main(["sweep", "--k", "2..2", "--n", "3..3", "--m", "1..1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(out) in err and "no directory" in err
    assert not out.parent.exists()


def test_cli_sweep_out_to_a_directory_exits_2(tmp_path, capsys):
    assert main(["sweep", "--k", "2..2", "--n", "3..3", "--m", "1..1",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(tmp_path) in err and "directory" in err
    assert tmp_path.is_dir()


def test_cli_closed_stdout_exits_2_on_one_line(tmp_path, monkeypatch, capsys):
    # as under `fibtower fibmod 30000 7 | true`: no traceback, and stdout's
    # descriptor then points at os.devnull, so the interpreter's last flush
    # stays silent
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        def flush(self):
            pass

        def fileno(self):
            return fd

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    try:
        assert main(["fibmod", "30000", "7"]) == 2
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert capsys.readouterr().err == "cannot write standard output: Broken pipe\n"


def test_cli_sweep_stdout_and_usage(capsys):
    assert main(["sweep", "--k", "2..2", "--n", "4..4", "--m", "1..1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"][0]["unit_residue"] == "1"
    assert main(["sweep", "--k", "6..2", "--n", "3..25", "--m", "1..3"]) == 2
    capsys.readouterr()
    # --jobs takes the same integer type as k, n and m
    for bad in ("0", "-1", "x"):
        assert main(["sweep", "--k", "2..3", "--n", "3..4", "--m", "1..1",
                     "--jobs", bad]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"fibtower sweep: error: argument --jobs: invalid positive integer value: {bad!r}"
        )


def test_cli_verify_identities(capsys):
    assert main(["verify", "--suite", "identities"]) == 0
    out = capsys.readouterr().out
    assert "7/7 identity families pass" in out


def test_cli_verify_reports_a_failing_property(monkeypatch, capsys):
    def fake():
        return [verify._run("planted", [("a", True), ("b", False)])]

    monkeypatch.setitem(verify.SUITES, "identities", ("identity families", (fake,)))
    assert main(["verify", "--suite", "identities"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  planted  (2 cases)  counterexample: b" in out
    assert "0/1 identity families pass" in out


def test_cli_verify_lemmas(capsys):
    assert main(["verify", "--suite", "lemmas"]) == 0
    out = capsys.readouterr().out
    assert "5/5 lemma properties pass" in out


def test_cli_verify_oracle_small_budget(capsys):
    assert main(["verify", "--suite", "oracle", "--max-index", "2000"]) == 0
    out = capsys.readouterr().out
    assert "4/4 oracle agreement properties pass" in out
    assert "oracle index budget: 2000" in out


def test_cli_verify_oracle_refuses_a_budget_that_admits_no_spec(capsys):
    # no property may pass on zero cases
    for suite in ("oracle", "all"):
        assert main(["verify", "--suite", suite, "--max-index", "0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "budget exhausted: oracle index budget 0 admits no grid spec\n"
        )


def test_cli_version(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == "0.1.0"


def test_module_entrypoint():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "fibtower", "fib", "12"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "144"
