"""Spans around calls into fibtower's public functions, installed from outside.

The tracer replaces each target function with a wrapper in every fibtower
namespace that holds it (``tower.fib`` and ``oracle.fib`` as well as
``fibcore.fib``), and patches class attributes in place. Nothing under
``src/`` knows about it. Each call records a span: its name, its parent
span, its start, its duration and its self time (duration minus the time
of its child spans). Spans are kept in flat arrays and folded into the
per-layer metrics after a pass.
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array
from dataclasses import dataclass
from functools import update_wrapper
from typing import Callable


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


@dataclass(frozen=True)
class Target:
    name: str  # span name, "<layer>.<function>"
    module: str
    attr: str  # attribute path inside the module; "Class.method" patches a class
    on_args: Callable | None = None  # (tracer, span index, args, kwargs)
    on_result: Callable | None = None  # (tracer, span index, result)


def _fib_pair_mod_args(tr, idx, args, kwargs):
    tr.fpm_span.append(idx)
    tr.fpm_ibits.append(_arg(args, kwargs, 0, "i").bit_length())
    m = _arg(args, kwargs, 1, "m")
    tr.fpm_mbits.append(m.bit_length() if m > 1 else 0)


def _factorize_args(tr, idx, args, kwargs):
    tr.factorize_bits = max(tr.factorize_bits, _arg(args, kwargs, 0, "x").bit_length())


def _render_json_result(tr, idx, result):
    tr.render_bytes += len(result.encode())


TARGETS = (
    Target("fibcore.fib", "fibtower.fibcore", "fib"),
    Target("modfib.fib_pair_mod", "fibtower.modfib", "fib_pair_mod", on_args=_fib_pair_mod_args),
    Target("modfib.fib_mod", "fibtower.modfib", "fib_mod"),
    Target("modfib.is_prime", "fibtower.modfib", "is_prime"),
    Target("modfib.FactoredNatural", "fibtower.modfib", "FactoredNatural.__post_init__"),
    Target("modfib.factorize", "fibtower.modfib", "factorize", on_args=_factorize_args),
    Target("modfib.pisano_prime", "fibtower.modfib", "pisano_prime"),
    Target("modfib.pisano_period", "fibtower.modfib", "pisano_period"),
    Target("modfib.build_chain", "fibtower.modfib", "build_chain"),
    Target("modfib.PisanoChain.verify", "fibtower.modfib", "PisanoChain.verify"),
    Target("tower.analyze", "fibtower.tower", "analyze"),
    Target("tower.predicted_residue", "fibtower.tower", "predicted_residue"),
    Target("oracle.oracle_feasible", "fibtower.oracle", "oracle_feasible"),
    Target("oracle.oracle_eval", "fibtower.oracle", "oracle_eval"),
    Target("report.run_sweep", "fibtower.report", "run_sweep"),
    Target("report.render_json", "fibtower.report", "render_json", on_result=_render_json_result),
)

# Upper modulus bit lengths of the fib_pair_mod latency buckets.
_FPM_BUCKETS = (64, 256, 1024, 4096)

PER_LAYER_UNITS = {
    "fibcore.fib.calls": "count",
    "fibcore.fib.self_s": "s",
    "modfib.fib_pair_mod.calls": "count",
    "modfib.fib_pair_mod.self_s": "s",
    "modfib.fib_pair_mod.mulmods": "count",
    **{f"modfib.fib_pair_mod.us_per_call.le{b}": "us" for b in _FPM_BUCKETS},
    f"modfib.fib_pair_mod.us_per_call.gt{_FPM_BUCKETS[-1]}": "us",
    "modfib.fib_mod.calls": "count",
    "modfib.fib_mod.self_s": "s",
    "modfib.is_prime.calls": "count",
    "modfib.is_prime.self_s": "s",
    "modfib.FactoredNatural.calls": "count",
    "modfib.factorize.calls": "count",
    "modfib.factorize.self_s": "s",
    "modfib.factorize.failed": "count",
    "modfib.factorize.max_bits": "bits",
    "modfib.pisano_prime.calls": "count",
    "modfib.pisano_prime.miss_ratio": "ratio",
    "modfib.pisano_period.calls": "count",
    "modfib.pisano_period.s": "s",
    "modfib.build_chain.calls": "count",
    "modfib.build_chain.self_s": "s",
    "modfib.PisanoChain.verify.calls": "count",
    "modfib.PisanoChain.verify.s": "s",
    "modfib.PisanoChain.verify.fib_pair_mod_calls": "count",
    "tower.analyze.calls": "count",
    "tower.analyze.p50_ms": "ms",
    "tower.analyze.p99_ms": "ms",
    "tower.predicted_residue.s": "s",
    "oracle.oracle_feasible.calls": "count",
    "oracle.oracle_feasible.s": "s",
    "oracle.oracle_eval.calls": "count",
    "oracle.oracle_eval.self_s": "s",
    "report.run_sweep.s": "s",
    "report.render_json.s": "s",
    "report.render_json.bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Records spans for the TARGETS once install() has run."""

    def __init__(self) -> None:
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_dur = array("q")
        self.span_self = array("q")
        self.span_failed = array("B")
        self.fpm_span = array("q")
        self.fpm_ibits = array("q")
        self.fpm_mbits = array("q")
        self._stack: list[list[int]] = []
        self.present: set[str] = set()  # targets that exist in this program
        self.patched_sites: list[str] = []
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans; the wrappers keep the same arrays."""
        for arr in (
            self.span_name,
            self.span_parent,
            self.span_start,
            self.span_dur,
            self.span_self,
            self.span_failed,
            self.fpm_span,
            self.fpm_ibits,
            self.fpm_mbits,
        ):
            del arr[:]
        self._stack.clear()
        self.factorize_bits = 0
        self.render_bytes = 0

    def install(self) -> None:
        """Wrap every target in every loaded fibtower namespace that holds it.

        A target missing from the program (renamed or removed) is skipped:
        its metrics read 0 and no workload is required to reach it.
        """
        spaces = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "fibtower" or name.startswith("fibtower.")
        ]
        for name_id, target in enumerate(TARGETS):
            owner = sys.modules.get(target.module)
            *path, attr = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                continue
            wrapper = self._wrap(original, name_id, target)
            self.present.add(target.name)
            if path:  # a class attribute: one patch reaches every namespace
                setattr(owner, attr, wrapper)
                self.patched_sites.append(f"{target.module}.{target.attr}")
                continue
            for mod in spaces:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self.patched_sites.append(f"{mod.__name__}.{key}")

    def _wrap(self, fn, name_id: int, target: Target):
        names, parents = self.span_name, self.span_parent
        starts, durs, selfs, failed = self.span_start, self.span_dur, self.span_self, self.span_failed
        stack = self._stack
        clock = time.perf_counter_ns
        on_args, on_result = target.on_args, target.on_result

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0)
            durs.append(0)
            selfs.append(0)
            failed.append(0)
            if on_args is not None:
                on_args(self, idx, args, kwargs)
            frame = [idx, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[idx] = 1
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                starts[idx] = t0
                durs[idx] = dur
                selfs[idx] = dur - frame[1]
            if on_result is not None:
                on_result(self, idx, result)
            return result

        return update_wrapper(traced, fn)

    def calls(self) -> dict[str, int]:
        counts = [0] * len(TARGETS)
        for name_id in self.span_name:
            counts[name_id] += 1
        return {t.name: c for t, c in zip(TARGETS, counts)}

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset.

        trace.overhead_ratio needs an untraced pass, so the caller sets it.
        """
        ids = {t.name: i for i, t in enumerate(TARGETS)}
        n = len(TARGETS)
        calls, total, self_ns, failures = [0] * n, [0] * n, [0] * n, [0] * n
        names, parents = self.span_name, self.span_parent
        for name_id, dur, own, bad in zip(names, self.span_dur, self.span_self, self.span_failed):
            calls[name_id] += 1
            total[name_id] += dur
            self_ns[name_id] += own
            failures[name_id] += bad

        def parent_is(idx: int, name: str) -> bool:
            parent = parents[idx]
            return parent >= 0 and names[parent] == ids[name]

        factorize_id, fpm_id = ids["modfib.factorize"], ids["modfib.fib_pair_mod"]
        missed_primes = set()
        verify_fpm = 0
        for idx, name_id in enumerate(names):
            if name_id == factorize_id and parent_is(idx, "modfib.pisano_prime"):
                missed_primes.add(parents[idx])
            elif name_id == fpm_id and parent_is(idx, "modfib.PisanoChain.verify"):
                verify_fpm += 1
        analyze_id = ids["tower.analyze"]
        analyze_ms = [d / 1e6 for i, d in zip(names, self.span_dur) if i == analyze_id]

        bucket_ns = [0] * (len(_FPM_BUCKETS) + 1)
        bucket_calls = [0] * (len(_FPM_BUCKETS) + 1)
        for idx, mbits in zip(self.fpm_span, self.fpm_mbits):
            b = next((j for j, hi in enumerate(_FPM_BUCKETS) if mbits <= hi), len(_FPM_BUCKETS))
            bucket_ns[b] += self.span_dur[idx]
            bucket_calls[b] += 1
        mulmods = 3 * sum(ib for ib, mb in zip(self.fpm_ibits, self.fpm_mbits) if mb)

        def c(name):
            return calls[ids[name]]

        def s(name, per=total):
            return per[ids[name]] / 1e9

        def pct(values, q):
            if len(values) < 2:
                return values[0] if values else 0.0
            return statistics.quantiles(values, n=100, method="inclusive")[q - 1]

        labels = [f"le{b}" for b in _FPM_BUCKETS] + [f"gt{_FPM_BUCKETS[-1]}"]
        out = {
            "fibcore.fib.calls": c("fibcore.fib"),
            "fibcore.fib.self_s": s("fibcore.fib", self_ns),
            "modfib.fib_pair_mod.calls": c("modfib.fib_pair_mod"),
            "modfib.fib_pair_mod.self_s": s("modfib.fib_pair_mod", self_ns),
            "modfib.fib_pair_mod.mulmods": mulmods,
            **{
                f"modfib.fib_pair_mod.us_per_call.{label}": (ns / k / 1e3 if k else 0.0)
                for label, ns, k in zip(labels, bucket_ns, bucket_calls)
            },
            "modfib.fib_mod.calls": c("modfib.fib_mod"),
            "modfib.fib_mod.self_s": s("modfib.fib_mod", self_ns),
            "modfib.is_prime.calls": c("modfib.is_prime"),
            "modfib.is_prime.self_s": s("modfib.is_prime", self_ns),
            "modfib.FactoredNatural.calls": c("modfib.FactoredNatural"),
            "modfib.factorize.calls": c("modfib.factorize"),
            "modfib.factorize.self_s": s("modfib.factorize", self_ns),
            "modfib.factorize.failed": failures[factorize_id],
            "modfib.factorize.max_bits": self.factorize_bits,
            "modfib.pisano_prime.calls": c("modfib.pisano_prime"),
            "modfib.pisano_prime.miss_ratio": (
                len(missed_primes) / c("modfib.pisano_prime") if c("modfib.pisano_prime") else 0.0
            ),
            "modfib.pisano_period.calls": c("modfib.pisano_period"),
            "modfib.pisano_period.s": s("modfib.pisano_period"),
            "modfib.build_chain.calls": c("modfib.build_chain"),
            "modfib.build_chain.self_s": s("modfib.build_chain", self_ns),
            "modfib.PisanoChain.verify.calls": c("modfib.PisanoChain.verify"),
            "modfib.PisanoChain.verify.s": s("modfib.PisanoChain.verify"),
            "modfib.PisanoChain.verify.fib_pair_mod_calls": verify_fpm,
            "tower.analyze.calls": c("tower.analyze"),
            "tower.analyze.p50_ms": pct(analyze_ms, 50),
            "tower.analyze.p99_ms": pct(analyze_ms, 99),
            "tower.predicted_residue.s": s("tower.predicted_residue"),
            "oracle.oracle_feasible.calls": c("oracle.oracle_feasible"),
            "oracle.oracle_feasible.s": s("oracle.oracle_feasible"),
            "oracle.oracle_eval.calls": c("oracle.oracle_eval"),
            "oracle.oracle_eval.self_s": s("oracle.oracle_eval", self_ns),
            "report.run_sweep.s": s("report.run_sweep"),
            "report.render_json.s": s("report.render_json"),
            "report.render_json.bytes": self.render_bytes,
        }
        return out
