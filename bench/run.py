"""fibtower benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload sweep_wide --seed 1 --seconds 20 --trace 0

Run from the root of a fibtower checkout; the program is imported from
src/ as it stands, nothing is installed. Workloads and metrics are
described in bench/README.md.

Every pass of sweep_wide, frontier and pisano_scan runs in a fresh
interpreter, because the program's period caches and trial-prime sieve are
process-global and every CLI invocation starts them cold. oracle_grid is
stateless and repeats its passes in one process. Passes go on while the
next one still fits in --seconds; there is always at least one.

--trace 0 prints the end-to-end metrics. Their times are counted in
kernel-times (kt): a calibration kernel runs every 50 ms in each workload
process and every stretch of work is divided by the kernel's time around
it, so the host's drift in speed cancels (see meter.py). --trace 1
alternates untraced and traced processes and prints the per-layer metrics
of the traced passes plus trace.overhead_ratio (traced over untraced pass
time, in raw seconds, without the kernel). The last line of stdout is one
JSON object; the lines before it give raw figures and the names
bench/README.md uses, with sample counts, and the recorded environment.
The exit code is 0 when every pass matched the committed references, 1
when one did not or a worker failed, and 2 outside a fibtower checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from meter import kernel
from tracer import PER_LAYER_UNITS

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("sweep_wide", "frontier", "pisano_scan", "oracle_grid")
# Set-up-only processes launched before the workload; setup_s is their median.
SETUP_PROBES = 11
# setup_s is given in seconds at the host speed where the meter's kernel
# takes this long, about its median on the reference machine: raw set-up
# times drift with the host as the workloads' times do (see meter.py).
KERNEL_REF_S = 0.002
# A run must end within 180 s; workers are killed at this point.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_kt": "1/kt",
    "item_p99_kt": "kt",
    "peak_rss_mb": "MiB",
    "ok_ratio": "ratio",
}


class WorkerFailed(Exception):
    pass


def _worker_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    # Changes which specs oracle_grid treats as feasible.
    env.pop("FIBTOWER_MAX_INDEX", None)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _launch(args: list[str], env: dict, root: Path, deadline: float) -> dict:
    """Run one worker process; its set-up time is measured from launch."""
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            env=env,
            cwd=root,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - launched),
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker {args} killed at the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["setup_s"] = out["ready"] - launched
    out["process_s"] = time.monotonic() - launched
    return out


def _kernel_s(runs: int = 3) -> list[float]:
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return times


def _probe_setup(env: dict, root: Path, deadline: float) -> tuple[dict, float]:
    """A set-up-only process, and its set-up time at the reference kernel speed.

    The kernel runs in this process just before and just after the probe.
    """
    before = _kernel_s()
    probe = _launch([], env, root, deadline)
    speed = KERNEL_REF_S / statistics.median(before + _kernel_s())
    return probe, probe["setup_s"] * speed


def _git(root: Path, *args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(
            ["git", "--no-optional-locks", *args],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def _loadavg() -> str | None:
    text = _read("/proc/loadavg")
    return " ".join(text.split()[:3]) if text else None


def _pct(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _end_to_end(name: str, setups: list[tuple[float, float]], outs: list[dict]):
    """End-to-end metrics, and the same figures under README names with sample counts.

    Work is counted in kernel-times (kt, see meter.py): the gated metrics
    are steady while the host's speed drifts. The raw times are printed too.
    """
    passes = [p for out in outs for p in out["passes"]]
    item_kt = [kt for p in passes for kt in p["item_kt"]]
    item_ms = [ms for p in passes for ms in p["item_ms"]]
    kernel_ms = [ms for out in outs for ms in out["kernel_ms"]]
    attempted = sum(p["attempted"] for p in passes)
    ok = sum(p["ok"] for p in passes)
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "items_per_kt": statistics.median(p["attempted"] / p["work_kt"] for p in passes),
        "item_p99_kt": _pct(item_kt, 99),
        "peak_rss_mb": statistics.median(out["peak_rss_mb"] for out in outs),
        "ok_ratio": ok / attempted,
    }
    items_per_s = statistics.median(p["attempted"] / p["work_s"] for p in passes)
    p50_ms, p99_ms = _pct(item_ms, 50), _pct(item_ms, 99)
    npass, nitem = f"median of {len(passes)} passes", f"{len(item_ms)} samples"
    named = [
        ("setup_s", metrics["setup_s"], "s", f"median of {len(setups)} processes"),
        ("setup_raw_s", statistics.median(raw for raw, _ in setups), "s", "same, unscaled"),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MiB", f"median of {len(outs)} processes"),
        ("fail_ratio", 1 - metrics["ok_ratio"], "ratio", f"{attempted - ok}/{attempted} not ok"),
        ("kernel_ms", statistics.median(kernel_ms), "ms", f"median of {len(kernel_ms)} runs"),
    ]
    if name == "sweep_wide":
        named.append(("sweep_rows_per_s", items_per_s, "1/s", npass))
    elif name == "frontier":
        frontier_n = statistics.median_low(p["extra"]["frontier_n"] for p in passes)
        frontier_s = statistics.median(p["work_s"] for p in passes)
        named += [("frontier_n", frontier_n, "n", npass), ("frontier_s", frontier_s, "s", npass)]
    elif name == "pisano_scan":
        named += [
            ("pisano_moduli_per_s", items_per_s, "1/s", npass),
            ("pisano_p50_us", p50_ms * 1e3, "us", nitem),
            ("pisano_p99_us", p99_ms * 1e3, "us", nitem),
        ]
    else:
        named.append(("oracle_specs_per_s", items_per_s, "1/s", npass))
    named += [
        ("items_per_s", items_per_s, "1/s", npass),
        ("item_p50_ms", p50_ms, "ms", nitem),
        ("item_p99_ms", p99_ms, "ms", nitem),
        ("items_per_kt", metrics["items_per_kt"], "1/kt", npass),
        ("item_p50_kt", _pct(item_kt, 50), "kt", nitem),
        ("item_p99_kt", metrics["item_p99_kt"], "kt", nitem),
    ]
    return metrics, named


def _per_layer(outs_plain: list[dict], outs_traced: list[dict]):
    # Untraced processes run the meter's kernel; work_s leaves its runs out.
    plain = [p["work_s"] for out in outs_plain for p in out["passes"]]
    traced = [p for out in outs_traced for p in out["passes"]]
    metrics = {
        key: statistics.median_low(p["layers"][key] for p in traced)
        for key in PER_LAYER_UNITS
        if key != "trace.overhead_ratio"
    }
    metrics["trace.overhead_ratio"] = statistics.median(
        p["wall_s"] for p in traced
    ) / statistics.median(plain)
    note = f"median of {len(traced)} traced passes"
    named = [(key, value, PER_LAYER_UNITS[key], note) for key, value in metrics.items()]
    return metrics, named


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--smoke", action="store_true", help="run a small slice of the workload (self-test)"
    )
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fibtower" / "__init__.py").is_file():
        print(f"bench: no src/fibtower under {root}; run from a fibtower checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = _worker_env(root)
    load_start = _loadavg()
    print(
        f"bench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} scale={'smoke' if args.smoke else 'full'}"
    )

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    common += ["--scale", "smoke" if args.smoke else "full"]
    # Traced runs alternate untraced and traced processes, so that drift in
    # machine speed during the run reaches both sides of overhead_ratio.
    chunk = args.seconds / 4 if args.trace else args.seconds
    setups: list[tuple[float, float]] = []  # (raw, scaled) set-up times
    probe: dict = {}
    outs: dict[int, list[dict]] = {0: [], 1: []}
    error = None
    try:
        for _ in range(2 if args.smoke else SETUP_PROBES):
            probe, scaled = _probe_setup(env, root, deadline)
            setups.append((probe["setup_s"], scaled))
        start = time.monotonic()
        while True:
            traced = int(args.trace and len(outs[0]) > len(outs[1]))
            out = _launch(
                common + ["--trace", str(traced), "--seconds", f"{chunk:.3f}"], env, root, deadline
            )
            outs[traced].append(out)
            both = outs[0] and (outs[1] or not args.trace)
            if both and time.monotonic() - start + out["process_s"] > args.seconds:
                break
    except WorkerFailed as exc:
        error = str(exc)

    env_record = {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": probe.get("python"),
        "git_sha": _git(root, "rev-parse", "HEAD"),
        "git_dirty": None,
        "factor_seed": probe.get("factor_seed"),
        "oracle_budget": probe.get("oracle_budget"),
        "loadavg_start": load_start,
        "loadavg_end": _loadavg(),
    }
    if env_record["git_sha"] is not None:
        env_record["git_dirty"] = bool(_git(root, "status", "--porcelain", "--untracked-files=no"))
    print("env " + json.dumps(env_record, sort_keys=True))

    all_outs = outs[0] + outs[1]
    passes = [p for out in all_outs for p in out["passes"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    unreached = sorted({name for p in passes for name in p.get("unreached", ())})
    if error is None and (not passes or (args.trace and not outs[1])):
        error = "no pass completed"
    if error is not None:
        print(f"bench: FAILED: {error}", file=sys.stderr)
        failed = max(attempted, 1)
        print(json.dumps({"correct": False, "attempted": failed, "failed": failed, "metrics": {}}))
        return 1

    if args.trace:
        metrics, named = _per_layer(outs[0], outs[1])
        units = PER_LAYER_UNITS
        print("patched " + " ".join(outs[1][0]["patched"]))
    else:
        metrics, named = _end_to_end(args.workload, setups, outs[0])
        units = END_TO_END_UNITS
    for key, value, unit, note in named:
        print(f"  {key:<46} {value:>16.6g} {unit:<6} ({note})")
    if unreached:
        print(f"bench: traced functions never reached: {', '.join(unreached)}", file=sys.stderr)
    if failed:
        print(f"bench: {failed} of {attempted} items disagree with the references", file=sys.stderr)
    correct = failed == 0 and not unreached
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
