"""One benchmark process: set up fibtower, run passes of one workload, report.

Set-up ends when fibtower is imported and its trial-prime sieve is built
(the first factorization builds it); the process prints that instant on
the monotonic clock, which the parent compares with the instant it
launched the process. Then it runs passes while the next one fits in
--seconds (always at least one; exactly one for a workload that must
start cold), checks every pass against the committed
references, and prints one JSON object on stdout. Untraced passes are
timed by a meter.Meter, whose kernel runs from before the first pass to
after the last; each pass and item is then costed in kernel-times.

Run by run.py with PYTHONPATH pointing at the checkout's src/.
"""

import time


def main() -> None:
    import fibtower

    fibtower.factorize(2)
    ready = time.monotonic()

    import argparse
    import json
    import platform
    import resource
    from pathlib import Path

    import workloads
    from meter import Meter
    from tracer import Tracer

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--scale", choices=sorted(workloads.SIZES), default="full")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    out = {
        "ready": ready,
        "python": platform.python_version(),
        "factor_seed": fibtower.DEFAULT_FACTOR_SEED,
        "oracle_budget": fibtower.oracle_budget(),
    }
    if args.workload is None:  # set-up probe only
        print(json.dumps(out))
        return

    work = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.scale][args.workload]
    references = json.loads(Path(__file__).with_name("references.json").read_text())
    reference = references[args.scale][args.workload]
    out["cold"] = work.cold
    seconds = 0.0 if work.cold else args.seconds
    tracer = Tracer()
    if args.trace:
        tracer.install()
        out["patched"] = tracer.patched_sites
    # Traced passes are timed by their spans alone; untraced ones by the meter.
    meter = None if args.trace else Meter(work.kernel)
    if meter:
        meter.start()
    passes = []
    results = []
    start = time.monotonic()
    while True:
        tracer.reset()
        result = work.run(size, args.seed)
        record = {
            "wall_s": result.wall_s,
            "attempted": result.attempted,
            "ok": result.ok,
            "failed": max(result.failed, workloads.check(args.workload, result, reference)),
            "extra": result.extra,
        }
        if args.trace:
            calls = tracer.calls()
            record["layers"] = tracer.layer_metrics()
            record["unreached"] = [
                name for name in work.exercises if name in tracer.present and not calls[name]
            ]
        passes.append(record)
        results.append(result)
        elapsed = time.monotonic() - start
        if elapsed + result.wall_s > seconds:
            break
    if meter:
        meter.stop()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if meter:
        out["kernel_ms"] = [ns / 1e6 for ns in meter.kernel_ns()]
        for record, result in zip(passes, results):
            record["work_kt"], work_ns = meter.cost(result.t0_ns, result.t1_ns)
            record["work_s"] = work_ns / 1e9
            items = [meter.cost(*result.spans[i : i + 2]) for i in range(0, len(result.spans), 2)]
            record["item_kt"] = [kt for kt, _ in items]
            record["item_ms"] = [ns / 1e6 for _, ns in items]
    out["passes"] = passes
    print(json.dumps(out))


if __name__ == "__main__":
    main()
