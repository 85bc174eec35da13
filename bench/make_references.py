"""Regenerate bench/references.json, cross-checking each output first.

    PYTHONPATH=src python3 bench/make_references.py

Takes several minutes: the Pisano periods are checked one by one against
pisano_period_brute. Every workload pass is then checked against these
references, so regenerate them only when the program's outputs are meant
to change, and say why in the change that does it.
"""

from __future__ import annotations

import json
from pathlib import Path

import workloads
from fibtower import modfib, oracle, tower


def _cross_check(name: str, size, result: workloads.PassResult) -> None:
    if result.failed:
        raise SystemExit(f"{name}: {result.failed} items failed the program's own checks")
    if name == "sweep_wide" and result.ok != result.attempted:
        raise SystemExit(f"{name}: only {result.ok}/{result.attempted} rows ok")
    if name == "pisano_scan":
        brute = workloads.sha256_lines(
            str(modfib.pisano_period_brute(m)) for m in range(1, size + 1)
        )
        if brute != result.output:
            raise SystemExit("pisano_scan: factored periods disagree with pisano_period_brute")
    if name == "oracle_grid":
        (n_lo, n_hi), (k_lo, k_hi), (m_lo, m_hi) = size
        for n in range(max(n_lo, 3), n_hi + 1):
            for k in range(k_lo, k_hi + 1):
                for m in range(m_lo, m_hi + 1):
                    spec = tower.TowerSpec(k=k, n=n, m=m)
                    if not oracle.oracle_feasible(spec):
                        continue
                    want = oracle.oracle_eval(spec).quotient_residue
                    got = tower.analyze(spec).unit_residue
                    if got != want:
                        raise SystemExit(f"oracle_grid: {spec} chain {got} != oracle {want}")


def main() -> None:
    refs: dict = {}
    for scale, sizes in sorted(workloads.SIZES.items(), reverse=True):
        refs[scale] = {}
        for name, work in workloads.WORKLOADS.items():
            result = work.run(sizes[name], 0)
            _cross_check(name, sizes[name], result)
            refs[scale][name] = result.output
            print(f"{scale} {name}: {result.ok}/{result.attempted} ok, {result.wall_s:.1f} s")
    path = Path(__file__).with_name("references.json")
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
