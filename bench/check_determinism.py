#!/usr/bin/env python3
"""Self-check of the traced run: two traced runs with the same seed must
report identical counts and count-derived values.

Usage, from the root of a checkout:

    python3 bench/check_determinism.py [--seed N] [--seconds S] [WORKLOAD ...]

Compares every per-layer metric whose name ends in ``.calls`` or
``_ratio``, starts with ``max_`` after its module prefix, or is
``couple.level_mean`` or ``matrix.sparse_mul.entries_out``.
``trace.overhead_ratio`` is a ratio of two times and is left out.  Exits 1
and lists the differences if any value differs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("theorem", "conjugated", "thoma", "cli")
TIMED_RATIOS = {"trace.overhead_ratio"}


def deterministic(name: str) -> bool:
    last = name.rsplit(".", 1)[-1]
    return name not in TIMED_RATIOS and (
        name.endswith(".calls") or name.endswith("_ratio") or last.startswith("max_")
        or name in ("couple.level_mean", "matrix.sparse_mul.entries_out"))


def traced_metrics(workload: str, seed: int, seconds: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items() if deterministic(k)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", default="20")
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = ap.parse_args()
    status = 0
    for workload in args.workloads:
        first = traced_metrics(workload, args.seed, args.seconds)
        second = traced_metrics(workload, args.seed, args.seconds)
        diffs = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
        print(f"{workload}: {len(first)} values compared, {len(diffs)} differ")
        for name, (a, b) in sorted(diffs.items()):
            print(f"  {name}: {a} != {b}")
        status |= bool(diffs)
    return status


if __name__ == "__main__":
    sys.exit(main())
