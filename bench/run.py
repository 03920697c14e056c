#!/usr/bin/env python3
"""Run one workload of the ybw benchmark and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload theorem --seed 1 --seconds 15 --trace 0

The program is imported from ``src/`` of the checkout the script sits in;
nothing needs to be installed.  Workloads (see ``workloads.py`` and
``README.md``): theorem, conjugated, thoma, cli.  Each is a closed loop with
one client in one process; the cli workload runs one subprocess at a time.

``--trace 0`` measures for ``--seconds`` seconds with tracing off and
reports the end-to-end metrics declared in BENCHMARK.json.  ``--trace 1``
runs a fixed number of cycles (so counts repeat exactly for a seed) with
spans recorded around the calls into each module, writes the spans to
``.bench_out/``, replays the same items untraced to measure the tracing
overhead, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries the run's metadata (seed, commit, versions, nproc, item counts,
failures).  A failed item is a wrong verdict, an exception or a time-limit
kill; ``correct`` is false when any item gave a wrong verdict or raised.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter as clock

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 11
IMPORT_REPEATS = 5
TAIL_BEYOND = 10
FAILURES_SHOWN = 20


def die(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_program() -> None:
    """Put the checkout's src/ first on the path and import ybw from it."""
    src = ROOT / "src"
    if not (src / "ybw" / "__init__.py").is_file():
        die(f"no ybw package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import ybw

    if Path(ybw.__file__).resolve().parent != (src / "ybw").resolve():
        die(f"imported ybw from {ybw.__file__}, not from {src}")


def declared_metrics() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die(f"missing {path}")
    manifest = json.loads(path.read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in manifest["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in manifest["per_layer"]},
    }


def clear_program_caches() -> None:
    """Empty every functools cache in the ybw modules, as in a fresh process."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "ybw" or name.startswith("ybw.")):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def metadata(args) -> dict:
    import numpy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
    }


def run_item(workload, state, item, in_process: bool) -> tuple[str, str]:
    """(verdict, detail); an exception is a failed item, never a crash."""
    from workloads import ERROR

    try:
        return workload.run(state, item, in_process=in_process), ""
    except Exception as exc:  # the loop must go on and report the item
        return ERROR, f"{type(exc).__name__}: {exc}"


class Tally:
    def __init__(self):
        self.durations: list[float] = []
        self.verdicts: Counter = Counter()
        self.failures: list[dict] = []

    def add(self, cycle: int, position: int, item, verdict: str, detail: str, seconds: float):
        from workloads import PASS

        self.durations.append(seconds)
        self.verdicts[verdict] += 1
        if verdict != PASS and len(self.failures) < FAILURES_SHOWN:
            self.failures.append({"cycle": cycle, "position": position, "kind": item.kind,
                                  "corpus": item.corpus, "verdict": verdict, "detail": detail})

    def result(self, metrics: dict) -> dict:
        from workloads import ERROR, PASS, WRONG

        attempted = len(self.durations)
        return {
            "correct": attempted > 0 and not (self.verdicts[WRONG] or self.verdicts[ERROR]),
            "attempted": attempted,
            "failed": attempted - self.verdicts[PASS],
            "metrics": metrics,
        }


def fresh_setup(workload, seed: int, previous=None):
    if previous is not None:
        workload.teardown(previous)
    clear_program_caches()
    gc.collect()
    start = clock()
    state = workload.setup(seed)
    return state, clock() - start


def measure(workload, args, info: dict) -> tuple[dict, Tally]:
    """The untraced run: end-to-end metrics."""
    from ybw.rng import Lcg64

    setups = []
    state = None
    for _ in range(SETUP_REPEATS):
        state, seconds = fresh_setup(workload, args.seed, state)
        setups.append(seconds)
    gc.collect()
    tally = Tally()
    rng = Lcg64(2 * args.seed)
    cycle = 0
    cycle_walls = []
    start = clock()
    try:
        while True:
            cycle_start = clock()
            for position, item in enumerate(workload.cycle(state, rng, cycle)):
                t0 = clock()
                verdict, detail = run_item(workload, state, item, in_process=False)
                tally.add(cycle, position, item, verdict, detail, clock() - t0)
            cycle_walls.append(clock() - cycle_start)
            cycle += 1
            # whole cycles only; stop at the cycle boundary nearest --seconds
            if clock() - start + cycle_walls[-1] / 2 >= args.seconds:
                break
    finally:
        workload.teardown(state)
    wall = clock() - start
    durations = sorted(tally.durations)
    n = len(durations)
    tail_index = max(n - TAIL_BEYOND - 1, 0)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if workload.measures_children
                               else resource.RUSAGE_SELF)
    passed = tally.verdicts["pass"]
    info.update({
        "cycles": cycle, "items": n, "wall_s": wall, "setup_runs_s": setups,
        "tail": {"percentile": 100.0 * (tail_index + 1) / n, "items": n,
                 "items_beyond": n - tail_index - 1},
        "fail_ratio": (n - passed) / n, "verdicts": dict(tally.verdicts),
        "failures": tally.failures, "cycle_walls_s": cycle_walls,
        "item_durations_s": tally.durations,
    })
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": n / wall,
        "item_p50_ms": 1000.0 * statistics.median(durations),
        "item_tail_ms": 1000.0 * durations[tail_index],
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "pass_ratio": passed / n,
    }
    return metrics, tally


def import_seconds() -> float:
    """Fresh-interpreter ``import ybw.cli`` minus a bare ``python -c pass``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def timed(code: str) -> float:
        start = clock()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                       capture_output=True, timeout=60)
        return clock() - start

    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        bare.append(timed("pass"))
        full.append(timed("import ybw.cli"))
    return statistics.median(full) - statistics.median(bare)


def traced(workload, args, info: dict) -> tuple[dict, Tally, bool]:
    """The traced run: per-layer metrics, then an untraced replay.  The
    returned flag is false when the replay gave a wrong verdict or raised,
    or when some item's module self times exceed its duration."""
    from tracer import Tracer
    from workloads import ERROR, KILLED, WRONG
    from ybw.rng import Lcg64
    from ybw.wreath import conjugacy_invariant

    cycles = max(1, round(args.seconds / workload.trace_cycle_s))
    tracer = Tracer()
    tally = Tally()
    tracer.install(callers=[sys.modules["workloads"]])
    try:
        clear_program_caches()
        gc.collect()
        tracer.begin_item(0)
        state = workload.setup(args.seed)
        tracer.end_item()
        rng = Lcg64(2 * args.seed)
        number = 0
        for cycle in range(cycles):
            for position, item in enumerate(workload.cycle(state, rng, cycle)):
                number += 1
                tracer.begin_item(number)
                verdict, detail = run_item(workload, state, item, in_process=True)
                tally.add(cycle, position, item, verdict, detail, tracer.end_item())
        workload.teardown(state)
    finally:
        tracer.uninstall()
    distinct = len({(id(c), conjugacy_invariant(g)) for c, g in tracer.character_args})

    # untraced replay of the same items on fresh objects
    state, _ = fresh_setup(workload, args.seed)
    rng = Lcg64(2 * args.seed)
    replay = []
    for cycle in range(cycles):
        for item in workload.cycle(state, rng, cycle):
            t0 = clock()
            verdict, _ = run_item(workload, state, item, in_process=True)
            replay.append((verdict, clock() - t0))
    workload.teardown(state)
    replay_ok = not any(v in (WRONG, ERROR) for v, _ in replay)
    kept = [(a, b) for a, (v, b) in zip(tally.durations, replay) if v != KILLED]
    traced_s, untraced_s = sum(a for a, _ in kept), sum(b for _, b in kept)

    totals = tracer.span_totals()
    calls, times, general = tracer.cyclo_totals()
    metrics: dict = {}
    absent: dict = {}

    def ratio(name: str, num: float, den: float, why: str) -> None:
        metrics[name] = num / den if den else 0.0
        if not den:
            absent[name] = why

    for name, (count, self_s) in totals.items():
        metrics[f"{name}.calls"] = count
        metrics[f"{name}.self_s"] = self_s
    for k, op in enumerate(("mul", "add", "inv")):
        metrics[f"cyclo.{op}.calls"] = calls[k]
        metrics[f"cyclo.{op}.self_s"] = times[k]
    ratio("cyclo.mul.general_ratio", general, calls[0], "no scalar multiplications")
    metrics["cyclo.max_conductor"] = tracer.max_conductor
    metrics["matrix.sparse_mul.entries_out"] = tracer.sparse_entries_out
    metrics["matrix.max_op_dim"] = tracer.max_op_dim
    extracts = totals.get("rmatrix.extract", [0])[0]
    ratio("rmatrix.extract.match_ratio", extracts, max(tracer.candidates_tried, extracts),
          "no extract_thoma calls")
    reps = totals.get("couple.rep_element", [0])[0]
    ratio("couple.level_mean", tracer.rep_levels, reps, "no rep_element calls")
    ratio("couple.support_ratio", tracer.rep_supports, tracer.rep_levels, "no rep_element calls")
    ratio("couple.distinct_class_ratio", distinct, len(tracer.character_args),
          "no character calls")
    if workload.name == "cli":
        metrics["cli.import_s"] = import_seconds()
    else:
        metrics["cli.import_s"] = 0.0
        absent["cli.import_s"] = "measured on the cli workload only"
    ratio("trace.overhead_ratio", traced_s, untraced_s, "no item finished in both passes")

    shares = [s / d for item, (s, d) in tracer.item_module_self().items() if item > 0 and d > 0]
    self_check = {"items": len(shares), "max_share": max(shares, default=0.0),
                  "ok": all(s <= 1.0 + 1e-9 for s in shares)}
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
    trace_file.write_text(json.dumps(tracer.to_json()))
    info.update({
        "cycles": cycles, "items": len(tally.durations), "traced_s": traced_s,
        "untraced_s": untraced_s, "trace_file": str(trace_file.relative_to(ROOT)),
        "spans": len(tracer.spans), "self_time_check": self_check, "absent": absent,
        "verdicts": dict(tally.verdicts), "failures": tally.failures,
        "replay_verdicts": dict(Counter(v for v, _ in replay)),
    })
    return metrics, tally, self_check["ok"] and replay_ok


def main() -> int:
    ap = argparse.ArgumentParser(description="Run one workload of the ybw benchmark.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")
    import_program()
    declared = declared_metrics()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](ROOT, OUT_DIR)
    info = metadata(args)
    if args.trace:
        metrics, tally, checks_ok = traced(workload, args, info)
        wanted = declared["per_layer"]
    else:
        metrics, tally = measure(workload, args, info)
        checks_ok = True
        wanted = declared["end_to_end"]
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        die(f"metrics declared in BENCHMARK.json but not measured: {', '.join(missing)}")
    result = tally.result({name: {"value": metrics[name], "unit": unit}
                           for name, unit in wanted.items()})
    result["correct"] = result["correct"] and checks_ok
    for name, entry in result["metrics"].items():
        print(f"{name:40} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps({"info": info}))
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
