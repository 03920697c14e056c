#!/usr/bin/env python3
"""Sweep the bundled parameter corpus: build each couple, then compare the
trace character against the closed form on seeded random elements, on
a fixed seeded sample with supports in [1, 24], and on one fixed element
with many equal cycles.

Usage: python scripts/theorem_sweep.py [--samples N] [--seed S] [--window W]
"""

import argparse
import sys
import time

from ybw.cli import corpus_dir
from ybw.construct import end_to_end_check
from ybw.couple import verify_extremality
from ybw.hirai import is_yb_admissible
from ybw.io import params_from_json, read_json_file
from ybw.perms import FinitePermutation
from ybw.rng import Lcg64
from ybw.wreath import WreathElement

# the fixed long-support sample: LONG_SAMPLES elements in [1, LONG_WINDOW]
LONG_SEED, LONG_SAMPLES, LONG_WINDOW = 24, 10, 24
# the fixed many-cycle element: EQUAL_CYCLES[L] uncolored L-cycles, then one
# cycle of length L colored t (mod the group order) for each (t, L) in
# COLORED_CYCLES, so equal uncolored cycles are grouped next to colored ones
EQUAL_CYCLES, COLORED_CYCLES = {2: 300, 3: 100}, ((1, 1), (1, 2), (-1, 3))


def many_cycles(group):
    cycles, colors, start = [], {}, 1
    lengths = [(0, L) for L, count in EQUAL_CYCLES.items() for _ in range(count)]
    for t, length in lengths + list(COLORED_CYCLES):
        if t:
            colors[start] = t % group.order
        if length > 1:
            cycles.append(range(start, start + length))
        start += length
    return WreathElement(group, colors, FinitePermutation.from_cycles(cycles))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=int, default=100)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--window", type=int, default=5,
                    help="supports are sampled inside [1, window]")
    ap.add_argument("--pairs", type=int, default=25,
                    help="disjoint-support pairs for the extremality check")
    args = ap.parse_args()
    for option in ("samples", "pairs"):
        if getattr(args, option) < 1:
            ap.error(f"--{option} must be at least 1: a sweep over none checks nothing")

    manifest = read_json_file(corpus_dir() / "expectations.json")
    print(f"{'corpus file':34} {'d':>2} {'chars':>6} {'pairs':>6} {'time':>7}")
    for name in (item["file"] for item in manifest["params"]):
        params = params_from_json(read_json_file(corpus_dir() / name), name)
        adm = is_yb_admissible(params)
        if not adm.verdict:
            print(f"{name}: not admissible: {', '.join(adm.violations)}")
            sys.exit(1)
        start = time.time()
        rng = Lcg64(args.seed)
        sample = [rng.wreath_element(params.group, 1, args.window)
                  for _ in range(args.samples)]
        long_rng = Lcg64(LONG_SEED)
        sample += [long_rng.wreath_element(params.group, 1, LONG_WINDOW)
                   for _ in range(LONG_SAMPLES)]
        sample.append(many_cycles(params.group))
        result = end_to_end_check(params, sample)
        if not result.thoma_ok:
            print(f"{name}: built {result.thoma_built}, expected {result.thoma_expected}")
            sys.exit(1)
        if result.char_mismatches:
            g, lhs, rhs = result.char_mismatches[0]
            print(f"{name}: at {g!r} the trace gives {lhs}, the closed form {rhs}")
            sys.exit(1)
        couple = result.couple
        pair_rng = Lcg64(args.seed + 1)
        pairs = [pair_rng.disjoint_pair(params.group) for _ in range(args.pairs)]
        ext = verify_extremality(couple, pairs)
        if not ext.ok:
            g, h, lhs, rhs = ext.failures[0]
            print(f"{name}: chi(gh) = {lhs} but chi(g) chi(h) = {rhs} for g = {g!r}, h = {h!r}")
            sys.exit(1)
        elapsed = time.time() - start
        print(f"{name:34} {couple.d:>2} {result.samples:>6} "
              f"{ext.pairs_checked:>6} {elapsed:>6.2f}s")
    print("all corpus sets verified exactly")


if __name__ == "__main__":
    main()
