#!/usr/bin/env python3
"""Census of normal-form R-matrices: for every partition pair up to a given
dimension, build the normal form, extract its weights back, and tabulate the
cycle-character sequence.

Usage: python scripts/roundtrip_census.py [--max-d D] [--n-max N]
"""

import argparse
import sys
import time

from ybw.rmatrix import char_cycle, extract_thoma, normal_forms_of_dim


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-d", type=int, default=5)
    ap.add_argument("--n-max", type=int, default=6)
    args = ap.parse_args()

    start = time.time()
    total = 0
    for d in range(1, args.max_d + 1):
        for params, r in normal_forms_of_dim(d):
            recovered = extract_thoma(r)
            if recovered != params:
                print(f"d={d}: built from {params}, recovered {recovered}")
                sys.exit(1)
            chars = [char_cycle(r, n) for n in range(2, args.n_max + 1)]
            rendered = ", ".join(str(c) for c in chars)
            print(f"d={d}  {str(params):42}  chi(c_2..c_{args.n_max}) = [{rendered}]")
            total += 1
    print(f"{total} normal forms round-tripped in {time.time() - start:.2f}s")


if __name__ == "__main__":
    main()
