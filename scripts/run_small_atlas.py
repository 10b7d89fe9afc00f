#!/usr/bin/env python3
"""Sweep every subgroup pair of one small symmetric group.

Degrees 2-4 finish in about a second. Degree 5 classifies the 24,336
ordered pairs of S5's enumerated subgroups in about 45 s
single-threaded; pass --jobs to spread the pair classification over
processes (output is identical regardless). The summary printed at the
end is the same JSON the atlas CLI emits, with the gap-region ids left in
the report; nonempty oracle_disagreements or symmetry_violations means a
bug.
"""

import argparse
import json
import time

from subindep.atlas import classify_all_pairs, emit_report
from subindep.pipeline import Config


def main() -> None:
    parser = argparse.ArgumentParser(
        description="Classify all subgroup pairs of a symmetric group.")
    parser.add_argument("--degree", type=int, default=4, choices=range(2, 6))
    parser.add_argument("--out", default=None,
                        help="report path (default atlas_s<degree>.csv)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--max-gens", type=int, default=2)
    parser.add_argument("--full-lattice", action="store_true",
                        help="verify the generator sweep found every subgroup")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    out = args.out or f"atlas_s{args.degree}.{args.format}"
    started = time.perf_counter()
    rows, summary = classify_all_pairs(args.degree, Config(),
                                       max_gens=args.max_gens,
                                       full_lattice=args.full_lattice,
                                       jobs=args.jobs)
    elapsed = time.perf_counter() - started
    emit_report(rows, summary, out, args.format)
    print(json.dumps({k: v for k, v in summary.items() if k != "gap_region_ids"},
                     indent=2))
    print(f"wrote {len(rows)} rows to {out} in {elapsed:.1f}s")


if __name__ == "__main__":
    main()
