#!/usr/bin/env python3
"""List the canonical class representatives for each magic parameter s.

Usage:
    python scripts/class_census.py [--max-s N]

Each magic square class (one dihedral orbit) is a lattice point of one of the
two families.  For every s this prints the (family, i, j, k) coordinates of
each class together with its reduced grid, and tallies how the classes split
between the families.
"""

from __future__ import annotations

import argparse
from collections import Counter

from magic3 import Family, construct, iter_decompositions


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-s", type=int, default=12)
    args = parser.parse_args()

    for s in range(4, args.max_s + 1):
        classes = [d for d in iter_decompositions(s) if d.symmetry.value == "id"]
        split = Counter(d.family for d in classes)
        print(
            f"s={s}: {len(classes)} classes "
            f"(F1: {split[Family.F1]}, F2: {split[Family.F2]})"
        )
        for d in classes:
            rows = construct(d).square.rows()
            grid = "  ".join(" ".join(f"{v:>3}" for v in row) for row in rows)
            print(f"  {d.family.value} i={d.i} j={d.j} k={d.k}   {grid}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
