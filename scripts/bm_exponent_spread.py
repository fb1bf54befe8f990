#!/usr/bin/env python3
"""Spread of the Brownian tail exponent s against n_levels, measured and predicted.

For n_levels = 8..20, runs the p = 2 sweep's level sums for 4000 Brownian
replicates on [0, 1], fits each replicate's tail exponent s (its critical
alpha is (1 - s)/2), and prints the sample mean and sd of s beside the
delta-method prediction of `criterion.predicted_exponent_law`.

Usage: python3 scripts/bm_exponent_spread.py
"""

import numpy as np

from besovlab import GeneratorSpec, Grid
from besovlab.criterion import predicted_exponent_law, tail_exponent

REPLICATES = 4000
LEVELS = range(8, 21)


def main():
    print("n_levels  mean s: measured  predicted   sd s: measured  predicted")
    for n_levels in LEVELS:
        spec = GeneratorSpec("bm", Grid(0.0, 1.0, n_levels), seed=2026)
        raw = np.empty((REPLICATES, n_levels))
        spec.level_sum_rows(n_levels, 2.0)(raw, 0)
        s, _ = tail_exponent(raw)
        mean, sd = predicted_exponent_law(spec, n_levels, 2.0)
        print(
            f"{n_levels:8d}  {s.mean():+17.6f}  {mean:+9.6f}  "
            f"{s.std(ddof=1):15.6f}  {sd:9.6f}"
        )


if __name__ == "__main__":
    main()
