#!/usr/bin/env python3
"""Inter-level chaos distances for several covariance pairs.

For Brownian pairs the squared distance between consecutive approximation
levels follows the exact law 2^{-n-2}; for fractional pairs the table shows
the empirical decay and whether the pair is covered by the existence
condition 1/p + 1/q > 1.
"""
from levylab import covariance as cov
from levylab import levy_kernel as lk

PAIRS = [
    ("brownian / brownian", cov.brownian(), cov.brownian()),
    ("fbm 0.75 / fbm 0.75", cov.fractional_brownian(0.75), cov.fractional_brownian(0.75)),
    ("fbm 0.35 / fbm 0.35", cov.fractional_brownian(0.35), cov.fractional_brownian(0.35)),
    ("fbm 0.2  / fbm 0.2", cov.fractional_brownian(0.2), cov.fractional_brownian(0.2)),
    ("fbm 0.1  / fbm 0.45", cov.fractional_brownian(0.1), cov.fractional_brownian(0.45)),
]


def main():
    for name, r1, r2 in PAIRS:
        table = lk.cauchy_table(range(1, 7), r1, r2)
        slope = "n/a" if table.slope is None else f"{table.slope:+.3f}"
        print(f"{name}: flag={table.flag} log2-slope={slope}")
        for n, m, norm_sq, refine in table.rows:
            print(f"    ({n},{m})  norm_sq={norm_sq:.6e}  refine={refine}")


if __name__ == "__main__":
    main()
