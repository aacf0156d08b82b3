#!/usr/bin/env python3
"""Monte Carlo empirical characteristic functions against analytic curves.

Brownian pairs target 1/cosh(t); the weighted pair X_i = int u dW_i targets
sech(t/3). Sample counts are modest so the script runs in a few seconds;
bump --samples for tighter agreement.
"""
import argparse

import numpy as np

from levylab import covariance as cov
from levylab import simulate as sim
from levylab import spectral as sp


def run(name, kernel, analytic, samples, level, seed):
    config = sim.MCConfig(seed=seed, n_samples=samples, level=level, kernel1=kernel, kernel2=kernel)
    result = sim.run_mc(config, threads=2, t_grid=[0.5, 1.0, 2.0, 3.0])
    ecf = result.cf
    print(f"{name}: variance={result.variance:.5f}")
    for t, est, se in zip(ecf.t_grid, ecf.estimates, ecf.std_errors):
        target = analytic(t)
        print(
            f"    t={t:3.1f}  re={est.real:+.5f}  target={target:+.5f}  "
            f"dev={est.real - target:+.5f}  (se={se:.5f})"
        )


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--samples", type=int, default=20_000)
    parser.add_argument("--level", type=int, default=8)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    run("brownian", cov.brownian(), lambda t: 1.0 / np.cosh(t), args.samples, args.level, args.seed)
    wk = cov.weighted_poly(1)
    run(
        "weighted f(u)=u",
        wk,
        lambda t: sp.weighted_cf(wk.weight.norm_sq, t),
        args.samples,
        args.level,
        args.seed,
    )


if __name__ == "__main__":
    main()
