#!/usr/bin/env python3
"""Measure the cost of a one-row append against a full refit as n grows.

An append of m rows borders the cached Cholesky factor of order n by m
rows and columns instead of refactorizing: one triangular solve per new
row against the old factor, then an m x m factorization.  With m = 1
that is O(n^2) against the refit's O(n^3), so the append's cost should
stay a small fraction of the refit cost and shrink as n grows.

    python scripts/streaming_cost.py --sizes 250 500 1000 2000
"""

import argparse
import time

import numpy as np

from ocksr.kernel import KernelSpec
from ocksr.model import fit, fit_incremental


def median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def main() -> None:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sizes", type=int, nargs="+", default=[250, 500, 1000, 2000])
    ap.add_argument("--dim", type=int, default=512)
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    spec = KernelSpec(sigma=float(np.sqrt(args.dim)), delta=1e-8)
    print(f"{'n':>6} {'refit ms':>10} {'append ms':>10} {'append/refit':>13}")
    for n in args.sizes:
        X = rng.standard_normal((n, args.dim))
        row = rng.standard_normal((1, args.dim))
        stacked = np.vstack([X, row])
        t_refit = median_time(lambda: fit(stacked, spec), args.reps)
        bases = [fit(X, spec) for _ in range(args.reps)]
        base_iter = iter(bases)
        t_append = median_time(lambda: fit_incremental(next(base_iter), row),
                               args.reps)
        print(f"{n:>6} {1e3 * t_refit:>10.2f} {1e3 * t_append:>10.2f} "
              f"{t_append / t_refit:>12.2%}")


if __name__ == "__main__":
    main()
