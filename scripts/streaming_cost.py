#!/usr/bin/env python3
"""Measure the cost of a one-row append against a full refit as n grows.

An append of m rows borders the cached Cholesky factor of order n by m
rows and columns instead of refactorizing: triangular solves against
the old factor, and one scalar pivot per row for a few rows.  With
m = 1 that is O(n^2) against the refit's O(n^3), so the append's cost
should stay a small fraction of the refit cost and shrink as n grows.

The coefficients are solved (one more O(n^2) back substitution) when a
model's ``alpha`` is first read.  The refit and the "append ms" column
include that read, so the ratio compares the same work; "bare ms" is
the append alone, all that a stream pays for a row it does not score.

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
    print(f"{'n':>6} {'refit ms':>10} {'append ms':>10} {'bare ms':>10} "
          f"{'append/refit':>13}")
    for n in args.sizes:
        X = rng.standard_normal((n, args.dim))
        row = rng.standard_normal((1, args.dim))
        stacked = np.vstack([X, row])
        t_refit = median_time(lambda: fit(stacked, spec).alpha, args.reps)

        def time_appends(call):
            bases = iter([fit(X, spec) for _ in range(args.reps)])
            return median_time(lambda: call(next(bases)), args.reps)

        t_append = time_appends(lambda m: fit_incremental(m, row).alpha)
        t_bare = time_appends(lambda m: fit_incremental(m, row))
        print(f"{n:>6} {1e3 * t_refit:>10.2f} {1e3 * t_append:>10.2f} "
              f"{1e3 * t_bare:>10.2f} {t_append / t_refit:>12.2%}")


if __name__ == "__main__":
    main()
