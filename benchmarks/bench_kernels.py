#!/usr/bin/env python3
"""Benchmark the dispatched kernels against their pure-numpy fallbacks.

The two hot kernels are the per-permutation index tables and the orbit
labelling sweep; both scale with d**n.  The first timing column is labelled
by the backend that dispatch actually ran (numba or numpy).  Run from the
repo root:

    python benchmarks/bench_kernels.py
    python benchmarks/bench_kernels.py --n-max 22 --repeats 5
"""

import argparse
import importlib.util
import statistics
import time

import numpy as np

from permchannel import kernels, make_named_group


def timeit(fn, repeats):
    fn()  # warm (JIT compile / cache touch)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-min", type=int, default=12)
    parser.add_argument("--n-max", type=int, default=20)
    parser.add_argument("--d", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    backend = "numba" if kernels.JIT_ENABLED else "numpy"
    if importlib.util.find_spec("numba") is None:
        print("note: numba is not installed; both columns use numpy")
    elif not kernels.JIT_ENABLED:
        print("note: JIT disabled (PERMCHANNEL_DISABLE_JIT); both columns use numpy")

    dispatch = f"{backend} (s)"
    print(f"{'kernel':<14}{'n':>4}{'d':>3}{'size':>10}{dispatch:>12}{'fallback (s)':>13}{'speedup':>9}")
    for n in range(args.n_min, args.n_max + 1, 2):
        group = make_named_group("cyclic", n)
        inv = np.array(group.generators[0].inverse().images, dtype=np.int64)
        invs = inv.reshape(1, n)

        run_t = timeit(lambda: kernels.action_table(inv, args.d), args.repeats)
        np_t = timeit(lambda: kernels.action_table_numpy(inv, args.d), args.repeats)
        size = args.d**n
        print(f"{'action_table':<14}{n:>4}{args.d:>3}{size:>10}{run_t:>12.4f}{np_t:>13.4f}{np_t / run_t:>9.1f}")

        run_t = timeit(lambda: kernels.orbit_reps(invs, n, args.d), args.repeats)
        np_t = timeit(lambda: kernels.orbit_reps_numpy(invs, n, args.d), args.repeats)
        print(f"{'orbit_reps':<14}{n:>4}{args.d:>3}{size:>10}{run_t:>12.4f}{np_t:>13.4f}{np_t / run_t:>9.1f}")


if __name__ == "__main__":
    main()
