#!/usr/bin/env python3
"""Benchmark the index kernels and the group layer.

The two hot kernels are the per-permutation index tables and the orbit
labelling sweep; both scale with d**n.  The first timing column is labelled
by the backend that dispatch actually ran (numba or numpy).

The group layer scales with |G| instead: group validation, the square-root
tally, conjugacy classes and the character table, each timed on a fresh copy
of S6, S7 and S4 x S4 so that every sample also builds the group's image
array and rank index.  Run from the repo root:

    python benchmarks/bench_kernels.py
    python benchmarks/bench_kernels.py --n-max 22 --repeats 5
"""

import argparse
import dataclasses
import importlib.util
import statistics
import time
from pathlib import Path

import numpy as np

from permchannel import (
    character_table,
    conjugacy_classes,
    kernels,
    load_group_file,
    make_named_group,
    square_root_count,
)

GROUP_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "groups" / "s4xs4.txt"
GROUP_OPS = {
    "validate": lambda g: g.validate(),
    "square_roots": lambda g: square_root_count(g, g.identity),
    "classes": conjugacy_classes,
    "chartable": character_table,
}


def timeit(fn, repeats):
    fn()  # warm (JIT compile / cache touch)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def time_on_fresh_group(op, group, repeats):
    """Median time of op on fresh copies of group, none of which has a cached table."""
    samples = []
    for _ in range(repeats + 1):  # the first sample warms imports and allocator
        fresh = dataclasses.replace(group)
        start = time.perf_counter()
        op(fresh)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples[1:])


def group_layer(repeats):
    groups = {
        "S6": make_named_group("symmetric", 6),
        "S7": make_named_group("symmetric", 7),
        "S4xS4": load_group_file(GROUP_FILE),
    }
    print()
    print(f"{'group':<8}{'order':>7}" + "".join(f"{name + ' (s)':>18}" for name in GROUP_OPS))
    for label, group in groups.items():
        times = [time_on_fresh_group(op, group, repeats) for op in GROUP_OPS.values()]
        print(f"{label:<8}{len(group):>7}" + "".join(f"{t:>18.4f}" for t in times))


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

    group_layer(args.repeats)


if __name__ == "__main__":
    main()
