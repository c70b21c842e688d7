#!/usr/bin/env python3
"""Benchmark the index kernels and the group layer.

The two index kernels are the per-permutation action table (``moved_values``
of ``arange(d**n)``, one axis transpose, as ``ambient_multiplicities`` builds
it per class) and the orbit labelling fixpoint, which pulls int32 labels
along each generator's powers by the same axis transposes (no action table);
both scale with d**n.  They are timed on the cyclic generator at 2**16 and 2**20
strings.  ``orbit_reps`` is also timed on one generator of order 420 (cycle
type 3.4.5.7 at n=20), whose long cycles the fixpoint must cross in few
sweeps, on the generators of D20 at d=2 and of C12 and D12 at d=3 (the
``orbits`` jobs of the ``library-kernels`` workload), and on S20's
transposition and 20-cycle at d=2, whose transpositions move one axis.  ``orbit_labels`` (sort-free labels
from the orbit minima) at C20 and D20, ``len(orbits(...))`` at C20 (labels
and sizes, no Orbit objects) and the ``representatives`` command at C20
(stdout to a null sink) run on a fresh group per sample.  ``necklaces``
generates the FKM codebook level by level, as ascending numpy blocks of
prenecklace rows; it is timed alone at C24 d=2 (699,252 necklaces).
``ambient_multiplicities`` with its
per-orbit split (every orbit's fixed counts projected in one call) is the
kernels' heaviest caller in ``characters``;
``isotypic_projector`` builds all 11 dense projectors of S6 at d=3 from
their orbit-representative columns, on a fresh group per sample, so that
each sample also builds the index arrays memoised on the group at d (the
orbit labels, and where each weight lands and each in-orbit entry reads);
its row also gives the tracemalloc peak of one such sample, which holds all
11 projectors, float64 since every character of S6 is real.
``np.argsort(labels, kind="stable")`` groups the 2**20 strings of C20 at
d=2 by their int32 orbit labels (52,488 orbits), as ``orbits``,
``MessageBasis.members`` and the projector index arrays do.
``moved_values`` pulls 2**20 int32 labels into a reused buffer at C20 d=2,
as each round of the orbit fixpoint does: along the rotation by 1 and by 8
(block swaps of 2 x 2**19 and 2**8 x 2**12 entries, copied in tiles) and
along the D20 reflection (19 reversed axes, moved by row gathers and
in-row lookups in strips).
``move_indices`` moves given strings by their digits, without a d**n table;
it is timed on all 2**16 strings and on the 4,116 necklace representatives
at n=16.  ``verify_classical`` (orbit labels plus every element moving every
representative) is timed on fresh copies of S7 and C16 at d=2, so that each
sample labels the orbits anew.  The quantum layer is timed at C16 d=2:
``message_basis_cyclic`` (orbit labels and rotation walks), the streamed
``write_basis_json`` export to a temporary file (one write per chunk of
whole messages, each chunk one join of preformatted names, tails and
message headers), ``verify_zero_error``, and ``dense_coding_summary`` on
that pass's report, which reads the trace of each (sector, element) sector
operator from it in O(|G| * n); both also at C20 d=2, where keying the
20 x 52,488 overlap blocks by pattern is the cost of the pass, one element
per batch as at C16.  ``verify_zero_error`` is also timed on the small bases of the
``cyclic-certify`` jobs, C10 d=2 (all 10 elements keyed by one sort and
scored as one batch) and C14 d=2 (two elements a batch).  The export alone is
also timed at C18 d=2: ``basis_json_lines`` drained into a null sink, all
262,144 states, about 0.56 GB of text.

The group layer scales with |G| instead: group validation, the square-root
tally, conjugacy classes and the character table, each timed on a fresh copy
of S6, S7, S4 x S4 and C2^8 (8 disjoint transpositions on 16 points, 256
one-element classes) so that every sample also builds the group's rank
index (int64 row keys up to degree 15); the copies share the read-only image
array.  The tracemalloc peak of C2^8's character table is also printed.
``chartable --group symmetric --n 7`` is also timed cold, in a fresh
interpreter, so that import costs stay visible: the eigensolver's class-sum
weights come from the standard library's ``random``, and the table imports
no ``numpy.random``.

Group construction is timed last: ``generate_group`` (closure by gathers of
image rows) on S8 and S9 from a transposition and an n-cycle and on the
generators of the four ``perfbench/groups`` files, on two groups whose
Cayley graphs have long diameters (one generator of cycle type 5.7.9.16, order
5040, and D500 from two reflections), ``make_named_group`` for
S8 and S9, one ``_rank`` pass over S9's 362,880 image rows (int64 keys, a
binary search each), and ``stabilizer_orders``, ``verify``'s
orbit-stabilizer check: one comparison of all the representatives' symbol
rows per block of elements, on D12 d=2 (200 representatives) and S9 d=2
(its 10 orbits on binary strings).
Construction builds image arrays only: no ``Permutation`` item is made until
a caller reads ``elements``.

The CLI layer times ``main(argv)`` alone, after the imports, in 10 fresh
interpreters with stdout sent to the null device: ``count --group cyclic
--n 4 --d 2``, whose plain argv is read straight from the option table, and
the same with ``--n=4``, which goes through the argparse parser (its
construction and argparse's first ``gettext`` call included).
Run from the repo root:

    python benchmarks/bench_kernels.py
    python benchmarks/bench_kernels.py --repeats 5
"""

import argparse
import contextlib
import dataclasses
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

import permchannel
from permchannel import (
    Permutation,
    ambient_multiplicities,
    character_table,
    cli,
    conjugacy_classes,
    dense_coding_summary,
    generate_group,
    isotypic_projector,
    kernels,
    load_group_file,
    make_named_group,
    message_basis_cyclic,
    orbit_labels,
    orbits,
    parse_group_file,
    square_root_count,
    stabilizer_orders,
    verify_classical,
    verify_zero_error,
)
from permchannel.encoding import basis_json_lines, necklaces, write_basis_json

ORDER_420_CYCLES = [(0, 1, 2), (3, 4, 5, 6), (7, 8, 9, 10, 11), (12, 13, 14, 15, 16, 17, 18)]
GROUP_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "groups"
GROUP_FILE = GROUP_DIR / "s4xs4.txt"
SRC_DIR = str(Path(permchannel.__file__).resolve().parents[1])
GROUP_OPS = {
    "validate": lambda g: g.validate(),
    "square_roots": lambda g: square_root_count(g, g.identity),
    "classes": conjugacy_classes,
    "chartable": character_table,
}


def timeit(fn, repeats):
    fn()  # warm imports and the allocator
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def traced_peak_mb(fn):
    """tracemalloc peak of one call of fn, in MB above the level at its start."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def time_on_fresh_group(op, group, repeats):
    """Median time of op on fresh copies of group, none of which has a cached table."""
    samples = []
    for _ in range(repeats + 1):  # the first sample warms imports and allocator
        fresh = dataclasses.replace(group)
        start = time.perf_counter()
        op(fresh)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples[1:])


def representatives_c20():
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        cli.main(["representatives", "--group", "cyclic", "--n", "20", "--d", "2"])


def drain_basis_json(basis):
    with open(os.devnull, "w") as sink:
        sink.writelines(basis_json_lines(basis))


def src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH, for fresh interpreters."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")])))


def cold_chartable_s7():
    """``chartable --group symmetric --n 7`` in a fresh interpreter: imports, group, classes and table."""
    argv = [sys.executable, "-m", "permchannel.cli", "chartable", "--group", "symmetric", "--n", "7"]
    subprocess.run(argv, stdout=subprocess.DEVNULL, env=src_env(), check=True)


CLI_RUNS = 10  # fresh interpreters per CLI row
TIME_MAIN = (  # prints the seconds of main(argv) alone, after the imports, stdout to a null sink
    "import contextlib, os, sys, time\n"
    "from permchannel.cli import main\n"
    "with open(os.devnull, 'w') as sink, contextlib.redirect_stdout(sink):\n"
    "    start = time.perf_counter()\n"
    "    main(sys.argv[1:])\n"
    "    elapsed = time.perf_counter() - start\n"
    "print(elapsed)\n"
)


def cli_layer():
    """``main(argv)`` in ``CLI_RUNS`` fresh interpreters: plain argv (read directly) and an ``=`` form (argparse)."""
    print()
    print(f"{'cli, fresh interpreter':<26}{'case':<22}{'runs':>10}{'time (s)':>10}")
    cases = (
        ("count C4 d=2, plain", ["count", "--group", "cyclic", "--n", "4", "--d", "2"]),
        ("count C4 d=2, --n=4", ["count", "--group", "cyclic", "--n=4", "--d", "2"]),
    )
    for case, argv in cases:
        command = [sys.executable, "-c", TIME_MAIN, *argv]
        runs = [subprocess.run(command, capture_output=True, env=src_env(), check=True) for _ in range(CLI_RUNS)]
        median = statistics.median(float(run.stdout) for run in runs)
        print(f"{'main(argv)':<26}{case:<22}{CLI_RUNS:>10}{median:>10.5f}")


def group_layer(repeats):
    groups = {
        "S6": make_named_group("symmetric", 6),
        "S7": make_named_group("symmetric", 7),
        "S4xS4": load_group_file(GROUP_FILE),
        "C2^8": generate_group([Permutation.from_cycles([(2 * i, 2 * i + 1)], 16) for i in range(8)]),
    }
    print()
    print(f"{'group':<8}{'order':>7}" + "".join(f"{name + ' (s)':>18}" for name in GROUP_OPS))
    for label, group in groups.items():
        times = [time_on_fresh_group(op, group, repeats) for op in GROUP_OPS.values()]
        print(f"{label:<8}{len(group):>7}" + "".join(f"{t:>18.4f}" for t in times))
    print(f"{'chartable S7, cold':<33}{timeit(cold_chartable_s7, repeats):>10.4f}  (fresh interpreter, imports included)")
    peak = traced_peak_mb(lambda: character_table(dataclasses.replace(groups["C2^8"])))
    print(f"{'chartable C2^8, peak':<33}{peak:>10.1f}  (MB, tracemalloc, fresh group)")


def kernel_layer(repeats):
    print(f"{'kernel':<26}{'case':<22}{'strings':>10}{'time (s)':>10}")

    def row(kernel, case, n, fn, d=2):
        print(f"{kernel:<26}{case:<22}{d**n:>10}{timeit(fn, repeats):>10.4f}")

    for n in (16, 20):
        inv = np.array(make_named_group("cyclic", n).generators[0].inverse().images, dtype=np.int64)
        points = np.arange(2**n)
        row("moved_values", f"C{n} d=2, arange", n, lambda: kernels.moved_values(points, inv, 2))
        row("orbit_reps", f"cyclic n={n} d=2", n, lambda: kernels.orbit_reps(inv.reshape(1, n), n, 2))
    for label, group in (("C20", make_named_group("cyclic", 20)), ("D20", make_named_group("dihedral", 20))):
        row("orbit_labels", f"{label} d=2, fresh group", 20, lambda: orbit_labels(dataclasses.replace(group), 2))
    c20 = make_named_group("cyclic", 20)
    row("len(orbits)", "C20 d=2, fresh group", 20, lambda: len(orbits(dataclasses.replace(c20), 2)))
    row("representatives", "C20 d=2, cli to null", 20, representatives_c20)
    row("necklaces", "C24 d=2, all blocks", 24, lambda: list(necklaces(24, 2)))
    long_order = Permutation.from_cycles(ORDER_420_CYCLES, 20)
    invs = np.array([long_order.inverse().images], dtype=np.int64)
    row("orbit_reps", "order 420, n=20 d=2", 20, lambda: kernels.orbit_reps(invs, 20, 2))
    for kind, n, d in (("dihedral", 20, 2), ("cyclic", 12, 3), ("dihedral", 12, 3)):
        invs = np.argsort(make_named_group(kind, n).generator_images, axis=1)
        row("orbit_reps", f"{kind[0].upper()}{n} d={d}, generators", n, lambda: kernels.orbit_reps(invs, n, d), d=d)
    s20 = [Permutation.from_cycles([(0, 1)], 20), Permutation.from_cycles([tuple(range(20))], 20)]
    invs = np.array([p.inverse().images for p in s20], dtype=np.int64)
    row("orbit_reps", "S20 generators d=2", 20, lambda: kernels.orbit_reps(invs, 20, 2))
    c16 = make_named_group("cyclic", 16)
    inv = np.array(c16.generators[0].inverse().images, dtype=np.int64)
    inverses = np.array([p.inverse().images for p in c16], dtype=np.int64)
    reps = orbit_labels(c16, 2)[0]
    row("move_indices", "cyclic n=16 d=2, all", 16, lambda: kernels.move_indices(inv, np.arange(2**16), 2))
    row("move_indices", "C16 d=2, reps x |G|", 16, lambda: kernels.move_indices(inverses, reps, 2))
    for label, group in (("S7", make_named_group("symmetric", 7)), ("C16", c16)):
        row("verify_classical", f"{label} d=2", group.degree, lambda: verify_classical(dataclasses.replace(group), 2))
    basis = message_basis_cyclic(16, 2)
    row("message_basis_cyclic", "C16 d=2", 16, lambda: message_basis_cyclic(16, 2))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "basis.json"
        row("write_basis_json", "C16 d=2, temp file", 16, lambda: write_basis_json(basis, path))
    c18_basis = message_basis_cyclic(18, 2)
    row("basis_json_lines", "C18 d=2, null sink", 18, lambda: drain_basis_json(c18_basis))
    row("verify_zero_error", "C16 d=2", 16, lambda: verify_zero_error(basis.group, basis))
    report = verify_zero_error(basis.group, basis)
    row("dense_coding_summary", "C16 d=2, one report", 16, lambda: dense_coding_summary(basis, report))
    for n in (10, 14):
        small = message_basis_cyclic(n, 2)
        row("verify_zero_error", f"C{n} d=2", n, lambda: verify_zero_error(small.group, small))
    c20_basis = message_basis_cyclic(20, 2)
    row("verify_zero_error", "C20 d=2", 20, lambda: verify_zero_error(c20_basis.group, c20_basis))
    c20_report = verify_zero_error(c20_basis.group, c20_basis)
    row("dense_coding_summary", "C20 d=2, one report", 20, lambda: dense_coding_summary(c20_basis, c20_report))
    c12 = make_named_group("cyclic", 12)
    table = character_table(c12)
    row("ambient_multiplicities", "C12 d=2, per_orbit", 12,
        lambda: ambient_multiplicities(c12, 2, table=table, per_orbit=True))
    s6 = make_named_group("symmetric", 6)
    s6_table = character_table(s6)

    def every_projector(g):
        return [isotypic_projector(g, 3, mu, table=s6_table) for mu in range(len(s6_table.irreps))]

    projectors = time_on_fresh_group(every_projector, s6, repeats)
    peak = traced_peak_mb(lambda: every_projector(dataclasses.replace(s6)))
    print(f"{'isotypic_projector':<26}{'S6 d=3, fresh group':<22}{3**6:>10}{projectors:>10.4f}  ({peak:.1f} MB peak)")
    c20_reps, c20_labels = orbit_labels(c20, 2)
    row("argsort(stable)", f"C20 d=2, {len(c20_reps)} orbits", 20, lambda: np.argsort(c20_labels, kind="stable"))
    labels, buffer = np.arange(2**20, dtype=np.int32), np.empty(2**20, dtype=np.int32)
    reflection = np.argsort(make_named_group("dihedral", 20).generator_images[1])
    pulls = (
        ("C20 r d=2, buffer", (np.arange(20) - 1) % 20),
        ("C20 r**8 d=2, buffer", (np.arange(20) - 8) % 20),
        ("D20 reflection, buffer", reflection),
    )
    for case, inv in pulls:
        row("moved_values", case, 20, lambda: kernels.moved_values(labels, inv, 2, buffer))


def construction_layer(repeats):
    print()
    print(f"{'construction':<26}{'case':<22}{'items':>10}{'time (s)':>10}")

    def row(name, case, fn):  # items: the group order, or the number of stabilizer orders
        print(f"{name:<26}{case:<22}{len(fn()):>10}{timeit(fn, repeats):>10.4f}")

    for n in (8, 9):
        gens = [Permutation.from_cycles([(0, 1)], n), Permutation.from_cycles([tuple(range(n))], n)]
        row("generate_group", f"S{n}, (0 1) and n-cycle", lambda: generate_group(gens))
    for path in sorted(GROUP_DIR.glob("*.txt")):
        gens = parse_group_file(path.read_text()).generators
        row("generate_group", f"{path.name} generators", lambda: generate_group(gens))
    # Long Cayley-graph diameters: one generator of order 5040, and D500 from two reflections.
    cycles = Permutation.from_cycles([range(a, b) for a, b in ((0, 5), (5, 12), (12, 21), (21, 37))], 37)
    row("generate_group", "cycles 5.7.9.16", lambda: generate_group([cycles]))
    reflections = [Permutation(tuple((k - i) % 500 for i in range(500))) for k in (0, 1)]
    row("generate_group", "D500, 2 reflections", lambda: generate_group(reflections))
    for n in (8, 9):
        row("make_named_group", f"symmetric n={n}", lambda: make_named_group("symmetric", n))
    s9 = make_named_group("symmetric", 9)
    row("_rank", "S9 images, one pass", lambda: s9._rank(s9.images))
    reps = orbit_labels(s9, 2)[0][:200]
    d12 = make_named_group("dihedral", 12)
    d12_reps = orbit_labels(d12, 2)[0][:200]
    row("stabilizer_orders", f"D12 d=2, {len(d12_reps)} reps", lambda: stabilizer_orders(d12, d12_reps, 2))
    row("stabilizer_orders", f"S9 d=2, {len(reps)} reps", lambda: stabilizer_orders(s9, reps, 2))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    kernel_layer(args.repeats)
    group_layer(args.repeats)
    construction_layer(args.repeats)
    cli_layer()


if __name__ == "__main__":
    main()
