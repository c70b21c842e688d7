import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import act_tuple, brute_closure, brute_orbits, index_table
from permchannel import Permutation, generate_group, make_named_group, orbit_labels
from permchannel import kernels


def inverse_images(p: Permutation) -> np.ndarray:
    return np.array(p.inverse().images, dtype=np.int64)


def moved_arange(inv: np.ndarray, d: int) -> np.ndarray:
    """The action table: ``moved_values`` of every string's own index."""
    return kernels.moved_values(np.arange(d ** len(inv), dtype=np.int64), inv, d)


def digit_table(images, n: int, d: int) -> np.ndarray:
    """Index of each string moved by ``images``, from its digits: digit j goes to position images[j].

    Built digit by digit as an outer sum, most significant position first, so no transpose is involved.
    """
    table = np.zeros(1, dtype=np.int64)
    for image in images:
        table = np.add.outer(table, np.arange(d, dtype=np.int64) * d ** (n - 1 - int(image))).ravel()
    return table


@pytest.mark.parametrize("n,d", [(1, 2), (3, 2), (4, 2), (3, 3), (2, 5), (4, 4)])
def test_action_table_matches_tuple_action(n, d):
    rng = np.random.default_rng(7)
    for _ in range(5):
        p = Permutation(tuple(rng.permutation(n).tolist()))
        table = moved_arange(inverse_images(p), d)
        for ix, x in enumerate(itertools.product(range(d), repeat=n)):
            image = act_tuple(p.images, x)
            expected = 0
            for s in image:
                expected = expected * d + s
            assert table[ix] == expected


@pytest.mark.parametrize("n,d", [(0, 2), (1, 1), (3, 1), (70, 1), (1, 3), (4, 2), (5, 2), (4, 3), (6, 2)])
def test_action_table_matches_oracle(n, d):
    rng = np.random.default_rng(3)
    for _ in range(10):
        images = tuple(rng.permutation(n).tolist())
        table = moved_arange(inverse_images(Permutation(images)), d)
        assert table.dtype == np.int64
        assert np.array_equal(table, index_table(images, n, d))


@pytest.mark.parametrize("n,d", [(0, 2), (1, 1), (70, 1), (1, 3), (4, 2), (3, 3), (5, 2)])
def test_moved_values_gathers_through_the_action_table(n, d):
    rng = np.random.default_rng(5)
    for _ in range(5):
        images = tuple(rng.permutation(n).tolist())
        inv = inverse_images(Permutation(images))
        values = rng.integers(0, 1000, d**n).astype(np.int32)
        moved = kernels.moved_values(values, inv, d)
        assert moved.dtype == np.int32
        assert np.array_equal(moved, values[digit_table(images, n, d)])


@st.composite
def moves(draw):
    """(n, d, images): a rotation, a reflection or any permutation of n <= 12 points, d**n <= 4096."""
    n = draw(st.integers(0, 12))
    d = draw(st.integers(1, 9).filter(lambda d: d**n <= 4096))
    kind = draw(st.sampled_from(["rotation", "reflection", "any"]))
    if kind == "any" or n == 0:
        return n, d, tuple(draw(st.permutations(range(n))))
    k = draw(st.integers(0, n - 1))
    return n, d, tuple((k + i) % n if kind == "rotation" else (k - i) % n for i in range(n))


@given(moves())
@example((0, 2, ()))  # one empty string
@example((7, 1, (1, 2, 3, 4, 5, 6, 0)))  # d = 1: the one string
@example((12, 2, (4, 5, 6, 7, 8, 9, 10, 11, 0, 1, 2, 3)))  # a two-block swap
@settings(max_examples=80, deadline=None)
def test_moved_values_into_a_buffer_gathers_through_the_action_table(case):
    n, d, images = case
    inv = inverse_images(Permutation(images))
    values = np.random.default_rng(d**n).integers(0, 2**31 - 1, d**n).astype(np.int32)
    before = values.copy()
    out = np.full_like(values, -1)
    assert kernels.moved_values(values, inv, d, out) is out
    assert np.array_equal(out, values[digit_table(images, n, d)])
    assert np.array_equal(values, before)


@pytest.mark.parametrize("n,d", [(14, 2), (9, 3), (7, 4)])
def test_moved_values_of_every_rotation_and_reflection(n, d):
    # Large enough that the block swaps of the rotations run over several tiles, or columns of them.
    values = np.random.default_rng(n).permutation(d**n).astype(np.int32)
    out = np.empty_like(values)
    for k in range(n):
        for images in ([(k + i) % n for i in range(n)], [(k - i) % n for i in range(n)]):
            expected = values[digit_table(images, n, d)]
            inv = inverse_images(Permutation(tuple(images)))
            assert np.array_equal(kernels.moved_values(values, inv, d, out), expected)
            assert np.array_equal(kernels.moved_values(values, inv, d), expected)


def reflections(n: int):
    """Images of the n reflections of D_n: position i to (k - i) mod n."""
    return [tuple((k - i) % n for i in range(n)) for k in range(n)]


@pytest.mark.parametrize("n,d", [(n, 2) for n in range(3, 21)] + [(n, 3) for n in range(3, 13)] + [(6, 4)])
def test_moved_values_reverses_digits_along_every_reflection(n, d, monkeypatch):
    # The digit reversal also runs here from 1 entry on, in strips of 3 rows, so short strips and odd and
    # even splits of the reversed digits (n - 1 or n of them) all occur; at 2**20 it runs with its defaults too.
    values = np.random.default_rng(n).integers(0, 2**31 - 1, d**n).astype(np.int32)
    before = values.copy()
    reverse_digits, reversed_runs = kernels._reverse_digits, []

    def counted(source, r, d, out):
        reversed_runs.append(r)
        reverse_digits(source, r, d, out)

    monkeypatch.setattr(kernels, "_reverse_digits", counted)
    sizes = [(kernels.REVERSE_MIN_SIZE, kernels.REVERSE_STRIP)] if d**n >= kernels.REVERSE_MIN_SIZE else []
    out = np.empty_like(values)
    for images in reflections(n):
        inv = inverse_images(Permutation(images))
        expected = values[digit_table(images, n, d)]
        for min_size, strip in sizes + [(1, 3)]:
            monkeypatch.setattr(kernels, "REVERSE_MIN_SIZE", min_size)
            monkeypatch.setattr(kernels, "REVERSE_STRIP", strip)
            out.fill(-1)
            assert kernels.moved_values(values, inv, d, out) is out
            assert np.array_equal(out, expected)
            assert np.array_equal(kernels.moved_values(values, inv, d), expected)
    assert np.array_equal(values, before)
    # Two reflections reverse the digits: i -> -i (all but the first) and i -> n - 1 - i (all of them).
    assert sorted(reversed_runs) == [n - 1] * (2 * len(sizes) + 2) + [n] * (2 * len(sizes) + 2)


@pytest.mark.parametrize(
    "rows,cols", [(1, 9000), (2, 20000), (4, 5), (5, 7), (255, 300), (256, 257), (300, 70), (9000, 3), (1000, 129)]
)
def test_swap_blocks_is_a_transpose(rows, cols):
    source = np.arange(rows * cols, dtype=np.int32).reshape(rows, cols)
    out = np.full((cols, rows), -1, dtype=np.int32)
    kernels._swap_blocks(source, out)
    assert np.array_equal(out, source.T)


@pytest.mark.parametrize("n,d", [(1, 1), (4, 1), (1, 3), (3, 2), (5, 2), (4, 3), (3, 4)])
def test_move_indices_matches_oracle(n, d):
    rng = np.random.default_rng(11)
    perms = [Permutation(tuple(rng.permutation(n).tolist())) for _ in range(4)]
    invs = np.array([p.inverse().images for p in perms], dtype=np.int64)
    indices = rng.integers(d**n, size=7)
    moved = kernels.move_indices(invs, indices, d)
    assert moved.dtype == np.int64 and moved.shape == (4, 7)
    for p, inv, row in zip(perms, invs, moved):
        oracle = index_table(p.images, n, d)
        assert np.array_equal(row, oracle[indices])
        assert np.array_equal(kernels.move_indices(inv, np.arange(d**n), d), oracle)


def test_move_indices_of_no_strings():
    invs = np.array([[1, 2, 0], [0, 1, 2]], dtype=np.int64)
    assert kernels.move_indices(invs, [], 2).shape == (2, 0)
    assert kernels.move_indices(invs[0], np.array([], dtype=np.int64), 3).shape == (0,)


def test_move_indices_under_every_element_of_s4_at_d3():
    group = make_named_group("symmetric", 4)
    invs = np.array([p.inverse().images for p in group], dtype=np.int64)
    moved = kernels.move_indices(invs, np.arange(3**4), 3)
    assert np.array_equal(moved, np.array([index_table(p.images, 4, 3) for p in group]))


def brute_orbit_minima(tables, size):
    """Least point of each point's orbit, by search along every table."""
    label = [-1] * size
    for start in range(size):
        if label[start] < 0:
            label[start], stack = start, [start]
            while stack:
                x = stack.pop()
                for t in tables:
                    if label[t[x]] < 0:
                        label[t[x]] = start
                        stack.append(t[x])
    return label


def brute_order(table) -> int:
    """Least k > 0 with table composed k times the identity, by repeated composition."""
    power, k = list(table), 1
    while power != sorted(power):
        power, k = [table[x] for x in power], k + 1
    return k


def table_orders(tables) -> list[int]:
    return [brute_order(t) for t in np.asarray(tables).tolist()]


@pytest.mark.parametrize("count", [0, 1, 2, 3])
def test_orbit_minima_match_search(count):
    rng = np.random.default_rng(count)
    for size in (1, 2, 17, 60):
        tables = np.array([rng.permutation(size) for _ in range(count)], dtype=np.int64).reshape(count, size)
        labels = kernels.orbit_minima(tables, table_orders(tables))
        assert labels.dtype == np.int32
        assert labels.tolist() == brute_orbit_minima(tables.tolist(), size)


def test_take_chunked_is_the_whole_gather():
    # A size that is not a multiple of the chunk: the last chunk is short.
    size = 3 * kernels.JUMP_TILE + 5
    label = np.random.default_rng(7).integers(0, size, size).astype(np.int32)
    out = np.full_like(label, -1)
    assert kernels.take_chunked(label, label, out) is out
    assert np.array_equal(out, label[label])
    values = np.random.default_rng(8).integers(0, 2**31 - 1, size).astype(np.int32)
    expected = values[label]
    assert kernels.take_chunked(values, label, label) is label  # written over its own indices
    assert np.array_equal(label, expected)


def test_label_dtype_at_the_int32_limit():
    assert kernels.label_dtype(0) is kernels.label_dtype(2**31 - 1) is np.int32
    assert kernels.label_dtype(2**31) is kernels.label_dtype(2**40) is np.int64


@given(st.permutations(range(12)))
@example(tuple(range(12)))
@settings(max_examples=60, deadline=None)
def test_permutation_order_is_the_least_power_to_the_identity(images):
    assert kernels.permutation_order(images) == brute_order(images)


def cycle_table(lengths, points) -> list[int]:
    """A permutation of ``sum(lengths)`` points made of cycles of the given lengths, through ``points`` in order."""
    table, start = list(range(len(points))), 0
    for length in lengths:
        cycle = points[start : start + length]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            table[a] = b
        start += length
    return table


@given(st.integers(1, 70), st.randoms(use_true_random=False))
@example(1, None)  # the identity: no round
@example(16, None)  # order 2**4: four rounds cover the cycle exactly
@example(17, None)  # order 2**4 + 1: a fifth round
@example(33, None)
@settings(max_examples=60, deadline=None)
def test_orbit_minima_rounds_cover_one_long_cycle(length, rng):
    # One cycle whose length is the order, so a round short of ceil(log2 order) leaves a wrong label.
    points = list(range(length))
    if rng is not None:
        rng.shuffle(points)
    table = np.array([cycle_table([length], points)])
    assert kernels.orbit_minima(table, [length]).tolist() == [0] * length
    assert kernels.orbit_minima(table, [3 * length]).tolist() == [0] * length  # a multiple of the order


@st.composite
def cyclic_generator_sets(draw):
    """(n, d, generators): powers of one permutation with cycles of 1, 2, 4, 8 or 3, 5, 9 points, n <= 9.

    Exponent 0 gives the identity and a repeated exponent a repeated generator; n may be 0 or 1 and d 1.
    """
    lengths = draw(st.lists(st.sampled_from([1, 2, 3, 4, 5, 8, 9]), max_size=3).filter(lambda ls: sum(ls) <= 9))
    n = sum(lengths)
    d = draw(st.integers(1, 8).filter(lambda d: d**n <= 512))
    base = cycle_table(lengths, draw(st.permutations(range(n))))
    gens = []
    for exponent in draw(st.lists(st.integers(0, 20), min_size=1, max_size=3)):
        power = list(range(n))
        for _ in range(exponent):
            power = [base[x] for x in power]
        gens.append(tuple(power))
    return n, d, gens


@given(cyclic_generator_sets())
@example((0, 3, [()]))  # degree 0: the one empty string
@example((1, 5, [(0,)]))
@example((9, 2, [(1, 2, 3, 4, 5, 6, 7, 8, 0)]))  # a 9-cycle: order 2**3 + 1
@example((8, 2, [(1, 2, 3, 4, 5, 6, 7, 0), (1, 2, 3, 4, 5, 6, 7, 0)]))  # an 8-cycle, twice
@example((9, 1, [(1, 2, 3, 4, 5, 6, 7, 8, 0), tuple(range(9))]))  # d = 1, and the identity
@settings(max_examples=80, deadline=None)
def test_orbit_reps_of_cyclic_groups_match_the_brute_orbits(case):
    n, d, gens = case
    elements = brute_closure(gens, n)
    invs = np.array([Permutation(g).inverse().images for g in gens], dtype=np.int64).reshape(len(gens), n)
    minima = kernels.orbit_reps(invs, n, d)
    assert minima.dtype == np.int32
    assert_rep_matches_brute(minima, brute_orbits(elements, n, d), d)
    tables = np.array([index_table(g, n, d) for g in gens]).reshape(len(gens), d**n)
    assert np.array_equal(kernels.orbit_minima(tables, [len(elements)] * len(gens)), minima)  # |G|: a multiple


@given(st.integers(0, 300), st.integers(1, 40), st.integers(1, 50))
@example(0, 1, 1)
@example(50, 7, 7)  # chunks of exactly the count length
@settings(max_examples=60, deadline=None)
def test_label_counts_equal_one_bincount(size, length, tile):
    labels = np.random.default_rng(size).integers(0, length, size).astype(np.int32)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "JUMP_TILE", tile)
        counts = kernels.label_counts(labels, length)
    assert counts.dtype == np.int64
    assert counts.tolist() == np.bincount(labels, minlength=length).tolist()


@pytest.mark.parametrize(
    "kind,n,d", [("cyclic", 4, 2), ("cyclic", 6, 2), ("dihedral", 4, 2), ("symmetric", 4, 3), ("cyclic", 5, 3)]
)
def test_orbit_reps_match_brute_force(kind, n, d):
    group = make_named_group(kind, n)
    invs = np.array([g.inverse().images for g in group.generators], dtype=np.int64)
    rep = kernels.orbit_reps(invs, n, d)
    assert_rep_matches_brute(rep, brute_orbits([p.images for p in group], n, d), d)


def assert_rep_matches_brute(rep, brute, d):
    # rep must be constant on each brute-force orbit and equal its min index.
    for orbit in brute:
        indices = []
        for x in orbit:
            ix = 0
            for s in x:
                ix = ix * d + s
            indices.append(ix)
        assert {int(rep[i]) for i in indices} == {min(indices)}


def test_orbit_reps_of_a_long_order_generator():
    # Cycle type 3.4.5: order 60, so labels must travel 60 steps around a cycle.
    p = Permutation.from_cycles([(0, 1, 2), (3, 4, 5, 6), (7, 8, 9, 10, 11)], 12)
    assert p.order() == 60
    rep = kernels.orbit_reps(inverse_images(p).reshape(1, 12), 12, 2)
    powers = [Permutation.identity(12)]
    for _ in range(59):
        powers.append(p * powers[-1])
    assert_rep_matches_brute(rep, brute_orbits([q.images for q in powers], 12, 2), 2)


@st.composite
def generator_sets(draw):
    """(n, d, generator images): n <= 6, d**n <= 729, at most three generators."""
    n = draw(st.integers(0, 6))
    d = draw(st.integers(1, 9).filter(lambda d: d**n <= 729))
    return n, d, draw(st.lists(st.permutations(range(n)), max_size=3))


@given(generator_sets())
@example((3, 2, []))  # no generators
@example((0, 2, [()]))  # degree 0: one empty string
@example((4, 3, [(0, 1, 2, 3)]))  # the identity
@example((5, 2, [(1, 0, 2, 4, 3)]))  # one involution
@example((6, 1, [(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)]))  # d = 1: the one string
@example((6, 3, [(1, 0, 3, 4, 2, 5)]))  # order 6 at d = 3
@settings(max_examples=60, deadline=None)
def test_orbit_reps_transpose_pull_matches_table_gathers_and_search(case):
    n, d, gens = case
    invs = np.array([Permutation(tuple(g)).inverse().images for g in gens], dtype=np.int64).reshape(len(gens), n)
    rep = kernels.orbit_reps(invs, n, d)
    assert rep.dtype == np.int32
    tables = np.array([digit_table(g, n, d) for g in gens], dtype=np.int64).reshape(len(gens), d**n)
    assert np.array_equal(rep, kernels.orbit_minima(tables, table_orders(tables)))
    assert rep.tolist() == brute_orbit_minima([index_table(tuple(g), n, d).tolist() for g in gens], d**n)


@given(generator_sets())
@example((4, 3, [(1, 0, 2, 3), (0, 2, 3, 1)]))  # S4 from two generators: the pointer jump runs
@settings(max_examples=40, deadline=None)
def test_orbit_minima_with_short_jump_chunks_match_search(case):
    n, d, gens = case
    tables = np.array([index_table(tuple(g), n, d) for g in gens], dtype=np.int64).reshape(len(gens), d**n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "JUMP_TILE", 7)  # most sizes here are not a multiple of 7
        labels = kernels.orbit_minima(tables, table_orders(tables), d**n)
    assert labels.tolist() == brute_orbit_minima(tables.tolist(), d**n)


@st.composite
def repeated_generator_sets(draw):
    """(n, d, generator images): one to three generators on n <= 6 points, the first maybe repeated."""
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 4).filter(lambda d: d**n <= 729))
    gens = [tuple(g) for g in draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))]
    return n, d, gens + gens[:1] * draw(st.integers(0, 1))


@given(repeated_generator_sets())
@example((6, 2, [(1, 2, 3, 4, 5, 0)]))  # one generator
@example((5, 3, [(1, 0, 2, 3, 4), (1, 0, 2, 3, 4)]))  # one generator twice
@example((4, 2, [(1, 2, 3, 0), (3, 2, 1, 0), (1, 2, 3, 0)]))  # D4, the rotation repeated
@settings(max_examples=60, deadline=None)
def test_orbit_reps_and_labels_match_the_brute_orbits(case):
    n, d, gens = case
    index = {x: ix for ix, x in enumerate(itertools.product(range(d), repeat=n))}
    want_minima, want_orbit = [0] * d**n, [0] * d**n
    by_least = sorted((min(index[x] for x in orbit), orbit) for orbit in brute_orbits(brute_closure(gens), n, d))
    for j, (least, orbit) in enumerate(by_least):
        for x in orbit:
            want_minima[index[x]], want_orbit[index[x]] = least, j
    invs = np.array([Permutation(g).inverse().images for g in gens], dtype=np.int64)
    minima = kernels.orbit_reps(invs, n, d)
    reps, orbit_of = orbit_labels(generate_group([Permutation(g) for g in gens], degree=n), d)
    assert minima.dtype == orbit_of.dtype == np.int32 and reps.dtype == np.int64
    assert minima.tolist() == want_minima
    assert reps.tolist() == [least for least, _ in by_least]
    assert orbit_of.tolist() == want_orbit


def test_orbit_labels_build_no_index_table(monkeypatch):
    # The labels come from axis transposes along the generators, never from the index of every moved string.
    monkeypatch.setattr(kernels, "move_indices", None)
    group = make_named_group("dihedral", 8)
    reps, orbit_of = orbit_labels(group, 3)
    assert reps.dtype == np.int64 and orbit_of.dtype == np.int32
    assert len(reps) == len(brute_orbits([p.images for p in group], 8, 3))
    assert np.array_equal(orbit_of[reps], np.arange(len(reps)))


def test_orbit_reps_with_no_generators_is_identity():
    rep = kernels.orbit_reps(np.empty((0, 3), dtype=np.int64), 3, 2)
    assert np.array_equal(rep, np.arange(8))


def test_rep_array_is_idempotent_labelling():
    group = make_named_group("cyclic", 8)
    invs = np.array([g.inverse().images for g in group.generators], dtype=np.int64)
    rep = kernels.orbit_reps(invs, 8, 2)
    assert np.array_equal(rep[rep], rep)
    assert (rep <= np.arange(rep.shape[0])).all()


def test_digit_powers():
    assert kernels.digit_powers(4, 3).tolist() == [27, 9, 3, 1]
