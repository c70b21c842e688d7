import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    act_tuple,
    all_strings,
    brute_closure,
    brute_conjugacy_classes,
    brute_fixed_count,
    brute_orbits,
    brute_square_roots,
    brute_stabilizer_order,
    index_table,
    tuple_cycle_counts,
    void_key_ranks,
)
from permchannel import (
    ColoredString,
    Permutation,
    PermutationGroup,
    ambient_multiplicities,
    character_table,
    conjugacy_classes,
    count_ancilla_polya,
    count_classical_burnside,
    count_quantum_totally_orthogonal,
    count_report,
    cycle_count,
    cycle_type,
    generate_group,
    kernels,
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
from permchannel import perms as perms_module
from permchannel.errors import DegreeMismatchError, GroupSizeLimitError, StateSpaceBoundError

R4 = Permutation.from_cycles([(0, 1, 2, 3)], 4)
GROUP_FILES = sorted((Path(__file__).resolve().parents[1] / "perfbench" / "groups").glob("*.txt"))
NAMED = [("cyclic", n) for n in range(1, 9)] + [("dihedral", n) for n in range(1, 9)] + [
    ("symmetric", n) for n in range(1, 7)
]


def act(p: Permutation, x: ColoredString) -> ColoredString:
    """The action on one string, through ``kernels.move_indices``."""
    moved = kernels.move_indices(p.inverse().images, [x.index], x.d)
    return ColoredString.from_index(int(moved[0]), x.n, x.d)

perms = st.integers(2, 6).flatmap(
    lambda n: st.permutations(list(range(n))).map(lambda im: Permutation(tuple(im)))
)


def pairs_same_degree(n):
    p = st.permutations(list(range(n))).map(lambda im: Permutation(tuple(im)))
    return st.tuples(p, p)


class TestPermutation:
    def test_rotation_images(self):
        assert R4.images == (1, 2, 3, 0)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))

    @given(perms)
    def test_inverse_roundtrip(self, p):
        assert p * p.inverse() == Permutation.identity(p.degree)
        assert p.inverse() * p == Permutation.identity(p.degree)

    @given(st.integers(2, 5).flatmap(pairs_same_degree))
    def test_composition_convention(self, pq):
        p, q = pq
        for i in range(p.degree):
            assert (p * q)(i) == p(q(i))

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            R4 * Permutation.identity(3)

    def test_pow_and_order(self):
        assert R4**4 == Permutation.identity(4)
        assert R4**-1 == R4.inverse()
        assert R4.order() == 4
        assert (R4 * R4).order() == 2

    def test_from_cycles_overlap_rejected(self):
        with pytest.raises(ValueError):
            Permutation.from_cycles([(0, 1), (1, 2)], 3)


class TestCycleDecomposition:
    def test_identity_four_fixed_points(self):
        assert kernels.cycle_lengths(Permutation.identity(4).images) == [1, 1, 1, 1]
        assert cycle_count(Permutation.identity(4)) == 4
        assert cycle_type(Permutation.identity(4)) == ((1, 4),)

    def test_full_rotation_single_cycle(self):
        assert cycle_count(R4) == 1
        assert cycle_count(R4**3) == 1

    def test_half_rotation_two_transpositions(self):
        assert kernels.cycle_lengths((R4**2).images) == [2, 2]
        assert cycle_type(R4**2) == ((2, 2),)

    @given(perms)
    def test_lengths_sum_to_degree(self, p):
        counts = tuple_cycle_counts(p.images)
        assert sum(kernels.cycle_lengths(p.images)) == p.degree
        assert cycle_count(p) == sum(counts.values())
        assert cycle_type(p) == tuple(sorted(counts.items(), reverse=True))
        assert p.order() == math.lcm(*counts)

    @given(st.integers(2, 5).flatmap(pairs_same_degree))
    def test_conjugation_preserves_cycle_type(self, pq):
        p, q = pq
        assert cycle_type(q * p * q.inverse()) == cycle_type(p)


class TestColoredString:
    def test_index_roundtrip(self):
        for ix in range(16):
            assert ColoredString.from_index(ix, 4, 2).index == ix

    def test_parse_and_str(self):
        x = ColoredString.parse("0011", 2)
        assert x.symbols == (0, 0, 1, 1)
        assert str(x) == "0011"

    def test_rejects_out_of_range_symbol(self):
        with pytest.raises(ValueError):
            ColoredString((0, 2), 2)


class TestAction:
    def test_identity_action(self):
        x = ColoredString.parse("0011", 2)
        assert act(Permutation.identity(4), x) == x

    def test_rotation_moves_content_forward(self):
        x = ColoredString.parse("0001", 2)
        assert str(act(R4, x)) == "1000"

    def test_half_rotation_fixes_alternating_string(self):
        x = ColoredString.parse("0101", 2)
        assert act(R4**2, x) == x

    @given(st.integers(2, 5).flatmap(pairs_same_degree), st.data())
    def test_action_axioms(self, pq, data):
        p, q = pq
        n = p.degree
        x = ColoredString(tuple(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))), 3)
        assert act(Permutation.identity(n), x) == x
        assert act(p * q, x) == act(p, act(q, x))

    @given(perms, st.data())
    def test_index_action_matches_string_action(self, p, data):
        n = p.degree
        ix = data.draw(st.integers(0, 2**n - 1))
        x = ColoredString.from_index(ix, n, 2)
        assert act(p, x).index == index_table(p.images, n, 2)[ix]


class TestGroupGeneration:
    def test_single_rotation_generates_cyclic(self):
        g = generate_group([R4])
        assert len(g) == 4

    def test_rotation_and_reflection_generate_dihedral(self):
        s = Permutation((0, 3, 2, 1))
        g = generate_group([R4, s])
        assert len(g) == 8

    def test_empty_generators_give_trivial_group(self):
        g = generate_group([], degree=5)
        assert len(g) == 1 and g.degree == 5

    def test_size_limit(self):
        with pytest.raises(GroupSizeLimitError):
            generate_group([Permutation((1, 0, 2, 3, 4)), Permutation((1, 2, 3, 4, 0))], max_order=10)

    def test_generator_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            generate_group([R4, Permutation.identity(3)])


def _file_generators(path):
    """Generator images of a group file, read without the library."""
    lines = (line.strip() for line in path.read_text().splitlines())
    return [tuple(int(tok) for tok in line.split()) for line in lines if line and not line.startswith("#")]


def _cycles_image(lengths):
    """Image tuple of consecutive disjoint cycles of the given lengths."""
    images, start = [], 0
    for k in lengths:
        images += [start + (i + 1) % k for i in range(k)]
        start += k
    return tuple(images)


class TestClosureOracle:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.lists(st.permutations(list(range(n))), min_size=1, max_size=3)))
    def test_random_generators(self, gens):
        group = generate_group([Permutation(tuple(g)) for g in gens])
        assert [p.images for p in group.elements] == sorted(brute_closure(gens))
        assert group.images.tolist() == [list(p.images) for p in group.elements]

    @pytest.mark.parametrize("path", GROUP_FILES, ids=lambda p: p.name)
    def test_group_files(self, path):
        group = parse_group_file(path.read_text())
        assert [p.images for p in group.elements] == sorted(brute_closure(_file_generators(path)))

    @pytest.mark.parametrize("kind,n", NAMED)
    def test_named_groups_are_the_sorted_closure_of_their_generators(self, kind, n):
        group = make_named_group(kind, n)
        want = sorted(brute_closure([g.images for g in group.generators], n))
        assert [p.images for p in group.elements] == want
        assert group.images.tolist() == [list(p) for p in want]

    @pytest.mark.parametrize(
        "gens",
        [
            [_cycles_image((5, 7, 9, 16))],  # cyclic of order 5040, diameter 5039
            [tuple((-i) % 60 for i in range(60)), tuple((1 - i) % 60 for i in range(60))],  # D60 from reflections
        ],
        ids=["one generator, order 5040", "two reflections"],
    )
    def test_long_diameter_generators(self, gens, monkeypatch):
        row_keys = perms_module._row_keys
        calls = []
        monkeypatch.setattr(perms_module, "_row_keys", lambda rows: calls.append(len(rows)) or row_keys(rows))
        group = generate_group([Permutation(g) for g in gens])
        assert [p.images for p in group.elements] == sorted(brute_closure(gens))
        # Each element is keyed once as a seed or product, r times as a factor and once
        # in the sort; a generator's powers come by doubling, not one search round each.
        orders = sum(Permutation(g).order() for g in gens)
        assert sum(calls) <= 1 + orders + (len(gens) + 1) * len(group)
        if len(gens) == 1:
            assert len(calls) == 3

    @pytest.mark.parametrize(
        "gens,order",
        [
            ([_cycles_image((7, 8))], 56),
            ([(1, 0, 2, 3), (1, 2, 3, 0)], 24),
            ([(1, 2, 3, 4, 0)], 5),
            ([(1, 0, 3, 2), (2, 3, 0, 1)], 4),
        ],
    )
    def test_max_order_boundary(self, gens, order):
        gens = [Permutation(g) for g in gens]
        assert len(generate_group(gens, max_order=order)) == order
        with pytest.raises(GroupSizeLimitError):
            generate_group(gens, max_order=order - 1)


def test_group_algorithms_make_no_permutation_products(monkeypatch):
    def refuse(self, other):
        raise AssertionError(f"Permutation product {self} * {other}")

    monkeypatch.setattr(Permutation, "__mul__", refuse)
    groups = [make_named_group(kind, n) for kind, n in NAMED]
    groups += [parse_group_file(path.read_text()) for path in GROUP_FILES]
    klein = parse_group_file("1 0 3 2\n2 3 0 1\n")
    for group in groups + [klein]:
        group.validate()
        conjugacy_classes(group)
        stabilizer_orders(group, [ColoredString((0, 1) * (group.degree // 2) + (0,) * (group.degree % 2), 2).index], 2)
        assert group.identity in group
    assert len(character_table(klein).irreps) == 4
    assert len(character_table(make_named_group("cyclic", 6)).irreps) == 6


def test_membership_of_another_degree_is_false():
    group = make_named_group("cyclic", 4)
    assert Permutation((1, 0)) not in group
    assert Permutation.identity(5) not in group
    assert (0, 1, 2, 3) not in group
    assert R4 in group


def test_lookups_of_another_degree_raise():
    table = character_table(make_named_group("symmetric", 3))
    with pytest.raises(DegreeMismatchError):
        table.class_index_of(Permutation((1, 0)))
    with pytest.raises(DegreeMismatchError):
        table.character(0, Permutation((1, 0)))


def _permutations_built(monkeypatch, fn) -> int:
    """How many ``Permutation`` objects fn() builds."""
    built = []
    init = Permutation.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Permutation, "__init__", counting_init)
        fn()
    return len(built)


class TestLazyElements:
    @pytest.mark.parametrize("kind", ["cyclic", "dihedral", "symmetric"])
    def test_named_groups_build_no_permutation_per_element(self, monkeypatch, kind):
        counts = [_permutations_built(monkeypatch, lambda: make_named_group(kind, n)) for n in (5, 6)]
        assert counts[0] == counts[1] < 5

    def test_group_file_builds_one_permutation_per_generator_line(self, monkeypatch):
        text = (GROUP_FILES[0].parent / "s4xs4.txt").read_text()
        lines = [line for line in text.splitlines() if line.strip() and not line.startswith("#")]
        assert _permutations_built(monkeypatch, lambda: parse_group_file(text)) == len(lines)

    def test_group_algorithms_build_no_permutation(self, monkeypatch):
        s6 = make_named_group("symmetric", 6)
        x = ColoredString((0, 1, 1, 0, 0, 1), 2)
        basis = message_basis_cyclic(8, 2)
        for fn in (
            lambda: stabilizer_orders(s6, [x.index], 2),
            lambda: orbit_labels(s6, 2),
            lambda: count_classical_burnside(s6, 2),
            lambda: verify_classical(s6, 2),
            lambda: verify_zero_error(basis.group, basis),
        ):
            assert _permutations_built(monkeypatch, fn) == 0

    @pytest.mark.parametrize("kind,n", [("cyclic", 6), ("dihedral", 5), ("symmetric", 4)])
    def test_elements_and_generators_are_the_read_only_rows(self, kind, n):
        group = make_named_group(kind, n)
        assert not group.images.flags.writeable and not group.generator_images.flags.writeable
        with pytest.raises(ValueError):
            group.images[0, 0] = 1
        assert [list(p.images) for p in group.elements] == group.images.tolist()
        assert [list(g.images) for g in group.generators] == group.generator_images.tolist()
        assert group.elements is group.elements

    def test_rows_of_another_width_are_refused(self):
        with pytest.raises(DegreeMismatchError):
            PermutationGroup(3, [(0, 1)], [(0, 1)])
        with pytest.raises(DegreeMismatchError):
            PermutationGroup(2, [(0, 1)], [0, 1])

    def test_caller_rows_stay_writeable(self):
        rows = np.array([[0, 1], [1, 0]])
        group = PermutationGroup(2, rows, rows[1:])
        assert rows.flags.writeable and not group.images.flags.writeable


class TestLazyClassMembers:
    @pytest.mark.parametrize("n,k", [(6, 11), (7, 15)])
    def test_classes_build_one_permutation_per_class(self, monkeypatch, n, k):
        # k partitions of n, one class each; the members are built only when read
        for fn in (conjugacy_classes, character_table):
            group = make_named_group("symmetric", n)
            assert _permutations_built(monkeypatch, lambda: fn(group)) <= k

    @pytest.mark.parametrize("n", [6, 7])
    def test_members_read_later_are_the_ascending_classes(self, n):
        group = make_named_group("symmetric", n)
        classes = character_table(group).classes
        by_type = {}
        for p in group.elements:  # ascending, so each class's members come out ascending
            by_type.setdefault(cycle_type(p), []).append(p)
        assert [c.members for c in classes] == sorted(tuple(members) for members in by_type.values())
        assert all(c.members is c.members and c.members[0] == c.representative for c in classes)


@pytest.mark.parametrize("d", [0, -1])
@pytest.mark.parametrize(
    "call",
    [
        lambda g, d: orbit_labels(g, d),
        lambda g, d: orbits(g, d),
        lambda g, d: verify_classical(g, d),
        lambda g, d: message_basis_cyclic(g.degree, d),
        lambda g, d: count_classical_burnside(g, d),
        lambda g, d: count_ancilla_polya(g, d),
        lambda g, d: count_quantum_totally_orthogonal(g, d, certify=False),
        lambda g, d: count_report(g, d),
        lambda g, d: ambient_multiplicities(g, d),
    ],
    ids=[
        "orbit_labels", "orbits", "verify_classical", "message_basis_cyclic", "count_classical_burnside",
        "count_ancilla_polya", "count_quantum_totally_orthogonal", "count_report", "ambient_multiplicities",
    ],
)
def test_alphabet_below_one_is_refused(call, d):
    with pytest.raises(ValueError, match="alphabet size must be >= 1"):
        call(make_named_group("cyclic", 4), d)


class TestNamedGroups:
    def test_cyclic_order_and_elements(self):
        g = make_named_group("cyclic", 4)
        assert len(g) == 4
        assert {p for p in g} == {R4**k for k in range(4)}

    def test_dihedral_order(self):
        assert len(make_named_group("dihedral", 4)) == 8

    def test_symmetric_order(self):
        assert len(make_named_group("symmetric", 3)) == 6

    @pytest.mark.parametrize("n", [3, 4, 5, 7])
    def test_dihedral_presentation_relations(self, n):
        g = make_named_group("dihedral", n)
        r, s = g.generators
        e = Permutation.identity(n)
        assert r**n == e and s * s == e
        assert s * r * s == r.inverse()

    def test_small_dihedral_images(self):
        # Faithful 2n-element action does not exist below n = 3; the image is used.
        assert len(make_named_group("dihedral", 2)) == 2
        assert len(make_named_group("dihedral", 1)) == 1
        assert make_named_group("dihedral", 2).kind == "custom"

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_named_group("alternating", 4)

    @pytest.mark.parametrize(
        "kind,n", [("cyclic", 5), ("dihedral", 4), ("symmetric", 4), ("dihedral", 2)]
    )
    def test_groups_validate(self, kind, n):
        make_named_group(kind, n).validate()


def _raw_group(element_images, generator_images):
    """A PermutationGroup built directly from sorted rows, so nothing closes or dedups the set."""
    return PermutationGroup(len(element_images[0]), sorted(element_images), generator_images)


class TestValidateRejects:
    C4 = [(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)]
    S3 = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    S3_GENS = [(1, 0, 2), (1, 2, 0)]

    def test_one_extra_permutation(self):
        with pytest.raises(ValueError, match="escapes"):
            _raw_group(self.C4 + [(1, 0, 2, 3)], [(1, 2, 3, 0)]).validate()

    def test_one_element_missing(self):
        with pytest.raises(ValueError, match="escapes"):
            _raw_group([p for p in self.S3 if p != (0, 2, 1)], self.S3_GENS).validate()

    def test_missing_inverse(self):
        # {e, r} in C3: r is present, its inverse r**2 is not
        with pytest.raises(ValueError, match="escapes"):
            _raw_group([(0, 1, 2), (1, 2, 0)], [(1, 2, 0)]).validate()

    def test_generators_span_a_proper_subgroup(self):
        with pytest.raises(ValueError, match="do not span"):
            _raw_group(self.S3, [(1, 0, 2)]).validate()

    def test_identity_missing(self):
        with pytest.raises(ValueError, match="identity"):
            _raw_group([(1, 0, 2)], [(1, 0, 2)]).validate()

    def test_empty_element_list(self):
        with pytest.raises(ValueError, match="identity"):
            PermutationGroup(3, np.empty((0, 3)), np.empty((0, 3))).validate()

    def test_repeated_element(self):
        with pytest.raises(ValueError, match="repeats"):
            _raw_group(self.C4 + [(2, 3, 0, 1)], [(1, 2, 3, 0)]).validate()

    def test_raw_group_that_is_closed_passes(self):
        _raw_group(self.S3, self.S3_GENS).validate()

    @pytest.mark.parametrize("n", [4, 16], ids=["int64 keys", "byte keys"])
    def test_rows_out_of_order(self, n):
        rows = make_named_group("cyclic", n).images
        for unsorted in (rows[::-1], rows[[0, 2, 1, *range(3, n)]]):
            with pytest.raises(ValueError, match="ascending order"):
                PermutationGroup(n, unsorted, rows[1:2]).validate()

    def test_repeated_row_with_byte_keys(self):
        rows = make_named_group("cyclic", 16).images
        with pytest.raises(ValueError, match="repeats"):
            PermutationGroup(16, np.repeat(rows, 2, axis=0)[1:], rows[1:2]).validate()


class TestRankKeys:
    """Ranks from the int64 base-n row keys equal ranks from big-endian byte keys."""

    @staticmethod
    def probes(group, seed=0):
        """The group's rows, and each row times a random permutation and times (0 1): members and non-members."""
        points = list(range(group.degree))
        random.Random(seed).shuffle(points)
        swap = [1, 0, *range(2, group.degree)]
        return np.concatenate([group.images, group.images[:, points], group.images[:, swap]])

    @pytest.mark.parametrize("path", GROUP_FILES, ids=lambda p: p.name)
    def test_group_files(self, path):
        group = parse_group_file(path.read_text())
        probe = self.probes(group)
        ranks = group._rank(probe)
        assert group._keys.dtype == np.int64
        assert (ranks < 0).any() and np.array_equal(ranks[: len(group)], np.arange(len(group)))
        assert np.array_equal(ranks, void_key_ranks(group.images, probe))

    @pytest.mark.parametrize("degree,dtype", [(15, np.int64), (16, np.void)])
    def test_either_side_of_the_int64_switch(self, degree, dtype):
        # 15**15 < 2**63 <= 16**16: the largest degree with int64 keys, and the least with byte keys.
        blocks = [(0, 1, 2), (0, 1), (3, 4, 5, 6), tuple(range(7, 12)), tuple(range(12, degree))]
        group = generate_group([Permutation.from_cycles([block], degree) for block in blocks])  # S3 x C4 x C5 x C3|C4
        probe = self.probes(group, seed=degree)
        assert np.issubdtype(group._keys.dtype, dtype)
        assert (group._rank(probe) < 0).any()
        assert np.array_equal(group._rank(probe), void_key_ranks(group.images, probe))

    @staticmethod
    def _small_groups(n):
        """(n, generators, probe): generators permute the first five points, one may cycle the rest.

        The groups have at most 120 * 11 elements; the probe is any permutation, seldom a member.
        """
        head = st.permutations(range(min(n, 5))).map(lambda im: tuple(im) + tuple(range(len(im), n)))
        shift = tuple(range(min(n, 5))) + tuple(range(6, n)) + (5,) * (n > 5)
        gens = st.lists(head, max_size=2).flatmap(lambda gs: st.sampled_from([gs, gs + [shift]]))
        return st.tuples(st.just(n), gens, st.permutations(range(n)).map(tuple))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([0, 1, 2, 5, 15, 16]).flatmap(lambda n: TestRankKeys._small_groups(n)))
    @example((0, [], ()))
    @example((15, [tuple(range(1, 15)) + (0,)], tuple(range(15))))  # C15, probing the identity
    @example((16, [tuple(range(1, 16)) + (0,)], (1, 0) + tuple(range(2, 16))))  # C16, probing a swap
    def test_scalar_rank_equals_the_array_rank(self, case):
        # Degree 15 is the last with Python-int keys bisected, degree 16 the first through the byte keys.
        degree, gens, probe = case
        group = generate_group([Permutation(g) for g in gens], degree=degree)
        members = {q.images for q in group.elements}
        for p in (*group.elements[:20], Permutation(probe)):
            want = int(group._rank(np.array(p.images, dtype=np.int64).reshape(degree)))
            assert group._rank_of(p) == want
            assert (want >= 0) == (p.images in members)

    @pytest.mark.parametrize("degree", [1, 2, 15, 16])
    def test_keys_sort_as_the_image_tuples(self, degree):
        rng = random.Random(degree)
        rows = [tuple(reversed(range(degree))), tuple(range(degree))]
        rows += [tuple(rng.sample(range(degree), degree)) for _ in range(200)]
        keys = perms_module._row_keys(np.array(rows, dtype=np.int64))
        assert [rows[i] for i in np.argsort(keys, kind="stable")] == sorted(rows)


class TestOrbits:
    def test_cyclic_four_binary_representatives(self):
        obs = orbits(make_named_group("cyclic", 4), 2)
        assert [str(o.representative) for o in obs] == ["0000", "0001", "0011", "0101", "0111", "1111"]

    def test_trivial_group_gives_singletons(self):
        obs = orbits(generate_group([], degree=3), 2)
        assert len(obs) == 8
        assert all(o.size == 1 for o in obs)

    def test_symmetric_weight_classes(self):
        obs = orbits(make_named_group("symmetric", 3), 2)
        assert [str(o.representative) for o in obs] == ["000", "001", "011", "111"]

    @pytest.mark.parametrize(
        "group,d",
        [
            (make_named_group("cyclic", 4), 2),
            (make_named_group("cyclic", 6), 3),
            (make_named_group("dihedral", 5), 2),
            (make_named_group("symmetric", 4), 3),
        ],
    )
    def test_partition_and_brute_force_agreement(self, group, d):
        obs = orbits(group, d)
        assert sum(o.size for o in obs) == d**group.degree
        covered = set()
        for o in obs:
            members = set(int(i) for i in o.member_indices)
            assert len(members) == o.size
            assert int(o.member_indices[0]) == o.representative.index
            assert not members & covered
            covered |= members
        brute = brute_orbits([p.images for p in group], group.degree, d)
        mine = {frozenset(m.symbols for m in o.members) for o in obs}
        assert mine == {frozenset(orbit) for orbit in brute}

    def test_state_space_bound(self):
        with pytest.raises(StateSpaceBoundError):
            orbits(make_named_group("cyclic", 30), 2, max_states=1 << 20)

    def test_labels_are_memoised_per_alphabet_and_bounded_on_every_call(self):
        group = make_named_group("dihedral", 5)
        reps, orbit_of = orbit_labels(group, 2)
        assert orbit_labels(group, 2)[1] is orbit_of
        assert orbit_labels(group, 3)[1] is not orbit_of
        assert orbit_of[reps].tolist() == list(range(len(reps)))
        assert not orbit_of.flags.writeable and not reps.flags.writeable
        with pytest.raises(StateSpaceBoundError):
            orbit_labels(group, 2, max_states=31)


class TestOrbitSequence:
    C4 = [(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)]

    @staticmethod
    def fields(orbit):
        return (orbit.index, orbit.member_indices.tolist(), orbit.n, orbit.d, orbit.size, orbit.stabilizer_order)

    def test_indexing_slicing_and_iteration_agree(self):
        group = make_named_group("dihedral", 5)
        obs = orbits(group, 2)
        reps, orbit_of = orbit_labels(group, 2)
        assert len(obs) == len(reps) == 8
        items = list(obs)
        assert [o.index for o in items] == list(range(8))
        assert [int(o.member_indices[0]) for o in items] == reps.tolist()
        for o in items:
            assert o.member_indices.tolist() == np.flatnonzero(orbit_of == o.index).tolist()
            assert o.size * o.stabilizer_order == len(group)
        for j in range(-8, 8):
            assert self.fields(obs[j]) == self.fields(items[j])
        for window in (slice(1, 5), slice(None, None, -2), slice(-3, None), slice(6, 2), slice(-20, 20)):
            assert [self.fields(o) for o in obs[window]] == [self.fields(o) for o in items[window]]
        for j in (8, -9, 100):
            with pytest.raises(IndexError):
                obs[j]
        with pytest.raises(TypeError):
            obs["0"]

    def test_unclosed_element_set_is_refused_before_any_item_is_read(self):
        # C4 plus one transposition: rotation orbits of size 2 and 4 cannot divide |S| = 5.
        group = _raw_group(self.C4 + [(1, 0, 2, 3)], [(1, 2, 3, 0)])
        with pytest.raises(ValueError, match="does not divide the group order"):
            orbits(group, 2)

    def test_length_sorts_nothing_and_members_are_grouped_once(self, monkeypatch):
        big = []
        for name in ("argsort", "sort", "unique", "lexsort"):
            original = getattr(np, name)

            def spy(a, *args, _original=original, **kwargs):
                big.append(np.size(a) >= 2**10)
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np, name, spy)
        group = make_named_group("cyclic", 10)
        obs = orbits(group, 2)
        assert len(obs) == 108 and not any(big)
        assert int(obs[-1].member_indices[0]) == 2**10 - 1
        assert int(obs[1].member_indices[0]) == 1
        list(obs)
        assert big.count(True) == 1


def _bijection_sets(n):
    """(n, d, generators): up to three random bijections of n positions, with d**n <= 243."""
    d_max = max(d for d in range(1, 244) if d**n <= 243)
    return st.tuples(
        st.just(n),
        st.integers(1, d_max),
        st.lists(st.permutations(list(range(n))).map(lambda im: Permutation(tuple(im))), max_size=3),
    )


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5).flatmap(_bijection_sets))
@example((1, 243, []))
@example((5, 1, [Permutation((1, 2, 3, 4, 0))]))
@example((5, 3, [Permutation((1, 2, 3, 4, 0)), Permutation((0, 4, 3, 2, 1))]))
def test_orbit_labels_equal_a_sort_of_the_orbit_minima(case):
    n, d, gens = case
    group = generate_group(gens, degree=n)
    reps, orbit_of = orbit_labels(group, d)
    invs = np.array([g.inverse().images for g in group.generators], dtype=np.int64).reshape(-1, n)
    want_reps, want_orbit_of = np.unique(kernels.orbit_reps(invs, n, d), return_inverse=True)
    assert reps.dtype == np.int64 and orbit_of.dtype == np.int32
    assert np.array_equal(reps, want_reps) and np.array_equal(orbit_of, want_orbit_of)
    assert not reps.flags.writeable and not orbit_of.flags.writeable


class TestStabilizer:
    @pytest.mark.parametrize("kind,n", [("dihedral", 6), ("symmetric", 4)])
    def test_orders_count_the_fixing_elements(self, kind, n):
        group = make_named_group(kind, n)
        elements = [p.images for p in group]
        expected = [brute_stabilizer_order(elements, x) for x in all_strings(n, 2)]
        assert stabilizer_orders(group, np.arange(2**n), 2).tolist() == expected

    def test_alternating_string_stabilizer(self):
        g = make_named_group("cyclic", 4)
        assert stabilizer_orders(g, [ColoredString.parse("0101", 2).index], 2).tolist() == [2]

    def test_aperiodic_string_trivial_stabilizer(self):
        g = make_named_group("cyclic", 4)
        assert stabilizer_orders(g, [ColoredString.parse("0001", 2).index], 2).tolist() == [1]

    def test_constant_string_full_stabilizer(self):
        g = make_named_group("symmetric", 4)
        assert stabilizer_orders(g, [ColoredString.parse("2222", 3).index], 3).tolist() == [len(g)]

    @pytest.mark.parametrize(
        "group,d",
        [
            (make_named_group("cyclic", 6), 2),
            (make_named_group("dihedral", 4), 2),
            (make_named_group("symmetric", 4), 2),
            (make_named_group("cyclic", 4), 3),
        ],
    )
    def test_orbit_stabilizer_product(self, group, d):
        orders = stabilizer_orders(group, np.arange(d**group.degree), d)
        for orbit in orbits(group, d):
            assert (orders[orbit.member_indices] * orbit.size == len(group)).all()

    @pytest.mark.parametrize(
        "kind,n,d", [("cyclic", 10, 2), ("cyclic", 6, 3), ("dihedral", 12, 2), ("symmetric", 6, 2), ("symmetric", 4, 4)]
    )
    @pytest.mark.parametrize("block_bytes", [None, 1], ids=["default blocks", "one element per block"])
    def test_stabilizer_orders_count_each_subgroup(self, monkeypatch, kind, n, d, block_bytes):
        # The verify suite's representatives, plus every string of the smaller cases.
        group = make_named_group(kind, n)
        if block_bytes is not None:
            monkeypatch.setattr(perms_module, "MAX_STABILIZER_BYTES", block_bytes)
        strings = orbit_labels(group, d)[0][:200] if d**n > 1000 else np.arange(d**n)
        elements = [p.images for p in group]
        expected = [brute_stabilizer_order(elements, ColoredString.from_index(x, n, d).symbols) for x in strings.tolist()]
        orders = stabilizer_orders(group, strings, d)
        assert orders.dtype == np.int64
        assert orders.tolist() == expected

    def test_stabilizer_orders_of_no_strings(self):
        assert stabilizer_orders(make_named_group("cyclic", 3), [], 2).tolist() == []


class TestConjugacyClasses:
    def test_s3_class_sizes(self):
        sizes = sorted(c.size for c in conjugacy_classes(make_named_group("symmetric", 3)))
        assert sizes == [1, 2, 3]

    def test_abelian_classes_are_singletons(self):
        classes = conjugacy_classes(make_named_group("cyclic", 4))
        assert len(classes) == 4
        assert all(c.size == 1 for c in classes)

    def test_s4_double_transposition_class(self):
        classes = conjugacy_classes(make_named_group("symmetric", 4))
        by_type = {c.partition: c.size for c in classes}
        assert by_type[((2, 2),)] == 3
        assert by_type[((1, 4),)] == 1

    @pytest.mark.parametrize("kind,n", [("symmetric", 4), ("dihedral", 5), ("cyclic", 6)])
    def test_classes_partition_group(self, kind, n):
        group = make_named_group(kind, n)
        classes = conjugacy_classes(group)
        members = [p for c in classes for p in c.members]
        assert sorted(members) == list(group.elements)
        for c in classes:
            assert c.representative == c.members[0]
            assert all(cycle_type(p) == c.partition for p in c.members)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 5).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.permutations(range(n)), max_size=3))))
    @example((0, [()]))
    @example((1, [(0,), (0,)]))
    @example((5, [(1, 2, 3, 4, 0)]))  # order 5 = 2**2 + 1
    @example((4, [(1, 2, 3, 0), (1, 2, 3, 0), (0, 1, 2, 3)]))  # order 4, repeated, and the identity
    @example((5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]))  # S5 from a transposition and a 5-cycle
    def test_class_index_and_validate_match_the_brute_classes(self, case):
        n, gens = case
        group = generate_group([Permutation(tuple(g)) for g in gens], degree=n)
        group.validate()
        rank = {row: r for r, row in enumerate(map(tuple, group.images.tolist()))}
        assert set(rank) == brute_closure(gens, n)
        want = [0] * len(group)
        by_least = sorted(sorted(rank[p] for p in c) for c in brute_conjugacy_classes(list(rank)))
        for number, ranks in enumerate(by_least):
            for r in ranks:
                want[r] = number
        assert group._class_index.dtype == np.int32
        assert group._class_index.tolist() == want


class TestSquareRoots:
    def test_s3_identity_has_four_roots(self):
        g = make_named_group("symmetric", 3)
        assert square_root_count(g, g.identity) == 4

    def test_c4_identity_has_two_roots(self):
        g = make_named_group("cyclic", 4)
        assert square_root_count(g, g.identity) == 2

    def test_trivial_group(self):
        g = generate_group([], degree=2)
        assert square_root_count(g, g.identity) == 1

    def test_not_an_element(self):
        with pytest.raises(ValueError):
            square_root_count(make_named_group("cyclic", 4), Permutation((0, 2, 1, 3)))

    @pytest.mark.parametrize("p", [Permutation.identity(5), Permutation((1, 0)), (0, 1, 2, 3)])
    def test_other_degree_or_type_is_not_an_element(self, p):
        with pytest.raises(ValueError, match="is not an element"):
            square_root_count(make_named_group("cyclic", 4), p)

    @pytest.mark.parametrize("kind,n", [("symmetric", 4), ("dihedral", 6), ("symmetric", 5)])
    def test_class_function_property(self, kind, n):
        group = make_named_group(kind, n)
        images = [p.images for p in group]
        for c in conjugacy_classes(group):
            counts = {square_root_count(group, p) for p in c.members}
            assert len(counts) == 1
            assert counts.pop() == brute_square_roots(images, c.representative.images)


class TestFixedPointCounts:
    @pytest.mark.parametrize("kind,n,d", [("symmetric", 4, 2), ("dihedral", 4, 3), ("cyclic", 6, 2)])
    def test_fixed_strings_count_is_d_to_cycles(self, kind, n, d):
        for p in make_named_group(kind, n):
            assert brute_fixed_count(p.images, n, d) == d ** cycle_count(p)

    @given(perms, st.integers(1, 3))
    def test_oracle_action_agrees(self, p, d):
        n = p.degree
        for ix in range(min(d**n, 16)):
            x = ColoredString.from_index(ix, n, d)
            assert act(p, x).symbols == act_tuple(p.images, x.symbols)


class TestGroupFile:
    def test_parse_with_comments(self):
        g = parse_group_file("# a rotation\n1 2 3 0\n\n# done\n")
        assert len(g) == 4 and g.kind == "custom"

    def test_trivial_file(self):
        g = parse_group_file("0 1 2\n")
        assert len(g) == 1

    def test_bad_line_reports_position(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_group_file("0 1\n1 x\n")

    def test_empty_file_rejected(self):
        with pytest.raises(ValueError):
            parse_group_file("# nothing\n")

    def test_mixed_degrees_rejected(self):
        with pytest.raises(DegreeMismatchError):
            parse_group_file("1 0\n0 1 2\n")


def test_group_math_consistency():
    # |G| divides n! and identity/inverses are present for a mixed zoo.
    for kind, n in [("cyclic", 7), ("dihedral", 6), ("symmetric", 4)]:
        g = make_named_group(kind, n)
        assert math.factorial(n) % len(g) == 0
        assert g.identity in g
        assert all(p.inverse() in g for p in g)
