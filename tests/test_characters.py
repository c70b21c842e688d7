import contextlib
import dataclasses
import io
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import brute_isotypic_projector, brute_square_roots
from permchannel import (
    Permutation,
    ambient_multiplicities,
    character_table,
    count_ancilla_polya,
    count_classical_burnside,
    count_cyclic,
    count_dihedral,
    count_quantum_totally_orthogonal,
    frobenius_schur_indicators,
    generate_group,
    is_totally_orthogonal,
    isotypic_projector,
    kernels,
    make_named_group,
    na_oracle,
    nq_oracle,
    square_root_count,
    unit_root,
)
from permchannel import characters, cli
from permchannel.characters import MAX_RETRIES, _project_class_functions
from permchannel.errors import (
    CharacterTableError,
    GroupSizeLimitError,
    MultiplicityRoundingError,
    StateSpaceBoundError,
)

# The unit quaternions acting on themselves by left multiplication; their
# 2-dimensional irrep is quaternionic, so the FS indicator -1 shows up.
QUATERNION = generate_group(
    [Permutation((2, 3, 1, 0, 6, 7, 5, 4)), Permutation((4, 5, 7, 6, 1, 0, 2, 3))]
)

KLEIN = generate_group([Permutation((1, 0, 3, 2)), Permutation((2, 3, 0, 1))])

# C7 x| C3 on 7 points: its two 3-dimensional irreps have non-real characters.
F21 = generate_group([Permutation((1, 2, 3, 4, 5, 6, 0)), Permutation((0, 2, 4, 6, 1, 3, 5))])

# Non-cyclic abelian groups: the class-algebra eigensolver's tables, snapped to exact roots of unity.
C2XC4 = generate_group([Permutation((1, 0, 2, 3, 4, 5)), Permutation((0, 1, 3, 4, 5, 2))])
C2_CUBED = generate_group(
    [Permutation((1, 0, 2, 3, 4, 5)), Permutation((0, 1, 3, 2, 4, 5)), Permutation((0, 1, 2, 3, 5, 4))]
)

TABLE_ZOO = [
    make_named_group("cyclic", 2),
    make_named_group("cyclic", 3),
    make_named_group("cyclic", 4),
    make_named_group("cyclic", 7),
    make_named_group("dihedral", 3),
    make_named_group("dihedral", 4),
    make_named_group("dihedral", 6),
    make_named_group("symmetric", 3),
    make_named_group("symmetric", 4),
    make_named_group("symmetric", 5),
    KLEIN,
    QUATERNION,
]


def test_unit_root_quarter_turns_are_exact():
    assert unit_root(4, 0) == 1
    assert unit_root(4, 1) == 1j
    assert unit_root(4, 2) == -1
    assert unit_root(4, 3) == -1j
    assert unit_root(8, 2) == 1j
    assert unit_root(2, 1) == -1
    assert abs(unit_root(3, 1) - complex(-0.5, np.sqrt(3) / 2)) < 1e-15


class TestCharacterTable:
    def test_cyclic_characters_are_root_powers(self):
        group = make_named_group("cyclic", 4)
        table = character_table(group)
        r = group.generators[0]
        for j, irrep in enumerate(table.irreps):
            assert irrep.dim == 1
            for k in range(4):
                assert table.character(j, r**k) == unit_root(4, j * k)

    def test_s3_dimensions(self):
        table = character_table(make_named_group("symmetric", 3))
        assert sorted(table.dims) == [1, 1, 2]

    def test_trivial_group(self):
        table = character_table(generate_group([], degree=2))
        assert table.dims == (1,)
        assert table.irreps[0].values == (1,)

    def test_quaternion_dimensions(self):
        assert sorted(character_table(QUATERNION).dims) == [1, 1, 1, 1, 2]

    @pytest.mark.parametrize("group", TABLE_ZOO, ids=lambda g: f"{g.kind}{len(g)}")
    def test_invariants(self, group):
        table = character_table(group)
        k = len(table.classes)
        assert len(table.irreps) == k
        assert sum(d * d for d in table.dims) == len(group)
        x = table.value_matrix()
        sizes = np.array(table.class_sizes, dtype=float)
        gram = (x * sizes) @ x.conj().T / len(group)
        assert np.abs(gram - np.eye(k)).max() < 1e-9
        # The identity class comes first and carries the dimensions.
        assert table.classes[0].representative == group.identity
        assert np.abs(x[:, 0] - np.array(table.dims)).max() < 1e-9

    def test_group_order_bound(self):
        with pytest.raises(GroupSizeLimitError):
            character_table(make_named_group("symmetric", 5), max_order=100)

    def test_full_permutation_group_at_default_bound(self):
        # Order 5040 is the default oracle ceiling; 15 classes, known dims.
        group = make_named_group("symmetric", 7)
        table = character_table(group)
        assert sorted(table.dims) == [1, 1, 6, 6, 14, 14, 14, 14, 15, 15, 20, 21, 21, 35, 35]
        assert is_totally_orthogonal(group, table)
        mults = ambient_multiplicities(group, 2, table=table)
        assert sum(mults.values) == 20
        assert sum(m * m for m in mults.values) == 120

    @pytest.mark.parametrize("group", [make_named_group("dihedral", 6), QUATERNION, F21], ids=lambda g: f"{g.kind}{len(g)}")
    def test_class_index_matches_class_members(self, group):
        table = character_table(group)
        expected = {m: i for i, c in enumerate(table.classes) for m in c.members}
        assert table.class_index.tolist() == [expected[p] for p in group.elements]
        assert [table.class_index_of(p) for p in group.elements] == table.class_index.tolist()
        with pytest.raises(KeyError):
            table.class_index_of(Permutation((1, 0) + tuple(range(2, group.degree))))

    def test_deterministic_output(self):
        a = character_table(make_named_group("symmetric", 4))
        b = character_table(make_named_group("symmetric", 4))
        assert np.array_equal(a.value_matrix(), b.value_matrix())


class TestExactAbelianCharacters:
    """Non-cyclic abelian values are snapped to exact e-th roots of unity, e the lcm of the generator orders."""

    @pytest.mark.parametrize(
        ("group", "exponent"), [(KLEIN, 2), (C2XC4, 4), (C2_CUBED, 2)], ids=["klein", "c2xc4", "c2^3"]
    )
    def test_values_are_exact_roots_of_unity(self, group, exponent):
        table = character_table(group)
        assert len(table.irreps) == len(group)
        roots = {unit_root(exponent, j) for j in range(exponent)}
        assert {v for irrep in table.irreps for v in irrep.values} <= roots
        # ±1 and ±i multiply exactly, so each character is a homomorphism to the bit.
        for j in range(len(table.irreps)):
            for p in group.elements:
                for q in group.elements:
                    assert table.character(j, p * q) == table.character(j, p) * table.character(j, q)

    def test_values_within_the_tolerance_snap_and_others_raise(self):
        values = np.array([[1 + 1e-12, -1 - 2e-16j], [1j + 1e-13, -1j]])
        assert characters._exact_roots(values, 4).tolist() == [[1, -1], [1j, -1j]]
        with pytest.raises(CharacterTableError, match="2-th roots"):
            characters._exact_roots(np.array([[1j]]), 2)
        with pytest.raises(CharacterTableError):
            characters._exact_roots(np.array([[1 + 1e-6]]), 4)

    def test_chartable_text_shows_the_same_table(self, capsys, tmp_path):
        path = tmp_path / "c2xc4.txt"
        path.write_text("1 0 2 3 4 5\n0 1 3 4 5 2\n")
        assert cli.main(["chartable", "--group-file", str(path)]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert rows[0][3:] == ["[1^6]x1", "[4", "1^2]x1", "[2^2", "1^2]x1", "[4", "1^2]x1", "[2", "1^4]x1", "[4", "2]x1",
                               "[2^3]x1", "[4", "2]x1"]
        assert rows[1:] == [
            ["mu0", "1", "+1", "1", "1", "1", "1", "1", "1", "1", "1"],
            ["mu1", "1", "+0", "1", "1i", "-1", "-1i", "1", "1i", "-1", "-1i"],
            ["mu2", "1", "+1", "1", "-1", "1", "-1", "1", "-1", "1", "-1"],
            ["mu3", "1", "+0", "1", "-1i", "-1", "1i", "1", "-1i", "-1", "1i"],
            ["mu4", "1", "+1", "1", "1", "1", "1", "-1", "-1", "-1", "-1"],
            ["mu5", "1", "+0", "1", "1i", "-1", "-1i", "-1", "-1i", "1", "1i"],
            ["mu6", "1", "+1", "1", "-1", "1", "-1", "-1", "1", "-1", "1"],
            ["mu7", "1", "+0", "1", "-1i", "-1", "1i", "-1", "1i", "1", "-1i"],
        ]


CHARTABLE_GOLDEN = json.loads((Path(__file__).resolve().parent / "golden" / "chartable.json").read_text())["cases"]


@pytest.mark.parametrize("case", CHARTABLE_GOLDEN, ids=[case["name"] for case in CHARTABLE_GOLDEN])
def test_chartable_output_is_unchanged(tmp_path, case):
    # Captured while non-cyclic abelian groups still went through a generator-by-generator eigenspace split:
    # the eigensolver must give the same rows, in the same order, to the byte.
    argv = list(case["argv"])
    if case["group_file"] is not None:
        path = tmp_path / "group.txt"
        path.write_text(case["group_file"])
        argv[1:1] = ["--group-file", str(path)]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    assert (code, out.getvalue()) == (case["code"], case["stdout"])


def test_elementary_abelian_table_needs_no_cubic_memory():
    # C2^8, 256 one-element classes: a (k, k, k) structure tensor alone is 128 MB, and the |G| x |G|
    # eigenspace split held hundreds of MB; the column-by-column class-sum combination holds k**2 floats.
    group = generate_group([Permutation.from_cycles([(2 * i, 2 * i + 1)], 16) for i in range(8)])
    tracemalloc.start()
    try:
        table = character_table(group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.irreps) == 256
    assert {v for irrep in table.irreps for v in irrep.values} == {1, -1}
    assert peak < 40_000_000  # 6.8 MB measured with numpy 2.4 on x86-64; the eigenspace split peaked at 385 MB


class TestEigensolverRetries:
    # Equal weights combine all class sums into the sum of all elements, which is |G| on the
    # trivial irrep and 0 on every other: with three or more irreps, the eigenvalues merge.
    @pytest.mark.parametrize("kind,n", [("symmetric", 4), ("dihedral", 5), ("symmetric", 6)])
    def test_degenerate_first_combination_is_retried(self, monkeypatch, kind, n):
        expected = character_table(make_named_group(kind, n))
        combination, attempts = characters._combination, []

        def first_degenerate(attempt, k):
            attempts.append(attempt)
            return np.ones(k) if attempt == 0 else combination(attempt, k)

        monkeypatch.setattr(characters, "_combination", first_degenerate)
        table = character_table(make_named_group(kind, n))
        assert attempts == [0, 1]
        assert table.dims == expected.dims
        assert np.abs(table.value_matrix() - expected.value_matrix()).max() < 1e-9

    def test_every_combination_degenerate_raises(self, monkeypatch):
        attempts = []
        monkeypatch.setattr(characters, "_combination", lambda attempt, k: attempts.append(attempt) or np.ones(k))
        with pytest.raises(CharacterTableError, match=f"not resolved after {MAX_RETRIES} retries"):
            character_table(make_named_group("symmetric", 4))
        assert attempts == list(range(MAX_RETRIES))


class TestFrobeniusSchur:
    def test_s3_all_real(self):
        fs = frobenius_schur_indicators(make_named_group("symmetric", 3))
        assert fs.values == (1, 1, 1)

    def test_c4_has_complex_pair(self):
        fs = frobenius_schur_indicators(make_named_group("cyclic", 4))
        assert fs.values == (1, 0, 1, 0)

    def test_trivial_group(self):
        assert frobenius_schur_indicators(generate_group([], degree=1)).values == (1,)

    def test_quaternion_has_quaternionic_irrep(self):
        fs = frobenius_schur_indicators(QUATERNION)
        assert -1 in fs.values

    def test_c2_both_real(self):
        assert frobenius_schur_indicators(make_named_group("cyclic", 2)).values == (1, 1)

    def test_residual_is_tiny(self):
        fs = frobenius_schur_indicators(make_named_group("symmetric", 5))
        assert fs.max_residual < 1e-9


class TestTotalOrthogonality:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_dihedral_is_totally_orthogonal(self, n):
        assert is_totally_orthogonal(make_named_group("dihedral", n))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_larger_cyclic_is_not(self, n):
        assert not is_totally_orthogonal(make_named_group("cyclic", n))

    def test_c2_and_klein_are(self):
        assert is_totally_orthogonal(make_named_group("cyclic", 2))
        assert is_totally_orthogonal(KLEIN)

    def test_quaternion_is_not(self):
        assert not is_totally_orthogonal(QUATERNION)


class TestMultiplicities:
    def test_cyclic_four_worked_example(self):
        mults = ambient_multiplicities(make_named_group("cyclic", 4), 2)
        assert mults.values == (6, 3, 4, 3)

    def test_trivial_group_single_block(self):
        assert ambient_multiplicities(generate_group([], degree=3), 2).values == (8,)

    def test_s3_sums(self):
        mults = ambient_multiplicities(make_named_group("symmetric", 3), 2)
        assert sum(mults.values) == 6
        assert sum(m * m for m in mults.values) == 20

    @pytest.mark.parametrize("group", TABLE_ZOO, ids=lambda g: f"{g.kind}{len(g)}")
    @pytest.mark.parametrize("d", [2, 3])
    def test_dimension_identity(self, group, d):
        table = character_table(group)
        mults = ambient_multiplicities(group, d, table=table)
        assert sum(m * ir.dim for m, ir in zip(mults.values, table.irreps)) == d**group.degree

    def test_per_orbit_breakdown_sums(self):
        group = make_named_group("cyclic", 4)
        mults = ambient_multiplicities(group, 2, per_orbit=True)
        assert mults.by_orbit is not None
        assert len(mults.by_orbit) == 6
        for mu, total in enumerate(mults.values):
            assert sum(row[mu] for row in mults.by_orbit) == total

    def test_level_sum_off_an_integer_raises(self):
        # C3 class values (8, 2, 3) are not Galois-invariant: the nontrivial characters' level sums
        # over the classes of 2 and of 3 are omega and omega**2, not integers.
        table = character_table(make_named_group("cyclic", 3))
        with pytest.raises(MultiplicityRoundingError, match="off an integer"):
            _project_class_functions(table, [[8, 2, 3]], what="m")

    def test_remainder_raises(self):
        # C3 class values (9, 2, 2): the trivial irrep's projection is (9 + 2 + 2) / 3, not an integer.
        table = character_table(make_named_group("cyclic", 3))
        assert _project_class_functions(table, [[8, 2, 2]], what="m") == [(4, 2, 2)]
        with pytest.raises(MultiplicityRoundingError, match="13/3, not a non-negative integer"):
            _project_class_functions(table, [[9, 2, 2]], what="m")

    @pytest.mark.parametrize("n", [40, 48, 52, 56])
    def test_long_cycle_sums_round_within_float64_error(self, n):
        # The trivial irrep's sum is about 2**n / n, from n = 52 past float64 resolution; the level
        # sums are small integers, and the multiplicities are formed from them in Python ints.
        group = generate_group([Permutation(tuple((i + 1) % n for i in range(n)))])
        mults = ambient_multiplicities(group, 2, table=character_table(group))
        assert sum(mults.values) == 2**n
        assert mults.values[0] == count_classical_burnside(group, 2)  # the trivial irrep counts the orbits
        assert sum(m * m for m in mults.values) == count_ancilla_polya(group, 2)

    @pytest.mark.parametrize("n", [56, 70])
    def test_transposition_sums_beyond_float64_are_exact(self, n):
        # <(0 1)> on n points: the transposition fixes 2**(n-1) strings, a term beyond float64
        # resolution (and at n = 70 beyond int64); the multiplicities are (2**n +- 2**(n-1)) / 2.
        group = generate_group([Permutation.from_cycles([(0, 1)], n)])
        mults = ambient_multiplicities(group, 2, table=character_table(group))
        assert mults.values == (3 * 2 ** (n - 2), 2 ** (n - 2))

    @pytest.mark.parametrize("kind,count", [("cyclic", count_cyclic), ("dihedral", count_dihedral)])
    @pytest.mark.parametrize("n,d", [(40, 3), (64, 5)])
    def test_large_named_groups_match_closed_forms(self, kind, count, n, d):
        mults = ambient_multiplicities(make_named_group(kind, n), d)
        report = count(n, d)
        assert sum(mults.values) == report.n_q
        assert sum(m * m for m in mults.values) == report.n_a


class TestOracles:
    def test_cyclic_four_quantum(self):
        assert nq_oracle(make_named_group("cyclic", 4), 2) == 16

    def test_cyclic_four_ancilla(self):
        assert na_oracle(make_named_group("cyclic", 4), 2) == 70

    def test_dihedral_four_matches_squared_cycle_formula(self):
        assert nq_oracle(make_named_group("dihedral", 4), 2) == 13

    @pytest.mark.parametrize("n", range(2, 9))
    def test_abelian_specialization(self, n):
        group = make_named_group("cyclic", n)
        for d in (2, 3):
            assert nq_oracle(group, d) == d**n

    @pytest.mark.parametrize("group", TABLE_ZOO, ids=lambda g: f"{g.kind}{len(g)}")
    @pytest.mark.parametrize("d", [2, 3])
    def test_ancilla_oracle_equals_group_average(self, group, d):
        assert na_oracle(group, d) == count_ancilla_polya(group, d)

    @pytest.mark.parametrize(
        "group",
        [g for g in TABLE_ZOO if len(g) <= 120],
        ids=lambda g: f"{g.kind}{len(g)}",
    )
    @pytest.mark.parametrize("d", [2, 3])
    def test_quantum_oracle_matches_formula_when_orthogonal(self, group, d):
        if is_totally_orthogonal(group):
            assert nq_oracle(group, d) == count_quantum_totally_orthogonal(group, d, certify=False)


class TestSquareRootLemma:
    @pytest.mark.parametrize(
        "group",
        [make_named_group("symmetric", 3), make_named_group("symmetric", 4), make_named_group("dihedral", 4)],
        ids=("S3", "S4", "D4"),
    )
    def test_character_sum_counts_square_roots(self, group):
        table = character_table(group)
        images = [p.images for p in group]
        for p in group.elements:
            total = sum(ir.values[table.class_index_of(p)] for ir in table.irreps)
            roots = square_root_count(group, p)
            assert roots == brute_square_roots(images, p.images)
            assert abs(total - roots) < 1e-9

    def test_cyclic_four_counterexample_at_identity(self):
        # Not totally orthogonal, so the identity must fail: 4 != 2.
        group = make_named_group("cyclic", 4)
        table = character_table(group)
        total = sum(ir.values[table.class_index_of(group.identity)] for ir in table.irreps)
        assert total == 4
        assert square_root_count(group, group.identity) == 2


class TestIsotypicProjectors:
    @pytest.mark.parametrize(
        "group,d",
        [
            (make_named_group("cyclic", 4), 2),
            (make_named_group("symmetric", 3), 2),
            (KLEIN, 2),
            (make_named_group("dihedral", 4), 2),
        ],
        ids=("C4", "S3", "Klein", "D4"),
    )
    def test_projector_algebra(self, group, d):
        table = character_table(group)
        mults = ambient_multiplicities(group, d, table=table)
        size = d**group.degree
        total = np.zeros((size, size), dtype=complex)
        trace_sum = 0.0
        for mu, irrep in enumerate(table.irreps):
            p = isotypic_projector(group, d, mu, table=table)
            assert np.abs(p @ p - p).max() < 1e-9
            assert np.abs(p - p.conj().T).max() < 1e-9
            assert abs(np.trace(p).real - mults.values[mu] * irrep.dim) < 1e-6
            trace_sum += np.trace(p).real
            total += p
        assert np.abs(total - np.eye(size)).max() < 1e-9
        assert abs(trace_sum - size) < 1e-6

    def test_trivial_group_identity_projector(self):
        group = generate_group([], degree=2)
        p = isotypic_projector(group, 2, 0)
        assert np.abs(p - np.eye(4)).max() < 1e-12

    def test_rank_one_antisymmetric_block(self):
        # Swap on two qubits: the sign sector is spanned by (|01> - |10>)/sqrt(2).
        group = generate_group([Permutation((1, 0))])
        table = character_table(group)
        sign = next(i for i, ir in enumerate(table.irreps) if ir.values[table.class_index_of(group.generators[0])] == -1)
        p = isotypic_projector(group, 2, sign, table=table)
        singlet = np.zeros(4, dtype=complex)
        singlet[0b01] = 1 / np.sqrt(2)
        singlet[0b10] = -1 / np.sqrt(2)
        assert abs(np.trace(p).real - 1) < 1e-12
        assert np.abs(p - np.outer(singlet, singlet.conj())).max() < 1e-12

    def test_dimension_bound(self):
        # checked before the orbits are labelled or anything is allocated
        group = make_named_group("cyclic", 4)
        with pytest.raises(StateSpaceBoundError):
            isotypic_projector(group, 2, 0, max_dim=8)
        assert group._orbit_labels == {}

    @pytest.mark.parametrize(
        "group,d",
        [
            (make_named_group("cyclic", 5), 2),
            (F21, 2),
            (make_named_group("symmetric", 3), 1),
            (make_named_group("cyclic", 4), 1),
            (generate_group([], degree=3), 2),
            (generate_group([Permutation((1, 0, 2, 3)), Permutation((1, 2, 0, 3))]), 2),
            (KLEIN, 3),
            (make_named_group("dihedral", 5), 2),
        ],
        ids=("C5", "F21", "S3-d1", "C4-d1", "trivial", "S3-on-3-of-4", "Klein-d3", "D5"),
    )
    def test_every_irrep_matches_dense_oracle(self, group, d):
        table = character_table(group)
        images = [p.images for p in group]
        for mu, irrep in enumerate(table.irreps):
            chars = [table.character(mu, p) for p in group]
            expected = brute_isotypic_projector(images, chars, irrep.dim, group.degree, d)
            assert np.abs(isotypic_projector(group, d, mu, table=table) - expected).max() < 1e-12

    def test_no_index_kernel_per_call(self, monkeypatch):
        # Only the first projector at a d builds index arrays; every irrep after it reads the memoised ones.
        group = make_named_group("symmetric", 4)
        table = character_table(group)
        fresh = [isotypic_projector(dataclasses.replace(group), 2, mu, table=table) for mu in range(len(table.irreps))]
        isotypic_projector(group, 2, 0, table=table)
        for name in ("moved_values", "move_indices", "orbit_reps"):
            monkeypatch.setattr(kernels, name, None)
        for mu, expected in enumerate(fresh):
            assert np.array_equal(isotypic_projector(group, 2, mu, table=table), expected)

    def test_memoised_geometry_gives_the_projectors_of_a_fresh_copy_and_the_oracle(self, monkeypatch):
        # Two alphabets on one group, irreps in reverse order: every call after the first at a d reads the
        # memoised index arrays (no move_indices), and equals a fresh copy's projector bit for bit.
        group = make_named_group("dihedral", 4)
        table = character_table(group)
        images = [p.images for p in group]
        move_indices = kernels.move_indices
        for d in (2, 3):
            for mu in reversed(range(len(table.irreps))):
                irrep = table.irreps[mu]
                projector = isotypic_projector(group, d, mu, table=table)
                monkeypatch.setattr(kernels, "move_indices", None)
                assert np.array_equal(projector, isotypic_projector(group, d, mu, table=table))
                monkeypatch.setattr(kernels, "move_indices", move_indices)
                fresh = dataclasses.replace(group)
                assert np.array_equal(projector, isotypic_projector(fresh, d, mu, table=table))
                chars = [table.character(mu, p) for p in group]
                expected = brute_isotypic_projector(images, chars, irrep.dim, group.degree, d)
                assert np.abs(projector - expected).max() < 1e-12
        assert sorted(group._projector_geometry) == [2, 3]
        assert not any(a.flags.writeable for geometry in group._projector_geometry.values() for a in geometry)

    @pytest.mark.parametrize(
        "group,d,complex_dims",
        [
            (make_named_group("symmetric", 4), 2, []),
            (make_named_group("dihedral", 5), 2, []),
            (make_named_group("symmetric", 3), 3, []),
            (make_named_group("cyclic", 4), 2, [1, 1]),  # the +-i irreps
            (make_named_group("cyclic", 6), 2, [1, 1, 1, 1]),
            (F21, 2, [1, 1, 3, 3]),  # the non-trivial linear pair and the degree-3 pair
            (QUATERNION, 1, []),
        ],
        ids=("S4", "D5", "S3-d3", "C4", "C6", "F21", "Q8-d1"),
    )
    def test_dtype_follows_the_character(self, group, d, complex_dims):
        # float64 exactly when every character value is real; a real projector is bit for bit the real part of
        # the complex projector built from the same index arrays, whose imaginary part is exact zeros.
        table = character_table(group)
        keys, entries, sources = characters._projector_geometry(group, d)
        size, r = d**group.degree, len(keys) // len(group)
        found = []
        for mu, irrep in enumerate(table.irreps):
            projector = isotypic_projector(group, d, mu, table=table)
            weights = np.repeat(irrep.dim * np.conj(irrep.values)[table.class_index] / table.group_order, r)
            columns = np.bincount(keys, weights.real, size * r) + 1j * np.bincount(keys, weights.imag, size * r)
            reference = np.zeros((size, size), dtype=complex)
            reference.ravel()[entries] = columns[sources]
            if all(value.imag == 0.0 for value in irrep.values):
                assert projector.dtype == np.float64
                assert not reference.imag.any()
                assert projector.tobytes() == reference.real.tobytes()
            else:
                assert projector.dtype == np.complex128
                assert projector.tobytes() == reference.tobytes()
                found.append(irrep.dim)
        assert found == complex_dims

    @pytest.mark.parametrize("group", [make_named_group("symmetric", 4), make_named_group("cyclic", 4), F21],
                             ids=("S4", "C4", "F21"))
    def test_projectors_sum_to_the_identity(self, group):
        table = character_table(group)
        total = sum(isotypic_projector(group, 2, mu, table=table) for mu in range(len(table.irreps)))
        assert np.abs(total - np.eye(2**group.degree)).max() < 1e-12

    @pytest.mark.parametrize("mu", [-1, -5, 5, 6, 100])
    @pytest.mark.parametrize("with_table", [True, False])
    def test_irrep_index_out_of_range(self, mu, with_table):
        # S4 has 5 irreps; checked before the orbits are labelled or anything is allocated
        group = make_named_group("symmetric", 4)
        table = character_table(group) if with_table else None
        with pytest.raises(IndexError, match=r"irrep index -?\d+ is outside range\(5\)"):
            isotypic_projector(group, 2, mu, table=table)
        assert group._orbit_labels == {}
        assert group._projector_geometry == {}

    def test_cyclic_trivial_sector_rank(self):
        p = isotypic_projector(make_named_group("cyclic", 4), 2, 0)
        assert abs(np.trace(p).real - 6) < 1e-9
