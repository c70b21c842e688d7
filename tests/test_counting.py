import math
from fractions import Fraction

import pytest

from oracles import brute_orbits, cycle_index_by_enumeration, tuple_cycle_counts
from permchannel import (
    Permutation,
    PermutationGroup,
    asymptotic_estimate,
    count_ancilla_polya,
    count_classical_burnside,
    count_cyclic,
    count_dihedral,
    count_quantum_totally_orthogonal,
    count_report,
    count_symmetric,
    cycle_count,
    cycle_index_symmetric,
    generate_group,
    make_named_group,
    parse_group_file,
    partitions,
    series_coefficient_nq,
    symmetric_class_size,
)
from permchannel import characters
from permchannel.counting import CountReport
from permchannel.errors import InexactDivisionError, NotTotallyOrthogonalError

ZOO = [
    ("cyclic", 4),
    ("cyclic", 6),
    ("cyclic", 8),
    ("dihedral", 3),
    ("dihedral", 5),
    ("symmetric", 3),
    ("symmetric", 4),
]


class TestBurnside:
    def test_cyclic_four_necklaces(self):
        assert count_classical_burnside(make_named_group("cyclic", 4), 2) == 6

    def test_trivial_group_counts_everything(self):
        assert count_classical_burnside(generate_group([], degree=3), 2) == 8

    def test_s3_weight_classes(self):
        group = make_named_group("symmetric", 3)
        assert count_classical_burnside(group, 2) == len(brute_orbits([p.images for p in group], 3, 2))

    @pytest.mark.parametrize("kind,n", ZOO)
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_brute_force_orbit_count(self, kind, n, d):
        group = make_named_group(kind, n)
        expected = len(brute_orbits([p.images for p in group], n, d))
        assert count_classical_burnside(group, d) == expected

    def test_inexact_division_flags_non_group(self):
        fake = PermutationGroup(3, [(0, 1, 2), (1, 0, 2), (1, 2, 0)], [(1, 2, 0)])
        with pytest.raises(InexactDivisionError):
            count_classical_burnside(fake, 2)


class TestAncilla:
    def test_cyclic_four(self):
        assert count_ancilla_polya(make_named_group("cyclic", 4), 2) == 70

    def test_trivial_group(self):
        assert count_ancilla_polya(generate_group([], degree=3), 2) == 64

    def test_s3_stars_and_bars_with_squared_alphabet(self):
        assert count_ancilla_polya(make_named_group("symmetric", 3), 2) == math.comb(6, 3) == 20

    @pytest.mark.parametrize("kind,n", ZOO)
    def test_reduces_to_squared_alphabet(self, kind, n):
        group = make_named_group(kind, n)
        for d in (2, 3):
            assert count_ancilla_polya(group, d) == count_classical_burnside(group, d * d)


class TestTotallyOrthogonalFormula:
    def test_dihedral_four(self):
        assert count_quantum_totally_orthogonal(make_named_group("dihedral", 4), 2) == 13

    def test_symmetric_three(self):
        assert count_quantum_totally_orthogonal(make_named_group("symmetric", 3), 2) == 6

    def test_cyclic_certification_fails(self):
        with pytest.raises(NotTotallyOrthogonalError, match=r"\[1, 0, 1, 0\]"):
            count_quantum_totally_orthogonal(make_named_group("cyclic", 4), 2)

    def test_refusal_builds_one_character_table(self, monkeypatch):
        # C3 on six points, (0 1 2)(3 4 5): two complex irreps, so certification refuses it.
        group = parse_group_file("1 2 0 4 5 3\n")
        calls = []
        build = characters.character_table
        monkeypatch.setattr(characters, "character_table", lambda *a, **k: calls.append(1) or build(*a, **k))
        with pytest.raises(NotTotallyOrthogonalError, match=r"\[1, 0, 0\]"):
            count_quantum_totally_orthogonal(group, 2)
        assert len(calls) == 1

    def test_uncertified_value_still_computed(self):
        # The squared-element average itself is well defined for any group.
        assert count_quantum_totally_orthogonal(make_named_group("cyclic", 4), 2, certify=False) == 10


class TestCyclicClosedForm:
    def test_worked_example(self):
        report = count_cyclic(4, 2)
        assert (report.n_c, report.n_q, report.n_a) == (6, 16, 70)

    def test_single_position(self):
        report = count_cyclic(1, 5)
        assert (report.n_c, report.n_q, report.n_a) == (5, 5, 25)

    def test_three_positions(self):
        report = count_cyclic(3, 2)
        assert (report.n_c, report.n_q, report.n_a) == (4, 8, 24)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("d", [2, 3])
    def test_agrees_with_group_averages(self, n, d):
        group = make_named_group("cyclic", n)
        report = count_cyclic(n, d)
        assert report.n_c == count_classical_burnside(group, d)
        assert report.n_a == count_ancilla_polya(group, d)
        assert report.n_q == d**n


class TestDihedralClosedForm:
    def test_square_ring(self):
        report = count_dihedral(4, 2)
        assert (report.n_c, report.n_q, report.n_a) == (6, 13, 55)

    def test_triangle_ring(self):
        report = count_dihedral(3, 2)
        assert (report.n_c, report.n_q, report.n_a) == (4, 6, 20)

    def test_single_color(self):
        report = count_dihedral(5, 1)
        assert (report.n_c, report.n_q, report.n_a) == (1, 1, 1)

    @pytest.mark.parametrize("n", [1, 2])
    def test_degenerate_sizes_fall_back_to_group_averages(self, n):
        report = count_dihedral(n, 2)
        group = make_named_group("dihedral", n)
        assert report.n_c == count_classical_burnside(group, 2)
        assert report.n_a == count_ancilla_polya(group, 2)
        assert report.n_c_method == "burnside"

    @pytest.mark.parametrize("n", range(3, 9))
    @pytest.mark.parametrize("d", [2, 3])
    def test_agrees_with_group_averages(self, n, d):
        group = make_named_group("dihedral", n)
        report = count_dihedral(n, d)
        assert report.n_c == count_classical_burnside(group, d)
        assert report.n_a == count_ancilla_polya(group, d)
        assert report.n_q == count_quantum_totally_orthogonal(group, d)


class TestSymmetricClosedForm:
    def test_three_positions(self):
        report = count_symmetric(3, 2)
        assert (report.n_c, report.n_q, report.n_a) == (4, 6, 20)

    def test_four_positions(self):
        report = count_symmetric(4, 2)
        assert (report.n_c, report.n_q, report.n_a) == (5, 9, 35)

    def test_single_color(self):
        report = count_symmetric(7, 1)
        assert (report.n_c, report.n_q, report.n_a) == (1, 1, 1)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("d", [2, 3])
    def test_agrees_with_group_averages(self, n, d):
        group = make_named_group("symmetric", n)
        report = count_symmetric(n, d)
        assert report.n_c == count_classical_burnside(group, d)
        assert report.n_a == count_ancilla_polya(group, d)
        assert report.n_q == count_quantum_totally_orthogonal(group, d)

    @pytest.mark.parametrize("n", [7, 8])
    def test_agrees_with_group_averages_large(self, n):
        # Total orthogonality of the full permutation group is certified up to
        # n = 6 above; here only the elementwise sums are exercised.
        group = make_named_group("symmetric", n)
        report = count_symmetric(n, 2)
        assert report.n_c == count_classical_burnside(group, 2)
        assert report.n_a == count_ancilla_polya(group, 2)
        assert report.n_q == count_quantum_totally_orthogonal(group, 2, certify=False)


class TestPartitionsAndCycleIndex:
    def test_partition_counts(self):
        known = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        for n, expected in enumerate(known):
            assert sum(1 for _ in partitions(n)) == expected

    def test_partitions_sum_to_n(self):
        for partition in partitions(9):
            assert sum(part * mult for part, mult in partition) == 9
            parts = [part for part, _ in partition]
            assert parts == sorted(parts, reverse=True)

    def test_class_sizes_sum_to_factorial(self):
        for n in range(1, 8):
            assert sum(symmetric_class_size(p, n) for p in partitions(n)) == math.factorial(n)

    def test_s2_cycle_index(self):
        for a1, a2 in [(2, 4), (3, 7), (1, 1)]:
            assert cycle_index_symmetric(2, (a1, a2)) == Fraction(a1 * a1 + a2, 2)

    def test_s3_quantum_substitution(self):
        assert cycle_index_symmetric(3, (2, 4, 2)) == 6

    def test_all_ones_gives_one(self):
        for n in range(1, 21):
            assert cycle_index_symmetric(n, (1,) * n) == 1

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_direct_enumeration(self, n):
        values = tuple(range(2, 2 + n))
        assert cycle_index_symmetric(n, values) == cycle_index_by_enumeration(n, values)

    def test_requires_enough_values(self):
        with pytest.raises(ValueError):
            cycle_index_symmetric(4, (1, 1))


class TestSeriesCoefficient:
    def test_constant_term(self):
        for d in (1, 2, 5):
            assert series_coefficient_nq(0, d) == 1

    def test_known_small_values(self):
        assert series_coefficient_nq(3, 2) == 6
        assert series_coefficient_nq(4, 2) == 9

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_equals_cycle_index_substitution(self, d):
        for n in range(0, 31):
            variables = tuple(d if k % 2 == 0 else d * d for k in range(n))
            assert series_coefficient_nq(n, d) == cycle_index_symmetric(n, variables)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_cycle_squaring_rule(self, n):
        # Odd cycles survive squaring, even cycles split in two.
        for p in make_named_group("symmetric", n):
            counts = {k: 0 for k in range(1, n + 1)}
            counts.update(tuple_cycle_counts(p.images))
            expected = sum(c for k, c in counts.items() if k % 2 == 1) + 2 * sum(
                c for k, c in counts.items() if k % 2 == 0
            )
            assert cycle_count(p * p) == expected


class TestCountReport:
    def test_hierarchy_enforced(self):
        with pytest.raises(ValueError):
            CountReport(n=2, d=2, n_c=3, n_a=2, n_c_method="burnside", n_a_method="polya_ancilla")

    def test_quantum_bound_enforced(self):
        with pytest.raises(ValueError):
            CountReport(
                n=2, d=2, n_c=1, n_a=16, n_q=5,
                n_c_method="burnside", n_a_method="polya_ancilla", n_q_method="oracle",
            )

    def test_undefined_quantum_flag(self):
        report = CountReport(n=2, d=2, n_c=3, n_a=10, n_c_method="burnside", n_a_method="polya_ancilla")
        assert not report.n_q_defined


class TestGenericReport:
    def test_trivial_custom_group(self):
        report = count_report(generate_group([], degree=3), 2)
        assert (report.n_c, report.n_q, report.n_a) == (8, 8, 64)

    def test_custom_abelian_quantum_count_is_full_dimension(self):
        klein = generate_group(
            [Permutation((1, 0, 3, 2)), Permutation((2, 3, 0, 1))], kind="custom"
        )
        report = count_report(klein, 2)
        assert report.n_q == 16 and report.n_q_method == "totally_orthogonal"

    def test_cyclic_kind_shortcut(self):
        report = count_report(make_named_group("cyclic", 5), 2)
        assert report.n_q == 32 and report.n_q_method == "cyclic_closed_form"

    def test_non_orthogonal_custom_group_uses_oracle(self):
        c4 = generate_group([Permutation((1, 2, 3, 0))], kind="custom")
        report = count_report(c4, 2)
        assert report.n_q == 16 and report.n_q_method == "oracle"

    def test_oracle_bound_leaves_quantum_undefined(self):
        group = make_named_group("symmetric", 4)
        report = count_report(group, 2, oracle_max_order=10)
        assert report.n_q is None and not report.n_q_defined
        assert "bound" in report.n_q_reason


class TestAsymptotics:
    def test_cyclic_classical_30_positions(self):
        exact = count_cyclic(30, 2).n_c
        estimate = asymptotic_estimate("cyclic_Nc", 30, 2)
        assert estimate.leading_value == Fraction(2**30, 30)
        assert abs(Fraction(exact) / estimate.leading_value - 1) < Fraction(1, 100)

    def test_symmetric_classical_is_n_plus_one(self):
        for n in (1, 5, 100):
            exact = count_symmetric(n, 2).n_c
            assert exact == n + 1
            estimate = asymptotic_estimate("symmetric_Nc", n, 2)
            assert Fraction(exact) / estimate.leading_value == Fraction(n + 1, n)

    def test_single_color_single_position(self):
        assert asymptotic_estimate("cyclic_Na", 1, 1).leading_value == 1

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            asymptotic_estimate("alternating_Nc", 4, 2)

    @pytest.mark.parametrize(
        "kind,counter,field",
        [
            ("cyclic_Na", count_cyclic, "n_a"),
            ("dihedral_Nc", count_dihedral, "n_c"),
            ("dihedral_Nq", count_dihedral, "n_q"),
            ("dihedral_Na", count_dihedral, "n_a"),
            ("symmetric_Nq", count_symmetric, "n_q"),
            ("symmetric_Na", count_symmetric, "n_a"),
        ],
    )
    def test_ratio_approaches_one(self, kind, counter, field):
        lo, hi = (20, 40) if kind.startswith(("cyclic", "dihedral")) else (60, 120)
        def ratio(n):
            exact = getattr(counter(n, 2), field)
            return Fraction(exact) / asymptotic_estimate(kind, n, 2).leading_value
        assert abs(ratio(hi) - 1) < abs(ratio(lo) - 1) or ratio(lo) == ratio(hi) == 1


class TestHierarchy:
    @pytest.mark.parametrize("kind", ["cyclic", "dihedral", "symmetric"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_strict_chain(self, kind, d):
        counter = {"cyclic": count_cyclic, "dihedral": count_dihedral, "symmetric": count_symmetric}[kind]
        start = 3 if kind == "dihedral" else 2
        for n in range(start, 9 if kind != "symmetric" else 7):
            report = counter(n, d)
            assert report.n_c < report.n_q < report.n_a
            assert report.n_q <= d**n
