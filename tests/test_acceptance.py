"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import math
import time
from contextlib import contextmanager
from fractions import Fraction

from oracles import brute_orbits, brute_stabilizer_order, tuple_cycle_counts
from permchannel import (
    ColoredString,
    ambient_multiplicities,
    asymptotic_estimate,
    character_table,
    conjugacy_classes,
    count_ancilla_polya,
    count_classical_burnside,
    count_cyclic,
    count_dihedral,
    count_quantum_totally_orthogonal,
    count_symmetric,
    cycle_index_symmetric,
    dense_coding_summary,
    frobenius_schur_indicators,
    is_totally_orthogonal,
    make_named_group,
    message_basis_cyclic,
    na_oracle,
    nq_oracle,
    partitions,
    series_coefficient_nq,
    square_root_count,
    stabilizer_orders,
    symmetric_class_size,
    verify_zero_error,
)
from test_encoding import GOLDEN_BASIS, coefficient_table, necklace_rows


@contextmanager
def criterion(number: int, text: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {text}")
        raise
    print(f"PASS criterion {number}: {text} [{time.perf_counter() - start:.2f}s]")


def test_criterion_1_worked_example_reproduction():
    with criterion(1, "C_4 d=2 worked example (counts, multiplicities, states)"):
        start = time.perf_counter()
        report = count_cyclic(4, 2)
        assert (report.n_c, report.n_q, report.n_a) == (6, 16, 70)
        mults = ambient_multiplicities(make_named_group("cyclic", 4), 2)
        assert mults.values == (6, 3, 4, 3)
        reps = ["".join(map(str, row)) for row in necklace_rows(4, 2)]
        assert reps == ["0000", "0001", "0011", "0101", "0111", "1111"]
        basis = message_basis_cyclic(4, 2)
        assert basis.multiplicities == (6, 3, 4, 3)
        assert coefficient_table(basis) == GOLDEN_BASIS  # exact complex equality
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"worked example took {elapsed:.2f}s"


def test_criterion_2_zero_error_certification():
    with criterion(2, "exhaustive zero-error decoding, cyclic n=2..8 d=2 and n=2..5 d=3"):
        start = time.perf_counter()
        cases = [(n, 2) for n in range(2, 9)] + [(n, 3) for n in range(2, 6)]
        for n, d in cases:
            group = make_named_group("cyclic", n)
            report = verify_zero_error(group, message_basis_cyclic(n, d), tol=1e-9)
            assert report.zero_error, f"failures at n={n}, d={d}: {report.failures[:3]}"
            assert report.messages_tested == d**n
            assert report.group_elements_tested == n
            assert report.max_offdiag_overlap < 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"certification took {elapsed:.2f}s"


def test_criterion_3_formula_oracle_agreement():
    with criterion(3, "squared-cycle formula == multiplicity sum; squared alphabet == squared multiplicities"):
        orthogonal_groups = [make_named_group("dihedral", n) for n in range(3, 7)]
        orthogonal_groups += [make_named_group("symmetric", n) for n in range(3, 6)]
        for group in orthogonal_groups:
            table = character_table(group)
            for d in (2, 3):
                formula = count_quantum_totally_orthogonal(group, d)
                assert formula == nq_oracle(group, d, table=table)
                assert count_ancilla_polya(group, d) == na_oracle(group, d, table=table)
        for n in range(2, 9):
            group = make_named_group("cyclic", n)
            table = character_table(group)
            for d in (2, 3):
                assert count_ancilla_polya(group, d) == na_oracle(group, d, table=table)


def test_criterion_4_negative_control():
    with criterion(4, "cyclic groups are flagged not totally orthogonal; formula diverges from oracle"):
        for n in (3, 4, 5, 6):
            group = make_named_group("cyclic", n)
            assert not is_totally_orthogonal(group)
            fs = frobenius_schur_indicators(group)
            assert any(v != 1 for v in fs.values)
            formula = count_quantum_totally_orthogonal(group, 2, certify=False)
            oracle = nq_oracle(group, 2)
            assert oracle == 2**n
            assert formula != oracle, f"no divergence at n={n}"
            if n == 4:
                assert (formula, oracle) == (10, 16)


def test_criterion_5_symmetric_group_identities():
    with criterion(5, "series coefficient == cycle index (n<=30, d<=4); n! element sum == partition sum (n<=7)"):
        for d in (1, 2, 3, 4):
            for n in range(0, 31):
                variables = tuple(d if k % 2 == 0 else d * d for k in range(max(n, 1)))
                assert series_coefficient_nq(n, d) == cycle_index_symmetric(n, variables)
        for n in range(1, 8):
            variables = tuple(2 if k % 2 == 0 else 4 for k in range(n))
            element_sum = Fraction(0)
            for images in itertools.permutations(range(n)):
                term = Fraction(1)
                for length, mult in tuple_cycle_counts(images).items():
                    term *= Fraction(variables[length - 1]) ** mult
                element_sum += term
            assert element_sum / math.factorial(n) == cycle_index_symmetric(n, variables)


def test_criterion_6_hierarchy_and_asymptotics():
    with criterion(6, "strict N_c < N_q < N_a; asymptotic ratios behave as stated"):
        counters = {
            "cyclic": (count_cyclic, range(2, 9)),
            "dihedral": (count_dihedral, range(3, 9)),
            "symmetric": (count_symmetric, range(2, 7)),
        }
        for _kind, (counter, n_range) in counters.items():
            for n in n_range:
                for d in (2, 3):
                    report = counter(n, d)
                    assert report.n_c < report.n_q < report.n_a
        exact = count_cyclic(30, 2).n_c
        estimate = asymptotic_estimate("cyclic_Nc", 30, 2).leading_value
        assert abs(Fraction(exact) / estimate - 1) < Fraction(1, 100)
        for n in range(1, 80):
            exact = count_symmetric(n, 2).n_c
            ratio = Fraction(exact) / asymptotic_estimate("symmetric_Nc", n, 2).leading_value
            assert ratio == Fraction(n + 1, n)


def test_criterion_7_dense_coding():
    with criterion(7, "dense coding round-trips every (mu, a, b); totals 10 / 24 / 70"):
        start = time.perf_counter()
        expected_totals = {2: 10, 3: 24, 4: 70}
        for n, expected in expected_totals.items():
            basis = message_basis_cyclic(n, 2)
            summary = dense_coding_summary(basis, verify_zero_error(basis.group, basis))
            assert summary["failures"] == []
            assert summary["triples"] == expected
            assert expected == count_cyclic(n, 2).n_a
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"dense coding took {elapsed:.2f}s"


def test_criterion_8_group_theory_lemma_suite():
    with criterion(8, "orbit-stabilizer, orbit counting, class sizes, square-root identities"):
        # Orbit-stabilizer products and group-average orbit counting vs brute force.
        zoo = [
            (make_named_group("cyclic", 6), 2),
            (make_named_group("dihedral", 4), 2),
            (make_named_group("symmetric", 4), 2),
            (make_named_group("cyclic", 4), 3),
        ]
        for group, d in zoo:
            elements = [p.images for p in group]
            brute = brute_orbits(elements, group.degree, d)
            assert count_classical_burnside(group, d) == len(brute)
            for orbit in brute:
                x = min(orbit)
                [order] = stabilizer_orders(group, [ColoredString(x, d).index], d).tolist()
                assert order == brute_stabilizer_order(elements, x)
                assert order * len(orbit) == len(group)

        # Conjugacy class sizes against the factorial formula, S_n for n <= 6.
        for n in range(1, 7):
            group = make_named_group("symmetric", n)
            classes = conjugacy_classes(group)
            assert len(classes) == sum(1 for _ in partitions(n))
            for c in classes:
                assert c.size == symmetric_class_size(c.partition, n)

        # Square-root counting is a class function.
        for group in (make_named_group("symmetric", 4), make_named_group("dihedral", 5)):
            for c in conjugacy_classes(group):
                assert len({square_root_count(group, p) for p in c.members}) == 1

        # Character sums count square roots on totally orthogonal groups.
        for group in (
            make_named_group("symmetric", 3),
            make_named_group("symmetric", 4),
            make_named_group("dihedral", 4),
        ):
            table = character_table(group)
            for p in group.elements:
                total = sum(ir.values[table.class_index_of(p)] for ir in table.irreps)
                assert abs(total - square_root_count(group, p)) < 1e-9

        # ... and the counterexample where total orthogonality fails.
        c4 = make_named_group("cyclic", 4)
        table = character_table(c4)
        identity_sum = sum(ir.values[table.class_index_of(c4.identity)] for ir in table.irreps)
        assert identity_sum == 4
        assert square_root_count(c4, c4.identity) == 2
