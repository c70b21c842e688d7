"""Property tests over randomly generated custom subgroups.

The fixed zoos elsewhere cover the named families; here hypothesis draws
arbitrary generator sets so the counting/oracle identities are exercised on
subgroups nobody hand-picked.
"""

import contextlib
import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from oracles import (
    act_tuple,
    brute_class_structure,
    brute_conjugacy_classes,
    brute_isotypic_projector,
    brute_is_group,
    brute_orbits,
    brute_square_roots,
    brute_stabilizer_order,
    compose_images,
    cyclic_fourier_basis,
    dense_coding_probabilities,
    dense_zero_error,
    index_table,
    void_key_ranks,
)
from oracles import dense_coding_certify as oracle_dense_coding
from permchannel import (
    Permutation,
    PermutationGroup,
    ambient_multiplicities,
    character_table,
    conjugacy_classes,
    count_ancilla_polya,
    count_classical_burnside,
    count_report,
    cycle_count,
    dense_coding_summary,
    generate_group,
    isotypic_projector,
    make_named_group,
    message_basis_cyclic,
    na_oracle,
    nq_oracle,
    orbits,
    square_root_count,
    stabilizer_orders,
    verify_classical,
    verify_zero_error,
)
from permchannel import channel, perms
from permchannel.characters import _combination, _combined_class_sums
from permchannel.perms import orbit_labels
from test_certify_oracle import oracle_sectors


def group_strategy(max_degree=5):
    def build(args):
        n, seeds = args
        gens = [Permutation(tuple(images)) for images in seeds]
        return generate_group(gens, degree=n, max_order=240)

    return (
        st.integers(2, max_degree)
        .flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.permutations(list(range(n))), min_size=1, max_size=2),
            )
        )
        .map(build)
    )


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group_strategy(), st.integers(2, 3))
def test_group_average_equals_brute_force_orbit_count(group, d):
    brute = len(brute_orbits([p.images for p in group], group.degree, d))
    assert count_classical_burnside(group, d) == brute
    assert len(orbits(group, d)) == brute


def _index(x, d):
    ix = 0
    for s in x:
        ix = ix * d + s
    return ix


def _orbits_by_least_index(group, d):
    """Brute-force orbits as sorted index lists, ordered by their least index."""
    brute = brute_orbits([p.images for p in group], group.degree, d)
    return sorted(sorted(_index(x, d) for x in orbit) for orbit in brute)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group_strategy(), st.integers(1, 3))
def test_orbit_rep_array_labels_each_orbit_by_its_least_index(group, d):
    reps, orbit_of = orbit_labels(group, d)
    rep = reps[orbit_of]
    brute = _orbits_by_least_index(group, d)
    for indices in brute:
        assert {int(rep[i]) for i in indices} == {indices[0]}
    assert reps.tolist() == [indices[0] for indices in brute]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group_strategy(), st.integers(1, 3))
def test_classical_certification_passes_on_random_groups(group, d):
    report = verify_classical(group, d)
    assert report.failures == ()
    assert report.messages_tested == len(brute_orbits([p.images for p in group], group.degree, d))
    assert report.group_elements_tested == len(group)


def _span(generator_images, n):
    """All products of the generators, by breadth-first closure."""
    identity = tuple(range(n))
    seen, frontier = {identity}, [identity]
    while frontier:
        p = frontier.pop()
        for g in generator_images:
            q = compose_images(p, g)
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return seen


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group_strategy(), st.integers(2, 3), st.data())
def test_classical_failures_match_brute_force_when_generators_span_a_subgroup(group, d, data):
    # All of G's elements, but generators spanning a subgroup H: the messages
    # are H's orbits, and every (orbit, element) pair leaving the orbit fails.
    n = group.degree
    generators = data.draw(st.lists(st.sampled_from(group.elements), max_size=2))
    generator_rows = np.array([g.images for g in generators], dtype=np.int64).reshape(len(generators), n)
    report = verify_classical(PermutationGroup(n, group.images, generator_rows), d)
    subgroup_orbits = sorted(brute_orbits(_span([g.images for g in generators], n), n, d), key=min)
    expected = tuple(
        (message, p.images)
        for p in group.elements
        for message, orbit in enumerate(subgroup_orbits)
        if act_tuple(p.images, min(orbit)) not in orbit
    )
    assert report.failures == expected
    assert report.messages_tested == len(subgroup_orbits)
    assert report.group_elements_tested == len(group)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group_strategy(), st.integers(2, 3))
def test_cyclic_basis_certification_matches_dense_oracle(group, d):
    # Elements outside the rotations split orbits, so failures and off-diagonal overlaps appear.
    n = group.degree
    assert d**n <= 243
    images = [p.images for p in group]
    report = verify_zero_error(group, message_basis_cyclic(n, d))
    failures, max_offdiag = dense_zero_error(images, cyclic_fourier_basis(n, d)[0], n, d)
    assert report.failures == failures
    assert abs(report.max_offdiag_overlap - max_offdiag) < 1e-12
    if d**n <= 32:  # the dense-coding oracle costs m**5 * d**n per element and sector
        relabeled = dataclasses.replace(message_basis_cyclic(n, d), group=group)
        summary = dense_coding_summary(relabeled, verify_zero_error(group, relabeled))
        assert summary == oracle_dense_coding(images, oracle_sectors(n, d), n, d)


@contextlib.contextmanager
def _budgets(module, **values):
    """The module's constants set to ``values`` for the block; hypothesis examples cannot use ``monkeypatch``."""
    saved = {name: getattr(module, name) for name in values}
    for name, value in values.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


ONE_PER_BATCH = {"MAX_KEY_BYTES": 1, "MAX_STACKED_SLOTS": 1}
ALL_IN_ONE_BATCH = {"MAX_KEY_BYTES": 1 << 62, "MAX_STACKED_SLOTS": 1 << 62}


def _assert_batchings_agree(group, basis, *batchings):
    reports = []
    for budgets in batchings:
        with _budgets(channel, **budgets):
            reports.append(verify_zero_error(group, basis))
    first = reports[0]
    for other in reports[1:]:
        assert other.failures == first.failures
        assert other.max_offdiag_overlap == first.max_offdiag_overlap
        assert np.abs(other.sector_traces - first.sector_traces).max() < 1e-12
    return first


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group_strategy(), st.integers(1, 3), st.integers(1, 4096), st.integers(1, 1024))
def test_batching_does_not_change_the_zero_error_report(group, d, key_bytes, slots):
    # One element per batch, every element in one batch, and a drawn budget in between.
    drawn = {"MAX_KEY_BYTES": key_bytes, "MAX_STACKED_SLOTS": slots}
    _assert_batchings_agree(group, message_basis_cyclic(group.degree, d), ONE_PER_BATCH, ALL_IN_ONE_BATCH, drawn)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 11), st.integers(1, 4))
def test_batching_does_not_change_the_cyclic_certificate(n, d):
    assume(d**n <= 4096)
    basis = message_basis_cyclic(n, d)
    report = _assert_batchings_agree(basis.group, basis, ONE_PER_BATCH, ALL_IN_ONE_BATCH)
    assert report.zero_error and report.max_offdiag_overlap < 1e-9


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group_strategy(), st.integers(2, 3))
def test_sector_traces_match_the_dense_sector_operators(group, d):
    # The overlap pass adds up each sector's own amplitudes; the oracle forms V = B^H U(sigma) B from dense columns.
    n = group.degree
    assert d**n <= 243
    basis = dataclasses.replace(message_basis_cyclic(n, d), group=group)
    traces = verify_zero_error(group, basis).sector_traces
    assert traces.shape == (len(group), n)
    sectors = dict(oracle_sectors(n, d))
    for e, sigma in enumerate(group.elements):
        table = index_table(sigma.images, n, d)
        for mu in range(n):
            expected = 0.0
            if mu in sectors:
                block = sectors[mu]
                moved = np.zeros_like(block)
                moved[table] = block  # U(sigma) sends string x to table[x]
                expected = np.trace(block.conj().T @ moved)
            assert abs(traces[e, mu] - expected) < 1e-9


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group_strategy(), st.integers(2, 3))
def test_dense_coding_decodes_all_pairs_of_a_sector_or_none(group, d):
    # Each (a, b) succeeds with the same probability |tr V|**2 / m**2 and one signal's outcomes sum to at most 1.
    n = group.degree
    assume(d**n <= 32)
    for _mu, block in oracle_sectors(n, d):
        m = block.shape[1]
        for p in group:
            probs = dense_coding_probabilities(index_table(p.images, n, d), block)
            decoded = (np.argmax(probs, axis=0) == np.arange(m * m)) & (probs.max(axis=0) >= 1.0 - 1e-9)
            assert decoded.all() or not decoded.any()


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group_strategy(max_degree=4), st.integers(2, 3))
def test_per_orbit_multiplicities_match_fixed_point_projection(group, d):
    table = character_table(group)
    strings = list(itertools.product(range(d), repeat=group.degree))
    expected = []
    for indices in _orbits_by_least_index(group, d):
        fixed = [
            sum(1 for i in indices if act_tuple(c.representative.images, strings[i]) == strings[i])
            for c in table.classes
        ]
        row = []
        for irrep in table.irreps:
            raw = sum(size * f * v.conjugate() for size, f, v in zip(table.class_sizes, fixed, irrep.values))
            row.append(round((raw / len(group)).real))
        expected.append(tuple(row))
    assert ambient_multiplicities(group, d, table=table, per_orbit=True).by_orbit == tuple(expected)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group_strategy(), st.integers(1, 3))
def test_isotypic_projectors_match_dense_oracle(group, d):
    table = character_table(group)
    images = [p.images for p in group]
    for mu, irrep in enumerate(table.irreps):
        chars = [table.character(mu, p) for p in group]
        expected = brute_isotypic_projector(images, chars, irrep.dim, group.degree, d)
        assert np.abs(isotypic_projector(group, d, mu, table=table) - expected).max() < 1e-12


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group_strategy(), st.integers(2, 3))
def test_ancilla_reduction_identity(group, d):
    assert count_ancilla_polya(group, d) == count_classical_burnside(group, d * d)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group_strategy(max_degree=4), st.integers(2, 3))
def test_oracles_and_hierarchy_on_random_groups(group, d):
    report = count_report(group, d)
    full = d**group.degree
    assert na_oracle(group, d) == report.n_a
    assert report.n_q is not None
    assert report.n_q == nq_oracle(group, d)
    assert report.n_c <= report.n_q <= min(full, report.n_a)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group_strategy(max_degree=4), st.integers(2, 2))
def test_orbit_stabilizer_on_random_groups(group, d):
    obs = orbits(group, d)
    orders = stabilizer_orders(group, [orbit.member_indices[0] for orbit in obs], d)
    assert [order * orbit.size for order, orbit in zip(orders.tolist(), obs)] == [len(group)] * len(obs)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group_strategy(), st.integers(1, 3))
def test_stabilizer_orders_match_the_subgroups(group, d):
    # Every string, in default blocks and one element per block.
    strings = np.arange(d**group.degree)
    elements = [p.images for p in group]
    expected = [brute_stabilizer_order(elements, x) for x in itertools.product(range(d), repeat=group.degree)]
    assert stabilizer_orders(group, strings, d).tolist() == expected
    with _budgets(perms, MAX_STABILIZER_BYTES=1):
        assert stabilizer_orders(group, strings, d).tolist() == expected


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group_strategy(max_degree=5))
def test_square_root_counts_sum_to_group_order(group):
    # Every element has exactly one square, so the root counts partition G.
    assert sum(square_root_count(group, p) for p in group) == len(group)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group_strategy(), st.data())
def test_int64_rank_keys_equal_void_key_ranks(group, data):
    n = group.degree
    others = data.draw(st.lists(st.permutations(list(range(n))), min_size=1, max_size=30))
    probe = np.concatenate([group.images, np.array(others, dtype=np.int64).reshape(len(others), n)])
    assert group._keys.dtype == np.int64
    assert np.array_equal(group._rank(probe), void_key_ranks(group.images, probe))


def _validates(degree, element_images, generator_images) -> bool:
    rows = np.array(sorted(element_images), dtype=np.int64).reshape(len(element_images), degree)
    gens = np.array(generator_images, dtype=np.int64).reshape(len(generator_images), degree)
    group = PermutationGroup(degree, rows, gens)
    try:
        group.validate()
    except ValueError:
        return False
    return True


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group_strategy(max_degree=4), st.data())
def test_validate_agrees_with_pairwise_closure(group, data):
    images = [p.images for p in group]
    generators = [g.images for g in group.generators]
    assert brute_is_group(images) and _validates(group.degree, images, generators)
    removed = data.draw(st.sampled_from(images))
    variants = [[p for p in images if p != removed]]
    outside = sorted(set(itertools.permutations(range(group.degree))) - set(images))
    if outside:
        variants.append(images + [data.draw(st.sampled_from(outside))])
    for variant in variants:
        # With every element as a generator the span check is exactly closure.
        assert _validates(group.degree, variant, variant) == brute_is_group(variant)
        # With the group's own generators, validate may only pass a true group.
        assert not _validates(group.degree, variant, generators) or brute_is_group(variant)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group_strategy(max_degree=5))
def test_group_algebra_matches_pairwise_oracles(group):
    images = [p.images for p in group]
    for p in group:
        assert square_root_count(group, p) == brute_square_roots(images, p.images)
    classes = conjugacy_classes(group)
    assert {frozenset(m.images for m in c.members) for c in classes} == brute_conjugacy_classes(images)
    assert [c.members for c in classes] == sorted(tuple(sorted(c.members)) for c in classes)
    members = [[m.images for m in c.members] for c in classes]
    # Exact equality with the tensor contraction is what keeps the JSON tables byte-identical.
    weights = _combination(0, len(classes))
    np.testing.assert_array_equal(
        _combined_class_sums(group, classes, weights),
        np.einsum("i,ijt->jt", weights, brute_class_structure(images, members)),
    )


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group_strategy(max_degree=5), st.integers(2, 3))
def test_fixed_point_rule_on_random_groups(group, d):
    from oracles import brute_fixed_count

    for p in group:
        assert brute_fixed_count(p.images, group.degree, d) == d ** cycle_count(p)


# The unit quaternions as a regular permutation group: the classic example
# where the squared-cycle average undercounts (quaternionic irrep, FS = -1).
# Class data on 8 points: identity c=8, the central involution c=4, and six
# order-4 elements with c=2, giving multiplicities (37, 33, 33, 33, 60) and
# hence N_q = 196, N_a = 8236, against a squared-cycle average of only 76.
def test_quaternion_group_end_to_end():
    group = generate_group(
        [Permutation((2, 3, 1, 0, 6, 7, 5, 4)), Permutation((4, 5, 7, 6, 1, 0, 2, 3))]
    )
    assert len(group) == 8
    report = count_report(group, 2)
    assert report.n_c == 37
    assert report.n_q == 196
    assert report.n_q_method == "oracle"
    assert report.n_a == 8236
    from permchannel import count_quantum_totally_orthogonal

    assert count_quantum_totally_orthogonal(group, 2, certify=False) == 76


def test_larger_state_spaces_match_group_average():
    # d**n = 6561 exercises the kernels well past the toy sizes.
    for group in (make_named_group("cyclic", 8), make_named_group("dihedral", 8)):
        assert count_classical_burnside(group, 3) == len(orbits(group, 3))
