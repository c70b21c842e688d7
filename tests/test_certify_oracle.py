"""Block-wise certification against the dense oracles, report for report."""

import dataclasses

import numpy as np
import pytest

from oracles import cyclic_fourier_basis, dense_coding_probabilities, dense_zero_error, index_table
from oracles import dense_coding_certify as oracle_dense_coding
from permchannel import (
    Permutation,
    dense_coding_summary,
    generate_group,
    make_named_group,
    message_basis_cyclic,
    verify_zero_error,
)

CYCLIC_CASES = [(n, 2) for n in range(1, 7)] + [(n, 3) for n in range(1, 5)]
DIHEDRAL_CASES = [(n, 2) for n in range(3, 7)] + [(3, 3), (4, 3)]
# The dense-coding oracle costs m**5 * d**n per element and sector.
DIHEDRAL_CODING_CASES = [(3, 2), (4, 2), (5, 2), (3, 3)]
SIGNAL_CASES = [("cyclic", n, d) for n, d in [(2, 2), (4, 2), (5, 2), (2, 3), (3, 3)]] + [
    ("dihedral", 4, 2),
    ("dihedral", 3, 3),
    ("symmetric", 4, 2),
]


def _images(group):
    return [p.images for p in group.elements]


def oracle_sectors(n, d):
    """(mu, block) for each nonempty sector of the oracle basis, block its columns."""
    matrix, labels = cyclic_fourier_basis(n, d)
    return [
        (mu, matrix[:, [col for col, (label, _alpha) in enumerate(labels) if label == mu]])
        for mu in sorted({mu for mu, _alpha in labels})
    ]


def _assert_zero_error_matches(group, basis):
    report = verify_zero_error(group, basis)
    failures, max_offdiag = dense_zero_error(_images(group), cyclic_fourier_basis(basis.n, basis.d)[0], basis.n, basis.d)
    assert report.messages_tested == len(basis)
    assert report.group_elements_tested == len(group)
    assert report.failures == failures
    assert abs(report.max_offdiag_overlap - max_offdiag) < 1e-12
    return report


def _assert_dense_coding_matches(basis):
    summary = dense_coding_summary(basis, verify_zero_error(basis.group, basis))
    assert summary == oracle_dense_coding(_images(basis.group), oracle_sectors(basis.n, basis.d), basis.n, basis.d)
    return summary


@pytest.mark.parametrize("n,d", CYCLIC_CASES)
def test_zero_error_matches_dense_oracle(n, d):
    report = _assert_zero_error_matches(make_named_group("cyclic", n), message_basis_cyclic(n, d))
    assert report.zero_error


@pytest.mark.parametrize("n,d", DIHEDRAL_CASES)
def test_zero_error_failures_match_dense_oracle(n, d):
    report = _assert_zero_error_matches(make_named_group("dihedral", n), message_basis_cyclic(n, d))
    assert not report.zero_error


@pytest.mark.parametrize("n,d", CYCLIC_CASES)
def test_dense_coding_matches_dense_oracle(n, d):
    summary = _assert_dense_coding_matches(message_basis_cyclic(n, d))
    assert summary["failures"] == []


@pytest.mark.parametrize("n,d", DIHEDRAL_CODING_CASES)
def test_dense_coding_failures_match_dense_oracle(n, d):
    basis = message_basis_cyclic(n, d)
    summary = _assert_dense_coding_matches(dataclasses.replace(basis, group=make_named_group("dihedral", n)))
    assert summary["failures"]


@pytest.mark.parametrize("kind,n,d", SIGNAL_CASES)
def test_sector_traces_give_every_signal_probability(kind, n, d):
    # The certifier's rule: signal (a, b) of sector mu comes back as itself with
    # probability |tr V|**2 / m**2, V = B^H U(sigma) B, and is the receiver's
    # argmax whenever that probability passes 1/2.  The oracle sends each signal
    # as an explicit entangled state.
    group = make_named_group(kind, n)
    traces = verify_zero_error(group, message_basis_cyclic(n, d)).sector_traces
    for mu, block in oracle_sectors(n, d):
        m = block.shape[1]
        for e, sigma in enumerate(group.elements):
            probs = dense_coding_probabilities(index_table(sigma.images, n, d), block)
            own = abs(traces[e, mu]) ** 2 / m**2
            assert np.abs(np.diag(probs) - own).max() < 1e-12
            if own > 0.5:
                assert (np.argmax(probs, axis=0) == np.arange(m * m)).all()


def test_sector_traces_of_a_spreading_swap_and_a_leaking_reflection():
    # In S4 at d=2, swapping positions 2 and 3 spreads each sector-2 signal (m=4)
    # over four outcomes of probability 1/64 each, its own among them: |tr V| = 1/2.
    # A reflection sends sector 1 (m=3) wholly out of the sector: tr V = 0.
    n, d = 4, 2
    group = make_named_group("symmetric", n)
    basis = dataclasses.replace(message_basis_cyclic(n, d), group=group)
    report = verify_zero_error(group, basis)
    traces = report.sector_traces
    sectors = dict(oracle_sectors(n, d))
    swap, reflection = Permutation((0, 1, 3, 2)), Permutation((3, 2, 1, 0))
    probs = dense_coding_probabilities(index_table(swap.images, n, d), sectors[2])
    for pos in range(16):
        sent = probs[:, pos]
        assert len(np.flatnonzero(sent > sent.max() - 1e-12)) == 4
        assert abs(sent.max() - 1 / 64) < 1e-12 and abs(sent[pos] - 1 / 64) < 1e-12
    assert abs(traces[group.elements.index(swap), 2] - 0.5) < 1e-12
    probs = dense_coding_probabilities(index_table(reflection.images, n, d), sectors[1])
    assert probs.max() < 1e-12
    assert abs(traces[group.elements.index(reflection), 1]) < 1e-12
    failures = dense_coding_summary(basis, report)["failures"]
    for mu, m, sigma in [(2, 4, swap), (1, 3, reflection)]:
        for a in range(m):
            for b in range(m):
                assert {"mu": mu, "a": a, "b": b, "element": list(sigma.images)} in failures


@pytest.mark.parametrize("n,d", [(4, 2), (5, 2), (3, 3)])
def test_elements_that_split_orbits_match_oracle(n, d):
    # Symmetric-group elements send one rotation orbit across several.
    group = make_named_group("symmetric", n)
    basis = message_basis_cyclic(n, d)
    _assert_zero_error_matches(group, basis)
    _assert_dense_coding_matches(dataclasses.replace(basis, group=group))


def test_pattern_shared_by_a_self_block_and_a_cross_block_matches_oracle():
    # A reflection of C6 at d=2 swaps the chiral orbits of 001011 and 001101 and
    # maps a mirror-symmetric orbit of the same size onto itself with the same
    # image places: one product serves both blocks, and its diagonal is an own
    # overlap in the one and an off-diagonal overlap in the other.
    n, d = 6, 2
    reflection = Permutation((0, 5, 4, 3, 2, 1))
    basis = message_basis_cyclic(n, d)
    table = index_table(reflection.images, n, d)
    blocks = {}  # pattern -> {is a self block}
    for j, size in enumerate(basis.sizes.tolist()):
        walk = basis.walk[basis.offsets[j] : basis.offsets[j + 1]]
        targets, places = basis.orbit_of[table[walk]], basis.position[table[walk]]
        for t in sorted(set(targets.tolist())):
            held = targets == t
            pattern = (int(basis.sizes[t]), size, tuple(np.flatnonzero(held).tolist()), tuple(places[held].tolist()))
            blocks.setdefault(pattern, set()).add(t == j)
    assert any(kinds == {True, False} for kinds in blocks.values())
    report = _assert_zero_error_matches(generate_group([reflection], degree=n), basis)
    assert report.failures


def test_cross_block_diagonal_sets_the_largest_offdiagonal_overlap():
    # This order-4 group on C6 at d=3 has an element whose cross block shares a
    # self block's pattern; that diagonal, an own overlap of 1 for the self
    # block, is the largest off-diagonal overlap.  Without the cross-block
    # diagonal the maximum would read 0.75.
    n, d = 6, 3
    group = generate_group([Permutation((3, 0, 1, 2, 5, 4))], degree=n)
    assert len(group) == 4
    report = _assert_zero_error_matches(group, message_basis_cyclic(n, d))
    assert abs(report.max_offdiag_overlap - 1.0) < 1e-12
