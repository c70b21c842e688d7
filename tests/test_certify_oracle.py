"""Block-wise certification against the dense oracles, report for report."""

import dataclasses

import pytest

from oracles import dense_coding_certify as oracle_dense_coding
from oracles import dense_coding_probabilities, dense_zero_error, index_table
from permchannel import (
    dense_coding_certify,
    dense_coding_roundtrip,
    make_named_group,
    message_basis_cyclic,
    verify_zero_error,
)
from permchannel.encoding import StateVector

CYCLIC_CASES = [(n, 2) for n in range(1, 7)] + [(n, 3) for n in range(1, 5)]
DIHEDRAL_CASES = [(n, 2) for n in range(3, 7)] + [(3, 3), (4, 3)]
# The dense-coding oracle costs m**5 * d**n per element and sector.
DIHEDRAL_CODING_CASES = [(3, 2), (4, 2), (5, 2), (3, 3)]


def _images(group):
    return [p.images for p in group.elements]


def _sectors(basis):
    matrix = basis.dense_matrix()
    return [
        (mu, matrix[:, [col for col, entry in enumerate(basis.entries) if entry[0] == mu]])
        for mu, m in enumerate(basis.multiplicities)
        if m
    ]


def _assert_zero_error_matches(group, basis):
    report = verify_zero_error(group, basis)
    failures, max_offdiag = dense_zero_error(_images(group), basis.dense_matrix(), basis.n, basis.d)
    assert report.messages_tested == len(basis.entries)
    assert report.group_elements_tested == len(group)
    assert report.failures == failures
    assert abs(report.max_offdiag_overlap - max_offdiag) < 1e-12
    return report


def _assert_dense_coding_matches(basis):
    summary = dense_coding_certify(basis.n, basis.d, basis=basis)
    assert summary == oracle_dense_coding(_images(basis.group), _sectors(basis), basis.n, basis.d)
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


@pytest.mark.parametrize("kind,n,d", [("dihedral", 4, 2), ("dihedral", 3, 3), ("symmetric", 4, 2)])
def test_dense_coding_roundtrip_matches_dense_oracle(kind, n, d):
    # Round trips take cyclic-labelled bases only; the foreign group wears that label.
    group = dataclasses.replace(make_named_group(kind, n), kind="cyclic")
    basis = message_basis_cyclic(n, d)
    relabeled = dataclasses.replace(basis, group=group)
    for mu, block in _sectors(basis):
        m = block.shape[1]
        for sigma in group.elements:
            probs = dense_coding_probabilities(index_table(sigma.images, n, d), block)
            for a in range(m):
                for b in range(m):
                    result = dense_coding_roundtrip(n, d, mu, a, b, sigma, basis=relabeled)
                    sent = probs[:, a * m + b]
                    assert abs(result.probability - sent.max()) < 1e-12
                    assert sent[result.a * m + result.b] > sent.max() - 1e-12


@pytest.mark.parametrize("n,d", [(4, 2), (5, 2), (3, 3)])
def test_elements_that_split_orbits_match_oracle(n, d):
    # Symmetric-group elements send one rotation orbit across several.
    group = make_named_group("symmetric", n)
    basis = message_basis_cyclic(n, d)
    _assert_zero_error_matches(group, basis)
    _assert_dense_coding_matches(dataclasses.replace(basis, group=group))


def _mixed_basis(n, d):
    """Cyclic basis with two sector-0 states rotated into each other across orbits."""
    basis = message_basis_cyclic(n, d)
    entries = list(basis.entries)
    first, second = (col for col, entry in enumerate(entries) if entry[0] == 0 and entry[1] in (1, 2))
    s, t = entries[first][2].amplitudes, entries[second][2].amplitudes
    keys = set(s) | set(t)
    mixed = (
        {k: 0.6 * s.get(k, 0) + 0.8 * t.get(k, 0) for k in keys},
        {k: 0.8 * s.get(k, 0) - 0.6 * t.get(k, 0) for k in keys},
    )
    entries[first] = (0, 1, StateVector(n, d, mixed[0]))
    entries[second] = (0, 2, StateVector(n, d, mixed[1]))
    return dataclasses.replace(basis, entries=tuple(entries))


@pytest.mark.parametrize("kind", ["cyclic", "dihedral", "symmetric"])
def test_overlapping_supports_join_blocks(kind):
    report = _assert_zero_error_matches(make_named_group(kind, 4), _mixed_basis(4, 2))
    assert report.zero_error == (kind == "cyclic")


def test_dense_coding_rejects_sector_states_sharing_an_index():
    with pytest.raises(ValueError):
        dense_coding_certify(4, 2, basis=_mixed_basis(4, 2))
