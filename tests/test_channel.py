import dataclasses
import tracemalloc

import numpy as np
import pytest

from oracles import act_tuple, weyl_family
from permchannel import (
    ColoredString,
    PermutationGroup,
    count_ancilla_polya,
    decode_classical,
    dense_coding_summary,
    generate_group,
    kernels,
    make_named_group,
    message_basis_cyclic,
    orbits,
    unit_root,
    verify_classical,
    verify_zero_error,
)
from permchannel import channel as channel_module
from permchannel.errors import DegreeMismatchError, StateSpaceBoundError

C4 = make_named_group("cyclic", 4)
R4 = C4.generators[0]


class TestClassicalChannel:
    """The channel moves a string's content as the classical certifier does, with ``kernels.move_indices``."""

    @staticmethod
    def send(sigmas, text: str) -> set[str]:
        x = ColoredString.parse(text, 2)
        inverses = np.array([sigma.inverse().images for sigma in sigmas])
        moved = kernels.move_indices(inverses, [x.index], 2)[:, 0]
        return {str(ColoredString.from_index(ix, x.n, 2)) for ix in moved.tolist()}

    def test_identity_passthrough(self):
        assert self.send([C4.identity], "0011") == {"0011"}

    def test_one_step_rotation(self):
        assert self.send([R4], "0001") == {"1000"}

    def test_exhaustive_image_set(self):
        assert self.send(C4.elements, "0101") == {"0101", "1010"}

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            decode_classical(C4, ColoredString.parse("01", 2))


class TestClassicalDecoding:
    def test_rotated_string_decodes_to_its_orbit(self):
        assert decode_classical(C4, ColoredString.parse("1000", 2)) == 1

    def test_constant_string_is_message_zero(self):
        assert decode_classical(C4, ColoredString.parse("0000", 2)) == 0

    def test_symmetric_group_weight_decoding(self):
        s3 = make_named_group("symmetric", 3)
        assert decode_classical(s3, ColoredString.parse("110", 2)) == 2

    @pytest.mark.parametrize(
        "kind,n,d",
        [("cyclic", 6, 2), ("dihedral", 4, 2), ("symmetric", 4, 2), ("cyclic", 4, 3), ("cyclic", 8, 3)],
    )
    def test_invariant_under_every_channel_element(self, kind, n, d):
        group = make_named_group(kind, n)
        for ix in range(d**n):
            x = ColoredString.from_index(ix, n, d)
            want = decode_classical(group, x)
            outputs = (ColoredString(act_tuple(p.images, x.symbols), d) for p in group)
            assert all(decode_classical(group, y) == want for y in outputs)


class TestClassicalCertification:
    @pytest.mark.parametrize(
        "kind,n,d,orbits_expected",
        [("cyclic", 4, 2, 6), ("cyclic", 70, 1, 1), ("dihedral", 6, 3, 92), ("symmetric", 5, 2, 6)],
    )
    def test_named_groups_certify(self, kind, n, d, orbits_expected):
        group = make_named_group(kind, n)
        report = verify_classical(group, d)
        assert report.zero_error and report.max_offdiag_overlap == 0.0
        assert (report.messages_tested, report.group_elements_tested) == (orbits_expected, len(group))

    def test_transpositions_split_the_three_colour_rotation_orbits(self):
        # S3 under its 3-cycle alone: the messages are the 11 C3 orbits at d=3,
        # and each transposition swaps the orbits of 012 and 021.
        s3 = make_named_group("symmetric", 3)
        lopsided = PermutationGroup(3, s3.images, [(1, 2, 0)])
        report = verify_classical(lopsided, 3)
        transpositions = [(0, 2, 1), (1, 0, 2), (2, 1, 0)]
        assert report.messages_tested == 11
        assert report.failures == tuple((m, t) for t in transpositions for m in (4, 5))

    def test_element_blocks_do_not_change_the_report(self, monkeypatch):
        s4 = make_named_group("symmetric", 4)
        lopsided = PermutationGroup(4, s4.images, s4.generator_images[1:])
        whole = verify_classical(lopsided, 2)
        monkeypatch.setattr(channel_module, "MAX_MOVED_INDICES", 13)
        assert verify_classical(dataclasses.replace(lopsided), 2) == whole
        assert len(whole.failures) > 0

    def test_bound_is_checked_after_the_labels_are_cached(self):
        group = make_named_group("cyclic", 5)
        verify_classical(group, 2)
        assert decode_classical(group, ColoredString.parse("00011", 2)) == 2  # after 00000, 00001
        with pytest.raises(StateSpaceBoundError):
            verify_classical(group, 2, max_states=31)
        with pytest.raises(StateSpaceBoundError):
            decode_classical(group, ColoredString.parse("00011", 2), max_states=31)


class TestZeroError:
    def test_worked_example_certifies(self):
        basis = message_basis_cyclic(4, 2)
        report = verify_zero_error(C4, basis)
        assert report.zero_error
        assert report.messages_tested == 16 and report.group_elements_tested == 4
        assert report.max_offdiag_overlap < 1e-9

    def test_trivial_channel(self):
        group = make_named_group("cyclic", 1)
        basis = message_basis_cyclic(1, 3)
        report = verify_zero_error(group, basis)
        assert report.zero_error and report.messages_tested == 3

    def test_six_positions(self):
        group = make_named_group("cyclic", 6)
        report = verify_zero_error(group, message_basis_cyclic(6, 2))
        assert report.zero_error
        assert report.messages_tested == 64 and report.group_elements_tested == 6

    @pytest.mark.parametrize(
        "certify",
        [
            lambda tol: verify_zero_error(C4, message_basis_cyclic(4, 2), tol=tol),
            lambda tol: dense_coding_summary(basis := message_basis_cyclic(4, 2), verify_zero_error(C4, basis), tol=tol),
        ],
        ids=["verify_zero_error", "dense_coding_summary"],
    )
    @pytest.mark.parametrize("tol", [-1e-12, 0.5, 1.0, float("nan")])
    def test_tolerance_outside_half_open_unit_half_rejected(self, tol, certify):
        with pytest.raises(ValueError, match="tol"):
            certify(tol)

    def test_zero_tolerance_accepts_an_own_overlap_of_exactly_one(self):
        # Single-string orbits have amplitude exactly 1, so every own overlap is exactly 1.0.
        report = verify_zero_error(make_named_group("cyclic", 1), message_basis_cyclic(1, 3), tol=0.0)
        assert report.zero_error and report.messages_tested == 3

    def test_overlap_batches_do_not_change_the_report(self, monkeypatch):
        basis = message_basis_cyclic(5, 2)
        group = make_named_group("dihedral", 5)
        whole = verify_zero_error(group, basis)
        monkeypatch.setattr(channel_module, "MAX_OVERLAP_BYTES", 1)
        assert verify_zero_error(group, basis) == whole
        assert len(whole.failures) > 0

    @pytest.mark.parametrize(("n", "d"), [(6, 2), (5, 3), (4, 2)])
    def test_batching_keeps_a_foreign_groups_failures_in_order(self, monkeypatch, n, d):
        # Negative control: the dihedral reflections split the rotation orbits, so messages fail.
        basis = message_basis_cyclic(n, d)
        group = make_named_group("dihedral", n)
        reports = []
        for key_bytes, slots in ((1, 1), (1 << 62, 1 << 62)):  # one element per batch, then all in one
            monkeypatch.setattr(channel_module, "MAX_KEY_BYTES", key_bytes)
            monkeypatch.setattr(channel_module, "MAX_STACKED_SLOTS", slots)
            reports.append(verify_zero_error(group, basis))
        single, whole = reports
        assert len(single.failures) > 0
        assert single.failures == whole.failures
        assert single.max_offdiag_overlap == whole.max_offdiag_overlap
        assert np.abs(single.sector_traces - whole.sector_traces).max() < 1e-12
        rank = {tuple(row): e for e, row in enumerate(group.images.tolist())}
        order = [(rank[images], message) for message, images in single.failures]
        assert order == sorted(order) and len(set(order)) == len(order)  # by element, then message

    def test_default_budgets_batch_small_bases_and_not_c16(self, monkeypatch):
        # (first element, elements) of each batch: C10 is one stacked batch, C14 two elements a batch, C16 one.
        batches = []
        key_batches = channel_module._key_batches

        def spy(*args):
            for batch in key_batches(*args):
                batches.append((batch[0], int(batch[2][-1]) + 1))
                yield batch

        monkeypatch.setattr(channel_module, "_key_batches", spy)
        for n, per_batch in ((10, 10), (14, 2), (16, 1)):
            batches.clear()
            basis = message_basis_cyclic(n, 2)
            assert verify_zero_error(basis.group, basis).zero_error
            assert batches == [(first, per_batch) for first in range(0, n, per_batch)]

    def test_json_payload(self):
        report = verify_zero_error(C4, message_basis_cyclic(4, 2))
        payload = report.to_json()
        assert payload["messages"] == 16 and payload["elements"] == 4
        assert payload["failures"] == []
        assert payload["max_offdiag_overlap"] < 1e-9


class TestWeylOperators:
    """The clock-shift family X**a Z**b of the dense-coding oracle."""

    def test_single_dimension(self):
        ops = weyl_family(1)
        assert len(ops) == 1 and np.allclose(ops[0], np.eye(1))

    def test_qubit_family_is_pauli_like(self):
        identity, z, x, xz = weyl_family(2)
        assert np.allclose(identity, np.eye(2))
        assert np.allclose(z, np.diag([1, -1]))
        assert np.allclose(x, np.array([[0, 1], [1, 0]]))
        assert np.allclose(xz, np.array([[0, -1], [1, 0]]))

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
    def test_trace_orthogonality(self, m):
        ops = weyl_family(m)
        assert len(ops) == m * m
        vted = np.stack([w.reshape(-1) for w in ops])
        gram = vted.conj() @ vted.T
        assert np.abs(gram - m * np.eye(m * m)).max() < 1e-12


class TestSectorPhases:
    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 2), (5, 2), (4, 3)])
    def test_channel_is_scalar_on_each_sector(self, n, d):
        # V = B^H U(sigma) B is unitary for a cyclic group, so |tr V| = m forces V = phase * I.
        basis = message_basis_cyclic(n, d)
        group = basis.group
        r = group.generators[0]
        traces = verify_zero_error(group, basis).sector_traces
        for k, sigma in enumerate(group.elements):
            assert sigma == r**k
            for mu, m in enumerate(basis.multiplicities):
                assert abs(traces[k, mu] - m * unit_root(n, mu * k)) < 1e-12


class TestDenseCoding:
    def test_certify_counts_match_ancilla_totals(self):
        for n, expected in [(2, 10), (3, 24)]:
            basis = message_basis_cyclic(n, 2)
            summary = dense_coding_summary(basis, verify_zero_error(basis.group, basis))
            assert summary["failures"] == []
            assert summary["triples"] == expected == count_ancilla_polya(make_named_group("cyclic", n), 2)

    def test_certify_in_the_sector_the_dense_bound_refuses(self):
        # n=10, d=2, sector 0 has m=108: its entangled states would take 20.6 GB as a dense matrix.
        basis = message_basis_cyclic(10, 2)
        assert basis.multiplicities[0] == 108
        report = verify_zero_error(basis.group, basis)
        assert np.abs(report.sector_traces[:, 0] - 108).max() < 1e-9
        summary = dense_coding_summary(basis, report)
        assert summary["failures"] == []
        assert summary["triples"] == sum(m * m for m in basis.multiplicities)
        assert summary["triples"] == count_ancilla_polya(basis.group, 2)

    def test_empty_sectors_carry_no_signals(self):
        # One symbol leaves only the constant string, in sector 0; sectors 1 and 2 are empty.
        basis = message_basis_cyclic(3, 1)
        assert tuple(basis.multiplicities) == (1, 0, 0)
        report = verify_zero_error(basis.group, basis)
        assert np.abs(report.sector_traces - np.array([1, 0, 0])).max() < 1e-12
        assert dense_coding_summary(basis, report) == {"triples": 1, "failures": []}

    def test_the_pair_rejects_a_group_of_another_degree(self):
        # What the deleted (n, d) arguments guarded: verify refuses a group of another degree than the basis,
        # and the summary refuses the report of another degree's basis.
        basis = message_basis_cyclic(4, 2)
        for other in (message_basis_cyclic(5, 2), message_basis_cyclic(3, 3)):
            with pytest.raises(DegreeMismatchError, match="does not match the basis"):
                verify_zero_error(other.group, basis)
            with pytest.raises(ValueError, match="no sector traces for this basis's group"):
                dense_coding_summary(basis, verify_zero_error(other.group, other))

    def test_the_summary_rejects_the_report_of_another_alphabet(self):
        # Same group C4, so the traces have the basis's shape, but the report tested 3**4 messages, not 2**4.
        basis = message_basis_cyclic(4, 2)
        with pytest.raises(ValueError, match="no sector traces for this basis's group"):
            dense_coding_summary(basis, verify_zero_error(C4, message_basis_cyclic(4, 3)))

    def test_certify_peak_memory_stays_below_the_sector_tables(self):
        # Sector 0 has m=1182 here: one m x m float64 table is 11.2 MB, an (m, m, |G|) boolean mask 19.6 MB.
        basis = message_basis_cyclic(14, 2)
        tracemalloc.start()
        try:
            summary = dense_coding_summary(basis, verify_zero_error(basis.group, basis))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert summary == {"triples": 19175140, "failures": []}
        assert peak < 8_000_000  # 5.0 MB measured with numpy 2.4 on x86-64

    def test_summary_rejects_a_report_without_sector_traces(self):
        basis = message_basis_cyclic(3, 2)
        with pytest.raises(ValueError, match="sector traces"):
            dense_coding_summary(basis, verify_classical(basis.group, 2))
        other = verify_zero_error(make_named_group("dihedral", 3), basis)  # six elements, not three
        with pytest.raises(ValueError, match="sector traces"):
            dense_coding_summary(basis, other)


def test_trivial_group_decoding_identity():
    group = generate_group([], degree=3)
    for ix, orbit in enumerate(orbits(group, 2)):
        assert decode_classical(group, orbit.representative) == ix
