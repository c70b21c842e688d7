import dataclasses
import math

import numpy as np
import pytest

from permchannel import (
    ChannelSpec,
    ColoredString,
    Permutation,
    PermutationGroup,
    apply_channel_classical,
    apply_channel_quantum,
    apply_permutation_state,
    count_ancilla_polya,
    decode_classical,
    decode_quantum,
    dense_coding_certify,
    dense_coding_instance,
    dense_coding_roundtrip,
    generate_group,
    make_named_group,
    message_basis_cyclic,
    orbits,
    unit_root,
    verify_classical,
    verify_zero_error,
    weyl_operators,
)
from permchannel import channel as channel_module
from permchannel.channel import sector_unitary
from permchannel.encoding import StateVector
from permchannel.errors import AmbiguousDecodingError, DegreeMismatchError, StateSpaceBoundError

C4 = make_named_group("cyclic", 4)
R4 = C4.generators[0]


class TestChannelSpec:
    def test_fixed_requires_group_element(self):
        with pytest.raises(ValueError):
            ChannelSpec.fixed(C4, Permutation((0, 2, 1, 3)))

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            ChannelSpec(C4, "sometimes")

    def test_random_draw_is_seed_deterministic(self):
        spec = ChannelSpec.uniform_random(C4, seed=42)
        assert spec.draw_elements() == spec.draw_elements()
        assert spec.draw_elements()[0] in C4


class TestClassicalChannel:
    def test_identity_passthrough(self):
        x = ColoredString.parse("0011", 2)
        [(sigma, y)] = apply_channel_classical(ChannelSpec.fixed(C4, C4.identity), x)
        assert y == x and sigma == C4.identity

    def test_one_step_rotation(self):
        x = ColoredString.parse("0001", 2)
        [(_, y)] = apply_channel_classical(ChannelSpec.fixed(C4, R4), x)
        assert str(y) == "1000"

    def test_exhaustive_image_set(self):
        x = ColoredString.parse("0101", 2)
        outs = {str(y) for _s, y in apply_channel_classical(ChannelSpec.exhaustive(C4), x)}
        assert outs == {"0101", "1010"}

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            apply_channel_classical(ChannelSpec.exhaustive(C4), ColoredString.parse("01", 2))


class TestQuantumChannel:
    def test_identity_passthrough(self):
        psi = StateVector(4, 2, {3: 1.0})
        [(_, out)] = apply_channel_quantum(ChannelSpec.fixed(C4, C4.identity), psi)
        assert out.amplitudes == psi.amplitudes

    def test_symmetric_combination_is_invariant(self):
        a = 1 / math.sqrt(2)
        psi = StateVector(4, 2, {0b0101: a, 0b1010: a})
        [(_, out)] = apply_channel_quantum(ChannelSpec.fixed(C4, R4), psi)
        assert out.amplitudes == psi.amplitudes

    def test_antisymmetric_combination_flips_sign(self):
        a = 1 / math.sqrt(2)
        psi = StateVector(4, 2, {0b0101: a, 0b1010: -a})
        [(_, out)] = apply_channel_quantum(ChannelSpec.fixed(C4, R4), psi)
        assert out.amplitudes[0b0101] == -a and out.amplitudes[0b1010] == a

    def test_amplitude_multiset_is_preserved_exactly(self):
        psi = StateVector(4, 2, {0: 0.25, 7: -0.5j, 11: 0.125 + 0.25j})
        moved = apply_permutation_state(R4, psi)
        assert sorted(moved.amplitudes.values(), key=str) == sorted(psi.amplitudes.values(), key=str)


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
        spec = ChannelSpec.exhaustive(group)
        for ix in range(d**n):
            x = ColoredString.from_index(ix, n, d)
            want = decode_classical(group, x)
            assert all(decode_classical(group, y) == want for _s, y in apply_channel_classical(spec, x))


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
        lopsided = PermutationGroup(3, s3.elements, (Permutation((1, 2, 0)),))
        report = verify_classical(lopsided, 3)
        transpositions = [(0, 2, 1), (1, 0, 2), (2, 1, 0)]
        assert report.messages_tested == 11
        assert report.failures == tuple((m, t) for t in transpositions for m in (4, 5))

    def test_element_blocks_do_not_change_the_report(self, monkeypatch):
        s4 = make_named_group("symmetric", 4)
        lopsided = PermutationGroup(4, s4.elements, s4.generators[1:])
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


class TestQuantumDecoding:
    def test_channel_output_of_basis_state_decodes_perfectly(self):
        basis = message_basis_cyclic(4, 2)
        mu, alpha, state = basis.entries[7]
        moved = apply_permutation_state(R4, state)
        decoded = decode_quantum(basis, moved)
        assert decoded[:2] == (mu, alpha)
        assert abs(decoded[2] - 1.0) < 1e-9

    def test_constant_string_is_its_own_message(self):
        basis = message_basis_cyclic(4, 2)
        decoded = decode_quantum(basis, StateVector(4, 2, {0: 1.0}))
        assert decoded[:2] == (0, 0) and abs(decoded[2] - 1.0) < 1e-9

    def test_bare_aperiodic_string_is_ambiguous(self):
        basis = message_basis_cyclic(4, 2)
        with pytest.raises(AmbiguousDecodingError):
            decode_quantum(basis, StateVector(4, 2, {0b0001: 1.0}))


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

    def test_json_payload(self):
        report = verify_zero_error(C4, message_basis_cyclic(4, 2))
        payload = report.to_json()
        assert payload["messages"] == 16 and payload["elements"] == 4
        assert payload["failures"] == []
        assert payload["max_offdiag_overlap"] < 1e-9


class TestWeylOperators:
    def test_single_dimension(self):
        ops = weyl_operators(1)
        assert len(ops) == 1 and np.allclose(ops[0], np.eye(1))

    def test_qubit_family_is_pauli_like(self):
        identity, z, x, xz = weyl_operators(2)
        assert np.allclose(identity, np.eye(2))
        assert np.allclose(z, np.diag([1, -1]))
        assert np.allclose(x, np.array([[0, 1], [1, 0]]))
        assert np.allclose(xz, np.array([[0, -1], [1, 0]]))

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
    def test_trace_orthogonality(self, m):
        ops = weyl_operators(m)
        assert len(ops) == m * m
        vted = np.stack([w.reshape(-1) for w in ops])
        gram = vted.conj() @ vted.T
        assert np.abs(gram - m * np.eye(m * m)).max() < 1e-12


class TestSectorPhases:
    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 2), (5, 2), (4, 3)])
    def test_channel_is_scalar_on_each_sector(self, n, d):
        group = make_named_group("cyclic", n)
        basis = message_basis_cyclic(n, d)
        r = group.generators[0]
        for mu, m in enumerate(basis.multiplicities):
            if m == 0:
                continue
            for k in range(n):
                block = sector_unitary(basis, mu, r**k)
                phase = unit_root(n, mu * k)
                assert np.abs(block - phase * np.eye(m)).max() < 1e-12


class TestDenseCoding:
    def test_instance_states_are_orthonormal(self):
        basis = message_basis_cyclic(4, 2)
        inst = dense_coding_instance(basis, 0)
        assert inst.m == 6 and inst.entangled.shape == (36, 96)

    def test_empty_sector_rejected(self):
        basis = message_basis_cyclic(2, 2)
        with pytest.raises(ValueError):
            dense_coding_instance(basis, 2)

    def test_instance_bound_refuses_before_allocating(self, monkeypatch):
        # n=10, d=2, sector 0 has m=108: 108**3 * 2**10 amplitudes, 20.6 GB dense.
        basis = message_basis_cyclic(10, 2)
        assert basis.multiplicities[0] == 108
        monkeypatch.setattr(channel_module, "sector_matrix", lambda *args: pytest.fail("dense matrix built"))
        with pytest.raises(StateSpaceBoundError, match="1289945088"):
            dense_coding_instance(basis, 0)

    def test_roundtrip_in_the_sector_the_dense_bound_refuses(self):
        basis = message_basis_cyclic(10, 2)
        sigma = basis.group.generators[0] ** 3
        result = dense_coding_roundtrip(10, 2, 0, 5, 107, sigma, basis=basis)
        assert (result.a, result.b) == (5, 107)
        assert abs(result.probability - 1.0) < 1e-9

    def test_trivial_roundtrip(self):
        result = dense_coding_roundtrip(2, 2, 0, 0, 0, Permutation.identity(2))
        assert (result.a, result.b) == (0, 0)
        assert abs(result.probability - 1.0) < 1e-9

    def test_two_positions_all_pairs_and_elements(self):
        basis = message_basis_cyclic(2, 2)
        group = basis.group
        for mu, m in enumerate(basis.multiplicities):
            for a in range(m):
                for b in range(m):
                    for sigma in group.elements:
                        result = dense_coding_roundtrip(2, 2, mu, a, b, sigma, basis=basis)
                        assert (result.a, result.b) == (a, b)
                        assert abs(result.probability - 1.0) < 1e-9

    def test_certify_counts_match_ancilla_totals(self):
        for n, expected in [(2, 10), (3, 24)]:
            summary = dense_coding_certify(n, 2)
            assert summary["failures"] == []
            assert summary["triples"] == expected == count_ancilla_polya(make_named_group("cyclic", n), 2)

    def test_rejects_non_cyclic_basis(self):
        import dataclasses

        basis = message_basis_cyclic(2, 2)
        foreign = dataclasses.replace(basis.group, kind="custom")
        relabeled = dataclasses.replace(basis, group=foreign)
        with pytest.raises(ValueError):
            dense_coding_roundtrip(2, 2, 0, 0, 0, Permutation.identity(2), basis=relabeled)

    def test_rejects_foreign_element(self):
        with pytest.raises(ValueError):
            dense_coding_roundtrip(2, 2, 0, 0, 0, Permutation((1, 0, 2)))

    def test_rejects_out_of_range_pair(self):
        with pytest.raises(ValueError):
            dense_coding_roundtrip(2, 2, 1, 1, 0, Permutation.identity(2))


def test_trivial_group_decoding_identity():
    group = generate_group([], degree=3)
    for ix, orbit in enumerate(orbits(group, 2)):
        assert decode_classical(group, orbit.representative) == ix
