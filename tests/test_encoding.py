import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import all_strings, brute_orbits, cyclic_fourier_basis, fkm_necklaces
from permchannel import (
    ColoredString,
    Permutation,
    ambient_multiplicities,
    count_cyclic,
    encode_message,
    kernels,
    make_named_group,
    message_basis_cyclic,
    orbit_labels,
    orbits,
    unit_root,
)
from permchannel import cli, encoding
from permchannel.encoding import basis_json_lines, necklaces, write_basis_json
from permchannel.errors import StateSpaceBoundError

I = 1j

# The sixteen n=4, d=2 encoding states, keyed by (mu, alpha), as exact
# unnormalized coefficient maps.  A golden fixture for the whole pipeline.
GOLDEN_BASIS = {
    (0, 0): {"0000": 1},
    (0, 1): {"0001": 1, "1000": 1, "0100": 1, "0010": 1},
    (0, 2): {"0011": 1, "1001": 1, "1100": 1, "0110": 1},
    (0, 3): {"0101": 1, "1010": 1},
    (0, 4): {"0111": 1, "1011": 1, "1101": 1, "1110": 1},
    (0, 5): {"1111": 1},
    (1, 0): {"0001": 1, "1000": -I, "0100": -1, "0010": I},
    (1, 1): {"0011": 1, "1001": -I, "1100": -1, "0110": I},
    (1, 2): {"0111": 1, "1011": -I, "1101": -1, "1110": I},
    (2, 0): {"0001": 1, "1000": -1, "0100": 1, "0010": -1},
    (2, 1): {"0011": 1, "1001": -1, "1100": 1, "0110": -1},
    (2, 2): {"0101": 1, "1010": -1},
    (2, 3): {"0111": 1, "1011": -1, "1101": 1, "1110": -1},
    (3, 0): {"0001": 1, "1000": I, "0100": -1, "0010": -I},
    (3, 1): {"0011": 1, "1001": I, "1100": -1, "0110": -I},
    (3, 2): {"0111": 1, "1011": I, "1101": -1, "1110": -I},
}


def unnormalized_coefficients(n, d, strings, amplitudes) -> dict[str, complex]:
    """Amplitudes by basis string, divided by the amplitude of the least string."""
    strings, amplitudes = strings.tolist(), amplitudes.tolist()
    return {str(ColoredString.from_index(ix, n, d)): amp / amplitudes[0] for ix, amp in zip(strings, amplitudes)}


def coefficient_table(basis) -> dict[tuple[int, int], dict[str, complex]]:
    table = {}
    for i in range(len(basis)):
        mu, alpha, strings, amplitudes = encode_message(basis, i)
        table[(mu, alpha)] = unnormalized_coefficients(basis.n, basis.d, strings, amplitudes)
    return table


def messages_on_orbit(basis, rep: str) -> list[tuple[int, dict[str, complex]]]:
    """(mu, coefficients) of the messages supported on the orbit of ``rep``, in message order."""
    out = []
    for i in range(len(basis)):
        mu, _alpha, strings, amplitudes = encode_message(basis, i)
        if str(ColoredString.from_index(int(strings[0]), basis.n, basis.d)) == rep:
            out.append((mu, unnormalized_coefficients(basis.n, basis.d, strings, amplitudes)))
    return out


def dense_matrix(basis) -> np.ndarray:
    """d**n x len(basis) matrix of the encoded messages, in message order."""
    matrix = np.zeros((basis.d**basis.n, len(basis)), dtype=complex)
    for i in range(len(basis)):
        _mu, _alpha, strings, amplitudes = encode_message(basis, i)
        matrix[strings, i] = amplitudes
    return matrix


def assert_rotation_eigenvectors(n, d):
    """U(r)u = exp(2 pi i mu / n) u for every message u of sector mu."""
    basis = message_basis_cyclic(n, d)
    r = Permutation(tuple((i + 1) % n for i in range(n)))
    for i in range(len(basis)):
        mu, _alpha, strings, amplitudes = encode_message(basis, i)
        moved = kernels.move_indices(r.inverse().images, strings, d)  # U(r) moves amplitude a_x to r(x)
        assert sorted(moved.tolist()) == strings.tolist()
        at = dict(zip(strings.tolist(), amplitudes.tolist()))
        for amp, target in zip(amplitudes.tolist(), moved.tolist()):
            assert abs(amp - unit_root(n, mu) * at[target]) < 1e-12


SMALL_SIZES = [(n, d) for d in range(1, 6) for n in range(1, 13) if d**n <= 4096]


def necklace_rows(n: int, d: int) -> list[tuple[int, ...]]:
    """The rows of every block ``necklaces`` yields, as symbol tuples."""
    return [tuple(symbols) for block in necklaces(n, d) for symbols in block.tolist()]


class TestFKM:
    def test_four_binary_necklaces(self):
        rows = ["".join(map(str, row)) for row in necklace_rows(4, 2)]
        assert rows == ["0000", "0001", "0011", "0101", "0111", "1111"]

    def test_single_position_alphabet(self):
        assert necklace_rows(1, 5) == [(0,), (1,), (2,), (3,), (4,)]

    def test_six_binary_necklaces_count(self):
        assert len(necklace_rows(6, 2)) == 14

    def test_single_color_alphabet(self):
        assert necklace_rows(5, 1) == [(0,) * 5]

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_orbit_representatives(self, n, d):
        rows = necklace_rows(n, d)
        assert len(rows) == count_cyclic(n, d).n_c
        assert rows == sorted(rows)
        obs = orbits(make_named_group("cyclic", n), d)
        assert rows == [o.representative.symbols for o in obs]

    def test_count_bound(self):
        # The bound admits exactly N_c representatives: at N_c every block comes, one below it none does.
        n_c = count_cyclic(12, 2).n_c
        assert sum(len(block) for block in necklaces(12, 2, max_count=n_c)) == n_c == 352
        with pytest.raises(StateSpaceBoundError, match=f"{n_c} representatives exceed the bound {n_c - 1}"):
            necklaces(12, 2, max_count=n_c - 1)

    def test_necklace_bound_is_checked_before_the_first_tuple(self):
        with pytest.raises(StateSpaceBoundError):
            necklaces(30, 2, max_count=1000)
        with pytest.raises(ValueError):
            necklaces(0, 2)

    @pytest.mark.parametrize(
        "n,d", [(20, 2), (12, 3), (8, 3), (6, 4), (1, 3), (1, 1), (1, 12), (5, 1), (3, 11), (2, 300)]
    )
    def test_necklaces_are_the_orbit_minima(self, n, d):
        reps = orbit_labels(make_named_group("cyclic", n), d)[0]
        powers = kernels.digit_powers(n, d)
        blocks = list(necklaces(n, d))
        assert all(block.ndim == 2 and block.shape[1] == n for block in blocks)
        assert all(block.dtype == np.min_scalar_type(d - 1) for block in blocks)
        np.testing.assert_array_equal(np.concatenate(blocks), reps[:, None] // powers % d)

    @settings(max_examples=80, deadline=None)
    @given(size=st.sampled_from(SMALL_SIZES), chunk=st.integers(1, 5))
    def test_blocks_match_the_iterative_oracle(self, size, chunk):
        n, d = size
        with pytest.MonkeyPatch.context() as patch:  # split every level of more than a few rows
            patch.setattr(encoding, "NECKLACE_CHUNK", chunk)
            blocks = list(necklaces(n, d))
        assert max(len(block) for block in blocks) <= chunk * d
        assert [tuple(symbols) for symbols in np.concatenate(blocks).tolist()] == list(fkm_necklaces(n, d))

    def test_one_symbol_is_one_zero_row(self):
        blocks = list(necklaces(10**5, 1))
        assert len(blocks) == 1 and blocks[0].shape == (1, 10**5) and not blocks[0].any()


class TestIrrepLabel:
    """Sector label mu = (n / n_j) * k of the k-th Fourier state on an orbit of size n_j."""

    @staticmethod
    def label(basis, rep: str, k: int) -> int:
        orbit = basis.orbit_of[ColoredString.parse(rep, basis.d).index]
        [message] = np.flatnonzero((basis.orbit == orbit) & (basis.fourier == k)).tolist()
        return encode_message(basis, message)[0]

    def test_alternating_orbit_second_state(self):
        basis = message_basis_cyclic(4, 2)
        assert self.label(basis, "0101", 0) == 0
        assert self.label(basis, "0101", 1) == 2

    def test_aperiodic_orbit_third_state(self):
        assert self.label(message_basis_cyclic(4, 2), "0001", 3) == 3


class TestOrbitFourierBasis:
    def test_alternating_orbit_splits_into_sum_and_difference(self):
        states = messages_on_orbit(message_basis_cyclic(4, 2), "0101")
        assert states == [(0, {"0101": 1, "1010": 1}), (2, {"0101": 1, "1010": -1})]

    def test_constant_orbit_single_state(self):
        assert messages_on_orbit(message_basis_cyclic(4, 2), "0000") == [(0, {"0000": 1})]

    def test_aperiodic_orbit_four_phases(self):
        states = messages_on_orbit(message_basis_cyclic(4, 2), "0001")
        assert [mu for mu, _coefficients in states] == [0, 1, 2, 3]
        assert states[1][1] == {"0001": 1, "1000": -I, "0100": -1, "0010": I}

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (4, 3)])
    def test_rotation_eigenvector_property(self, n, d):
        assert_rotation_eigenvectors(n, d)


class TestMessageBasis:
    def test_worked_example_multiplicities(self):
        basis = message_basis_cyclic(4, 2)
        assert len(basis) == 16
        assert basis.multiplicities == (6, 3, 4, 3)

    def test_single_position(self):
        basis = message_basis_cyclic(1, 3)
        assert len(basis) == 3
        assert all(encode_message(basis, i)[0] == 0 for i in range(3))

    def test_two_positions(self):
        basis = message_basis_cyclic(2, 2)
        assert basis.multiplicities == (3, 1)

    def test_golden_table_exact(self):
        assert coefficient_table(message_basis_cyclic(4, 2)) == GOLDEN_BASIS

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (3, 3), (4, 3)])
    def test_orthonormal_and_complete(self, n, d):
        oracle, labels = cyclic_fourier_basis(n, d)
        assert oracle.shape == (d**n, d**n)
        assert np.abs(oracle.conj().T @ oracle - np.eye(d**n)).max() < 1e-9
        basis = message_basis_cyclic(n, d)
        assert [encode_message(basis, i)[:2] for i in range(len(basis))] == labels
        assert np.abs(dense_matrix(basis) - oracle).max() < 1e-12

    @pytest.mark.parametrize("n,d", [(2, 2), (4, 2), (6, 2), (8, 2), (4, 3), (5, 3)])
    def test_multiplicities_match_character_oracle(self, n, d):
        basis = message_basis_cyclic(n, d)
        oracle = ambient_multiplicities(make_named_group("cyclic", n), d)
        assert basis.multiplicities == oracle.values

    @pytest.mark.parametrize("n,d", [(1, 3), (5, 1), (6, 2), (4, 3)])
    def test_members_are_each_orbits_strings_ascending(self, n, d):
        # Segment j of ``members`` (the walk's offsets) is orbit j's strings in ascending index order; the
        # orbits, numbered by least member, are the brute rotation orbits.
        basis = message_basis_cyclic(n, d)
        rotations = [tuple((j + s) % n for j in range(n)) for s in range(n)]
        strings = list(all_strings(n, d))
        rank = {x: ix for ix, x in enumerate(strings)}
        expected = sorted(sorted(rank[x] for x in orbit) for orbit in brute_orbits(rotations, n, d))
        offsets = basis.offsets.tolist()
        segments = [basis.members[start:end].tolist() for start, end in zip(offsets, offsets[1:])]
        assert segments == expected
        assert segments == [sorted(basis.walk[start:end].tolist()) for start, end in zip(offsets, offsets[1:])]

    @pytest.mark.parametrize("n,d", [(4, 2), (6, 2), (3, 3)])
    def test_per_orbit_multiplicities_match_fourier_labels(self, n, d):
        # Every orbit contributes exactly one state to each sector it meets,
        # so the character-side breakdown must mirror the label sets.
        group = make_named_group("cyclic", n)
        _reps, orbit_of = orbit_labels(group, d)
        basis = message_basis_cyclic(n, d)
        labels = [set() for _ in orbits(group, d)]
        for i in range(len(basis)):
            mu, _alpha, strings, _amplitudes = encode_message(basis, i)
            labels[orbit_of[strings[0]]].add(mu)
        oracle = ambient_multiplicities(group, d, per_orbit=True)
        for row, sectors in zip(oracle.by_orbit, labels):
            assert row == tuple(1 if mu in sectors else 0 for mu in range(n))

    def test_equal_label_states_share_the_rotation_phase(self):
        assert_rotation_eigenvectors(4, 2)

    def test_state_lookup(self):
        basis = message_basis_cyclic(4, 2)
        mu, alpha, _strings, _amplitudes = encode_message(basis, 6 + 3 + 2)
        assert (mu, alpha) == (2, 2)


class TestEncodeMessage:
    def test_first_message_is_constant_string(self):
        mu, alpha, strings, amplitudes = encode_message(message_basis_cyclic(4, 2), 0)
        assert (mu, alpha, strings.tolist(), amplitudes.tolist()) == (0, 0, [0], [1.0])

    def test_last_message_is_final_sector_entry(self):
        basis = message_basis_cyclic(4, 2)
        mu, alpha, strings, amplitudes = encode_message(basis, 15)
        assert (mu, alpha) == (3, 2)
        assert unnormalized_coefficients(4, 2, strings, amplitudes) == GOLDEN_BASIS[(3, 2)]

    def test_single_position_messages_are_basis_states(self):
        basis = message_basis_cyclic(1, 4)
        for j in range(4):
            _mu, _alpha, strings, amplitudes = encode_message(basis, j)
            assert (strings.tolist(), amplitudes.tolist()) == ([j], [1.0])

    def test_out_of_range(self):
        basis = message_basis_cyclic(2, 2)
        with pytest.raises(IndexError):
            encode_message(basis, 4)


def oracle_payload(n, d) -> dict:
    """The export payload with labels and supports from the oracle basis.

    Amplitude values come from ``encode_message``, checked against the
    oracle's to 1e-12, since the export must reproduce the package's floats.
    """
    oracle, labels = cyclic_fourier_basis(n, d)
    basis = message_basis_cyclic(n, d)
    entries = []
    for i, (mu, alpha) in enumerate(labels):
        support = np.flatnonzero(np.abs(oracle[:, i]) > 1e-9)
        got_mu, got_alpha, strings, amplitudes = encode_message(basis, i)
        assert (got_mu, got_alpha, strings.tolist()) == (mu, alpha, support.tolist())
        assert np.abs(amplitudes - oracle[support, i]).max() < 1e-12
        amps = [
            {"basis_string": str(ColoredString.from_index(ix, n, d)), "re": a.real, "im": a.imag}
            for ix, a in zip(support.tolist(), amplitudes.tolist())
        ]
        entries.append({"mu": mu, "alpha": alpha, "amplitudes": amps})
    multiplicities = [sum(1 for mu, _alpha in labels if mu == s) for s in range(n)]
    return {"group": "cyclic", "n": n, "d": d, "multiplicities": multiplicities, "entries": entries}


JSON_CASES = [(1, 2), (4, 2), (6, 2), (4, 3), (3, 11), (70, 1)]
JSON_CHUNKS = [1, 2, 3, 7, encoding.BASIS_JSON_CHUNK]  # amplitude entries per export piece; the small ones split every basis


class TestJsonExport:
    def test_payload_shape(self):
        basis = message_basis_cyclic(2, 2)
        payload = json.loads("".join(basis_json_lines(basis)))
        assert payload["n"] == 2 and payload["d"] == 2
        assert payload["multiplicities"] == [3, 1]
        assert len(payload["entries"]) == 4
        first = payload["entries"][0]
        assert first["mu"] == 0 and first["alpha"] == 0
        assert first["amplitudes"][0]["basis_string"] == "00"

    def test_roundtrip_through_file(self, tmp_path):
        basis = message_basis_cyclic(3, 2)
        path = tmp_path / "basis.json"
        write_basis_json(basis, path)
        payload = json.loads(path.read_text())
        assert len(payload["entries"]) == 8
        total = sum(
            entry["re"] ** 2 + entry["im"] ** 2
            for state in payload["entries"]
            for entry in state["amplitudes"]
        )
        assert abs(total - 8.0) < 1e-9

    @pytest.mark.parametrize("chunk", JSON_CHUNKS)
    @pytest.mark.parametrize("n,d", JSON_CASES)
    def test_file_bytes_equal_json_dumps_of_the_oracle_payload(self, n, d, chunk, tmp_path, monkeypatch):
        monkeypatch.setattr(encoding, "BASIS_JSON_CHUNK", chunk)
        basis = message_basis_cyclic(n, d)
        _head, *pieces, _end = basis_json_lines(basis)
        # Each piece holds whole messages, and stops at the message that reaches the chunk.
        assert all(piece.count('"mu": ') == piece.count("\n   ]") > 0 for piece in pieces)
        assert max(piece.count('"basis_string"') for piece in pieces) <= chunk + n
        path = tmp_path / "basis.json"
        write_basis_json(basis, path)
        assert path.read_text(encoding="utf-8") == json.dumps(oracle_payload(n, d), indent=1) + "\n"

    @pytest.mark.parametrize("chunk", JSON_CHUNKS)
    @pytest.mark.parametrize("n,d", JSON_CASES)
    def test_encode_stdout_is_the_same_text(self, n, d, chunk, capsys, monkeypatch):
        monkeypatch.setattr(encoding, "BASIS_JSON_CHUNK", chunk)
        assert cli.main(["encode", "--group", "cyclic", "--n", str(n), "--d", str(d)]) == 0
        summary = f"states: {d**n}\nm: [{','.join(str(m) for m in message_basis_cyclic(n, d).multiplicities)}]\n"
        assert capsys.readouterr().out == json.dumps(oracle_payload(n, d), indent=1) + "\n" + summary


@given(st.sampled_from(SMALL_SIZES + [(14, 2), (9, 3)]))
@settings(max_examples=40, deadline=None)
def test_message_order_is_the_lexsort_by_sector_then_orbit(size):
    # The basis sorts its messages by mu alone (a stable radix sort of small keys); since the walk
    # visits the orbits in ascending order, that is the (mu, orbit) lexsort of the walk.
    n, d = size
    basis = message_basis_cyclic(n, d)
    sizes = basis.sizes
    walk_orbit = np.repeat(np.arange(len(sizes)), sizes)
    place = np.arange(d**n) - basis.offsets[walk_orbit]
    mu = (n // sizes)[walk_orbit] * place
    order = np.lexsort((walk_orbit, mu))
    assert np.array_equal(np.argsort(mu.astype(np.min_scalar_type(n)), kind="stable"), order)
    assert np.array_equal(basis.orbit, walk_orbit[order])
    assert np.array_equal(basis.fourier, place[order])
