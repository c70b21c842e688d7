"""Permutation-channel simulation, decoding, and zero-error certification.

The channel applies an element of the group to the positions of the carriers;
the element is unknown to the receiver.  Classical decoding maps a received
string to its orbit (one lookup in ``perms.orbit_labels``); quantum decoding
projects onto the message basis.  Both are certified zero-error by exhausting
every (message, element) pair, and the ancilla-assisted protocol is simulated
sector by sector with clock-shift unitaries on the multiplicity index.

Certification never forms d**n-sized dense operators.  The classical sweep
moves the N_c orbit representatives under blocks of elements with
``kernels.move_indices`` and compares orbit labels: O(|G| * N_c * n).
U(sigma) only moves string indices, so the quantum sweep splits the basis
into blocks of connected support (one rotation orbit of size n_j per block
for the cyclic Fourier basis) and multiplies each block by the blocks its
image lands in: O(|G| * sum_j n_j**3).  The ancilla sweep reduces every
round trip in a sector of multiplicity m to the m x m sector operator
V = B^H U(sigma) B, one pass over d**n entries, and reads all
(a, b) -> (a', b') probabilities |tr(W'^H V W)|**2 / m**2 off at most m
length-m FFTs: O(|G| * (d**n + m**2 log m)) per sector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .characters import unit_root
from .encoding import MessageBasis, StateVector, message_basis_cyclic
from .errors import AmbiguousDecodingError, DegreeMismatchError, StateSpaceBoundError
from .perms import (
    DEFAULT_MAX_STATES,
    ColoredString,
    Permutation,
    PermutationGroup,
    act_on_string,
    orbit_labels,
)

EXHAUSTIVE = "exhaustive"
UNIFORM_RANDOM = "uniform_random"
FIXED = "fixed"

# Complex amplitudes one dense-coding instance may hold: 256 MiB, the
# size of the largest isotypic projector within the default bounds.
MAX_DENSE_ENTRIES = 1 << 24
MAX_MOVED_INDICES = 1 << 18  # string indices ``verify_classical`` moves per block of elements (2 MiB)


@dataclass(frozen=True)
class ChannelSpec:
    """A permutation channel: a group plus an element-selection policy."""

    group: PermutationGroup
    selection: str = EXHAUSTIVE
    sigma: Permutation | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.selection not in (EXHAUSTIVE, UNIFORM_RANDOM, FIXED):
            raise ValueError(f"unknown selection policy {self.selection!r}")
        if self.selection == FIXED:
            if self.sigma is None or self.sigma not in self.group:
                raise ValueError("fixed selection requires an element of the group")

    @staticmethod
    def exhaustive(group: PermutationGroup) -> "ChannelSpec":
        return ChannelSpec(group, EXHAUSTIVE)

    @staticmethod
    def fixed(group: PermutationGroup, sigma: Permutation) -> "ChannelSpec":
        return ChannelSpec(group, FIXED, sigma=sigma)

    @staticmethod
    def uniform_random(group: PermutationGroup, seed: int) -> "ChannelSpec":
        return ChannelSpec(group, UNIFORM_RANDOM, seed=seed)

    def draw_elements(self, rng: np.random.Generator | None = None) -> list[Permutation]:
        """Elements the channel may apply under this policy (one draw if random)."""
        if self.selection == EXHAUSTIVE:
            return list(self.group.elements)
        if self.selection == FIXED:
            return [self.sigma]
        rng = rng if rng is not None else np.random.default_rng(self.seed)
        return [self.group.elements[int(rng.integers(len(self.group)))]]


def apply_channel_classical(
    spec: ChannelSpec, x: ColoredString, rng: np.random.Generator | None = None
) -> list[tuple[Permutation, ColoredString]]:
    """(element, output) pairs: the whole image set when exhaustive, else one draw."""
    if spec.group.degree != x.n:
        raise DegreeMismatchError(f"group degree {spec.group.degree} != string length {x.n}")
    return [(sigma, act_on_string(sigma, x)) for sigma in spec.draw_elements(rng)]


def apply_permutation_state(sigma: Permutation, psi: StateVector) -> StateVector:
    """U(sigma)|psi>: amplitudes permute across basis indices, no arithmetic."""
    if sigma.degree != psi.n:
        raise DegreeMismatchError(f"permutation degree {sigma.degree} != state length {psi.n}")
    moved = kernels.move_indices(sigma.inverse().images, list(psi.amplitudes), psi.d)
    return StateVector(psi.n, psi.d, dict(zip(moved.tolist(), psi.amplitudes.values())))


def apply_channel_quantum(
    spec: ChannelSpec, psi: StateVector, rng: np.random.Generator | None = None
) -> list[tuple[Permutation, StateVector]]:
    """(element, output state) pairs under the selection policy."""
    if spec.group.degree != psi.n:
        raise DegreeMismatchError(f"group degree {spec.group.degree} != state length {psi.n}")
    return [(sigma, apply_permutation_state(sigma, psi)) for sigma in spec.draw_elements(rng)]


def decode_classical(
    group: PermutationGroup, y: ColoredString, *, max_states: int = DEFAULT_MAX_STATES
) -> int:
    """Index of the orbit containing y, in canonical (representative) order."""
    if group.degree != y.n:
        raise DegreeMismatchError(f"group degree {group.degree} != string length {y.n}")
    _reps, orbit_of = orbit_labels(group, y.d, max_states=max_states)
    return int(orbit_of[y.index])


def decode_quantum(
    basis: MessageBasis, psi: StateVector, *, tie_tol: float = 1e-6
) -> tuple[int, int, float]:
    """(mu, alpha, probability) of the basis entry with the largest overlap.

    A runner-up within ``tie_tol`` of the maximum raises
    AmbiguousDecodingError: channel outputs of genuine basis states decode
    with probability 1, so ties indicate a non-basis input.
    """
    probs = [abs(state.inner(psi)) ** 2 for _mu, _alpha, state in basis.entries]
    order = sorted(range(len(probs)), key=probs.__getitem__, reverse=True)
    best = order[0]
    if len(order) > 1 and probs[order[1]] > probs[best] - tie_tol:
        raise AmbiguousDecodingError(
            f"overlap tie: {probs[best]:.6f} vs {probs[order[1]]:.6f}"
        )
    mu, alpha, _state = basis.entries[best]
    return mu, alpha, probs[best]


@dataclass(frozen=True)
class ZeroErrorReport:
    """Outcome of exhausting every (message, group element) pair."""

    messages_tested: int
    group_elements_tested: int
    failures: tuple[tuple[int, tuple[int, ...]], ...]  # (message index, element images)
    max_offdiag_overlap: float

    @property
    def zero_error(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "messages": self.messages_tested,
            "elements": self.group_elements_tested,
            "failures": [
                {"message": m, "element": list(images)} for m, images in self.failures
            ],
            "max_offdiag_overlap": self.max_offdiag_overlap,
        }


class _Block(NamedTuple):
    """Basis columns whose supports connect, with the string indices they cover."""

    columns: np.ndarray  # ascending message indices
    rows: np.ndarray  # ascending string indices
    matrix: np.ndarray  # amplitudes, len(rows) x len(columns)


def _support_blocks(basis: MessageBasis) -> tuple[list[_Block], np.ndarray, np.ndarray]:
    """Split the basis into blocks with pairwise disjoint supports.

    Columns whose supports share a string index are joined, so the split is
    exact for any basis; in the cyclic Fourier basis each block is one
    rotation orbit.  Also returns, per string index, its block (-1 outside
    every support) and its row within that block.
    """
    states = [state for _mu, _alpha, state in basis.entries]
    count = len(states)
    sizes = [len(state.amplitudes) for state in states]
    total = sum(sizes)
    cols = np.repeat(np.arange(count, dtype=np.int64), sizes)
    rows = np.fromiter((ix for s in states for ix in s.amplitudes), dtype=np.int64, count=total)
    amps = np.fromiter((a for s in states for a in s.amplitudes.values()), dtype=complex, count=total)
    # Min-label propagation over the column/row incidence until it settles.
    label = np.arange(count, dtype=np.int64)
    while True:
        row_label = np.full(basis.d**basis.n, count, dtype=np.int64)
        np.minimum.at(row_label, rows, label[cols])
        joined = label.copy()
        np.minimum.at(joined, cols, row_label[rows])
        if np.array_equal(joined, label):
            break
        label = joined
    labels, block_of_col = np.unique(label, return_inverse=True)
    col_order = np.argsort(block_of_col, kind="stable")
    col_splits = np.cumsum(np.bincount(block_of_col))[:-1]
    entry_block = block_of_col[cols]
    entry_order = np.argsort(entry_block, kind="stable")
    entry_splits = np.cumsum(np.bincount(entry_block, minlength=labels.size))[:-1]
    block_of_row = np.full(basis.d**basis.n, -1, dtype=np.int64)
    row_in_block = np.zeros(basis.d**basis.n, dtype=np.int64)
    blocks = []
    for index, (columns, entries) in enumerate(
        zip(np.split(col_order, col_splits), np.split(entry_order, entry_splits))
    ):
        block_rows, local_rows = np.unique(rows[entries], return_inverse=True)
        matrix = np.zeros((len(block_rows), len(columns)), dtype=complex)
        matrix[local_rows, np.searchsorted(columns, cols[entries])] = amps[entries]
        block_of_row[block_rows] = index
        row_in_block[block_rows] = np.arange(len(block_rows))
        blocks.append(_Block(columns, block_rows, matrix))
    return blocks, block_of_row, row_in_block


def verify_zero_error(group: PermutationGroup, basis: MessageBasis, *, tol: float = 1e-9) -> ZeroErrorReport:
    """Decode U(sigma)|u_m> for every message m and element sigma.

    Decoding is by the largest overlap |<u_t|U(sigma)|u_m>|**2 (ties to the
    lowest t), which must also reach 1 - tol.  U(sigma) only moves string
    indices, so the overlaps of one support block are nonzero only with the
    blocks its image lands in; each such pair is one small product, and the
    sweep costs O(|G| * sum of n_j**3) over blocks of size n_j.
    """
    if group.degree != basis.n:
        raise DegreeMismatchError("group degree does not match the basis")
    blocks, block_of_row, row_in_block = _support_blocks(basis)
    failures = []
    max_offdiag = 0.0
    count = len(basis.entries)
    for sigma in group.elements:
        table = kernels.action_table(sigma.inverse().images, basis.d)
        decoded = np.zeros(count, dtype=bool)
        for block in blocks:
            image = table[block.rows]
            targets = block_of_row[image]
            received, probs = [], []
            for t in set(targets.tolist()) - {-1}:
                hit = targets == t
                overlap = blocks[t].matrix[row_in_block[image[hit]]].conj().T @ block.matrix[hit]
                received.append(blocks[t].columns)
                probs.append(np.abs(overlap) ** 2)
            if not received:
                continue
            received = np.concatenate(received)
            order = np.argsort(received, kind="stable")
            received, probs = received[order], np.concatenate(probs)[order]
            own = received[:, None] == block.columns[None, :]
            max_offdiag = max(max_offdiag, float(np.where(own, 0.0, probs).max()))
            best = np.argmax(probs, axis=0)
            decoded[block.columns] = (received[best] == block.columns) & (
                probs.max(axis=0) >= 1.0 - tol
            )
        failures.extend((int(message), sigma.images) for message in np.flatnonzero(~decoded))
    return ZeroErrorReport(
        messages_tested=count,
        group_elements_tested=len(group.elements),
        failures=tuple(failures),
        max_offdiag_overlap=max_offdiag,
    )


def verify_classical(group: PermutationGroup, d: int, *, max_states: int = DEFAULT_MAX_STATES) -> ZeroErrorReport:
    """Decode sigma(x) for every orbit representative x and element sigma; it must land in x's orbit.

    Messages are the orbits of ``perms.orbit_labels`` (so only generators
    that do not span the elements can fail).  Each block of elements moves
    all N_c representatives in one ``kernels.move_indices`` call:
    O(|G| * N_c * n), no Python work per (orbit, element) pair.
    """
    reps, orbit_of = orbit_labels(group, d, max_states=max_states)
    inverses = np.argsort(group._images, axis=1)
    step = max(1, MAX_MOVED_INDICES // len(reps))
    failures = []
    for start in range(0, len(group), step):
        moved = orbit_of[kernels.move_indices(inverses[start : start + step], reps, d)]
        for row, message in np.argwhere(moved != np.arange(len(reps))).tolist():
            failures.append((message, group.elements[start + row].images))
    return ZeroErrorReport(len(reps), len(group), tuple(failures), max_offdiag_overlap=0.0)


def weyl_operators(m: int) -> list[np.ndarray]:
    """Clock-shift family X**a Z**b, ordered by (a, b); trace-orthogonal."""
    if m < 1:
        raise ValueError("m must be >= 1")
    shift = np.zeros((m, m), dtype=complex)
    for j in range(m):
        shift[(j + 1) % m, j] = 1.0
    clock = np.diag([unit_root(m, j) for j in range(m)])
    out = []
    x_power = np.eye(m, dtype=complex)
    for _a in range(m):
        z_power = np.eye(m, dtype=complex)
        for _b in range(m):
            out.append(x_power @ z_power)
            z_power = z_power @ clock
        x_power = shift @ x_power
    return out


def sector_matrix(basis: MessageBasis, mu: int) -> np.ndarray:
    """d**n x m_mu matrix of the sector-mu basis states (columns)."""
    columns = [state.dense() for m, _alpha, state in basis.entries if m == mu]
    if not columns:
        raise ValueError(f"sector {mu} is empty")
    return np.stack(columns, axis=1)


class _Sector(NamedTuple):
    """The sector-mu states by string index: each index is in at most one support."""

    m: int
    rows: np.ndarray  # string indices covered by the sector's supports
    owner: np.ndarray  # per string index: alpha of the state holding it, or -1
    amp: np.ndarray  # per string index: that state's amplitude, or 0


def _sector(basis: MessageBasis, mu: int) -> _Sector:
    states = [state for m, _alpha, state in basis.entries if m == mu]
    if not states:
        raise ValueError(f"sector {mu} is empty")
    owner = np.full(basis.d**basis.n, -1, dtype=np.int64)
    amp = np.zeros(basis.d**basis.n, dtype=complex)
    for alpha, state in enumerate(states):
        rows = np.fromiter(state.amplitudes, dtype=np.int64, count=len(state.amplitudes))
        if (owner[rows] >= 0).any():
            raise ValueError(f"sector {mu} has two states sharing a string index")
        owner[rows] = alpha
        amp[rows] = np.fromiter(state.amplitudes.values(), dtype=complex, count=len(rows))
    return _Sector(len(states), np.flatnonzero(owner >= 0), owner, amp)


def _sector_entries(sector: _Sector, table: np.ndarray):
    """Terms of V = B^H U(sigma) B as (row alpha', column alpha, value), one per support hit."""
    image = table[sector.rows]
    target = sector.owner[image]
    hit = target >= 0
    values = sector.amp[image[hit]].conj() * sector.amp[sector.rows[hit]]
    return target[hit], sector.owner[sector.rows[hit]], values


def _scatter(flat: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    return np.bincount(flat, values.real, size) + 1j * np.bincount(flat, values.imag, size)


def sector_unitary(basis: MessageBasis, mu: int, sigma: Permutation) -> np.ndarray:
    """U(sigma) restricted to the span of sector mu (m x m matrix)."""
    sector = _sector(basis, mu)
    rows, cols, values = _sector_entries(sector, kernels.action_table(sigma.inverse().images, basis.d))
    return _scatter(rows * sector.m + cols, values, sector.m**2).reshape(sector.m, sector.m)


@dataclass(frozen=True, eq=False)
class DenseCodingInstance:
    """The m**2 entangled signal states of one sector, message (x) ancilla."""

    mu: int
    m: int
    entangled: np.ndarray  # (m**2, d**n * m), rows are flattened states
    weyl_index: tuple[tuple[int, int], ...]


def dense_coding_instance(basis: MessageBasis, mu: int) -> DenseCodingInstance:
    """The dense (m**2, d**n * m) matrix of sector mu's entangled signal states.

    Its m**3 * d**n amplitudes are checked against ``MAX_DENSE_ENTRIES``
    before anything is allocated (20.6 GB at n=10, d=2, sector 0).
    """
    m = sum(1 for m_mu, _alpha, _state in basis.entries if m_mu == mu)
    if m == 0:
        raise ValueError(f"sector {mu} is empty")
    entries = m**3 * basis.d**basis.n
    if entries > MAX_DENSE_ENTRIES:
        raise StateSpaceBoundError(
            f"sector {mu} signal states hold m**3 * d**n = {entries} amplitudes, above the bound {MAX_DENSE_ENTRIES}"
        )
    block = sector_matrix(basis, mu)
    rows = [(block @ w).reshape(-1) / math.sqrt(m) for w in weyl_operators(m)]
    entangled = np.stack(rows, axis=0)
    gram = entangled.conj() @ entangled.T
    if float(np.abs(gram - np.eye(m * m)).max()) > 1e-9:
        raise ValueError("entangled signal states are not orthonormal")
    index = tuple((a, b) for a in range(m) for b in range(m))
    return DenseCodingInstance(mu=mu, m=m, entangled=entangled, weyl_index=index)


class DenseCodingResult(NamedTuple):
    a: int
    b: int
    probability: float


def dense_coding_roundtrip(
    n: int,
    d: int,
    mu: int,
    a: int,
    b: int,
    sigma: Permutation,
    *,
    basis: MessageBasis | None = None,
) -> DenseCodingResult:
    """Send (a, b) through sector mu under channel element sigma and decode.

    The sender applies the (a, b) clock-shift on the message half of the
    shared maximally entangled state; the channel permutes the carriers; the
    receiver measures in the entangled basis and takes the first (a', b') of
    largest probability.  For cyclic groups the channel is a global phase on
    each sector, so decoding succeeds with probability 1.  The probabilities
    come from the m x m sector operator (see ``_shift_probabilities``), so no
    entangled state is formed: O(d**n + m**2 log m).
    """
    if basis is None:
        basis = message_basis_cyclic(n, d)
    if basis.group.kind != "cyclic":
        raise ValueError("dense coding is implemented for cyclic groups only")
    if sigma not in basis.group:
        raise ValueError("sigma is not an element of the channel group")
    sector = _sector(basis, mu)
    m = sector.m
    if not (0 <= a < m and 0 <= b < m):
        raise ValueError(f"(a, b) = ({a}, {b}) out of range for m = {m}")
    norms = np.bincount(sector.owner[sector.rows], np.abs(sector.amp[sector.rows]) ** 2, m)
    if float(np.abs(norms - 1.0).max()) > 1e-9:
        raise ValueError("entangled signal states are not orthonormal")
    table = kernels.action_table(sigma.inverse().images, d)
    probs = np.roll(_shift_probabilities(sector, table), (a, b), axis=(0, 1))
    best = int(np.argmax(probs))
    return DenseCodingResult(best // m, best % m, float(probs.flat[best]))


def _shift_probabilities(sector: _Sector, table: np.ndarray) -> np.ndarray:
    """probs[s, q]: probability of decoding (a + s, b + q) mod m after sending (a, b).

    With V = B^H U(sigma) B, sending (a, b) and measuring (a', b') succeeds
    with probability |tr(W'^H V W)|**2 / m**2 for W = X**a Z**b, and the
    trace is sum_j V[j + a', j + a] * w**(j * (b - b')).  Up to a phase that
    is the FFT of the cyclic diagonal V[i + s, i], s = a' - a, at
    q = b' - b, so the table is the same for every (a, b); only diagonals
    holding a term of V need an FFT.
    """
    m = sector.m
    rows, cols, values = _sector_entries(sector, table)
    shifts, slot = np.unique((rows - cols) % m, return_inverse=True)
    diagonals = _scatter(slot * m + cols, values, len(shifts) * m).reshape(-1, m)
    probs = np.zeros((m, m))
    probs[shifts] = np.abs(np.fft.fft(diagonals, axis=1)) ** 2 / m**2
    return probs


def _dense_coding_decoded(sector: _Sector, table: np.ndarray, tol: float) -> np.ndarray:
    """(m, m) mask of the pairs (a, b) decoded correctly under one channel element.

    Every round trip reads the same shift table (``_shift_probabilities``).
    The receiver takes the first (a', b') of largest probability, as argmax
    does over the (a, b) ordering; a tie (s, q) precedes (a, b) exactly when
    a + s wraps past m (s > 0), or s == 0 and b + q wraps past m.
    """
    m = sector.m
    probs = _shift_probabilities(sector, table)
    best = probs.max()
    if probs[0, 0] != best or best < 1.0 - tol:
        return np.zeros((m, m), dtype=bool)
    tied = probs == best
    s_wrap = np.flatnonzero(tied.any(axis=1)).max()
    q_wrap = np.flatnonzero(tied[0]).max()
    i = np.arange(m)
    return (i[:, None] < m - s_wrap) & (i[None, :] < m - q_wrap)


def dense_coding_certify(
    n: int, d: int, *, basis: MessageBasis | None = None, tol: float = 1e-9
) -> dict:
    """Round-trip every (mu, a, b) under every channel element.

    Returns the number of triples that survive all elements; it equals the
    ancilla-assisted message count when the construction is sound.  Each
    (sector, element) pair costs one pass over the sector's support for the
    terms of its m x m operator V = B^H U(sigma) B and at most m length-m
    FFTs for all m**4 decoding probabilities: O(|G| * (d**n + m**2 log m))
    per sector.
    """
    if basis is None:
        basis = message_basis_cyclic(n, d)
    elements = basis.group.elements
    tables = [kernels.action_table(sigma.inverse().images, basis.d) for sigma in elements]
    failures = []
    triples = 0
    for mu, m in enumerate(basis.multiplicities):
        if m == 0:
            continue
        sector = _sector(basis, mu)
        decoded = np.stack([_dense_coding_decoded(sector, table, tol) for table in tables], axis=-1)
        triples += int(decoded.all(axis=-1).sum())
        for a, b, g in np.argwhere(~decoded):
            failures.append({"mu": mu, "a": int(a), "b": int(b), "element": list(elements[g].images)})
    return {"triples": triples, "failures": failures}
