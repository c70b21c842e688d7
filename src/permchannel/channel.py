"""Permutation-channel decoding and zero-error certification.

The channel applies an element of the group to the positions of the carriers;
the element is unknown to the receiver.  Classical decoding maps a received
string to its orbit (one lookup in ``perms.orbit_labels``); quantum decoding
projects onto the message basis.  Both are certified zero-error by exhausting
every (message, element) pair, and the ancilla-assisted protocol is simulated
sector by sector with clock-shift unitaries on the multiplicity index.

Certification never forms d**n-sized dense operators.  The classical sweep
moves the N_c orbit representatives under blocks of elements with
``kernels.move_indices`` and compares orbit labels: O(|G| * N_c * n).
U(sigma) only moves string indices, so the quantum sweep reads, per element,
each string's image orbit and walk place off the array-backed basis, and
multiplies the DFT-table gathers of every (source orbit, image orbit) pair in
batches: O(|G| * n * sum_j n_j**2), no Python loop per orbit.  The ancilla
sweep reduces every round trip in a sector of multiplicity m to the m x m
sector operator V = B^H U(sigma) B: each (a, b) is decoded as itself with
probability |tr V|**2 / m**2 and one signal's m**2 outcomes sum to at most 1,
so for tol < 1/2 an element passes all (a, b) of the sector or none.  One
pass over the sector's support for the diagonal of V decides it:
O(|G| * sum_j n_j**2) in all, O(d**n) memory per sector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .encoding import MessageBasis, message_basis_cyclic
from .errors import DegreeMismatchError
from .perms import DEFAULT_MAX_STATES, ColoredString, Permutation, PermutationGroup, orbit_labels

MAX_MOVED_INDICES = 1 << 18  # string indices ``verify_classical`` moves per block of elements (2 MiB)
MAX_OVERLAP_BYTES = 1 << 22  # bytes of one batch of overlap blocks in ``verify_zero_error`` (4 MiB)


def decode_classical(
    group: PermutationGroup, y: ColoredString, *, max_states: int = DEFAULT_MAX_STATES
) -> int:
    """Index of the orbit containing y, in canonical (representative) order."""
    if group.degree != y.n:
        raise DegreeMismatchError(f"group degree {group.degree} != string length {y.n}")
    _reps, orbit_of = orbit_labels(group, y.d, max_states=max_states)
    return int(orbit_of[y.index])


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


def verify_zero_error(group: PermutationGroup, basis: MessageBasis, *, tol: float = 1e-9) -> ZeroErrorReport:
    """Decode U(sigma)|u_m> for every message m and element sigma.

    The basis is complete and orthonormal, so for 0 <= tol < 1/2 message m
    decodes correctly (largest overlap, with probability at least 1 - tol)
    iff its own overlap |<u_m|U(sigma)|u_m>|**2 reaches 1 - tol.  U(sigma)
    only moves strings: one gather gives each string's image orbit and walk
    place, and the overlaps between a source orbit's messages and an image
    orbit's are one block, the product of two DFT-table gathers over the
    strings they share.  Blocks of equal (image size, source size, shared
    strings) are multiplied in batches of at most ``MAX_OVERLAP_BYTES``:
    O(|G| * n * sum_j n_j**2), with no Python work per orbit.
    ``max_offdiag_overlap`` is the largest probability over all blocks,
    own overlaps excluded.
    """
    if not 0 <= tol < 0.5:
        raise ValueError(f"tol must lie in [0, 1/2), got {tol}")
    if group.degree != basis.n:
        raise DegreeMismatchError("group degree does not match the basis")
    count, sizes = len(basis), basis.sizes
    members = basis.members
    source = np.repeat(np.arange(len(sizes)), sizes)
    place = basis.position[members]
    own_slot = basis.offsets[basis.orbit] + basis.fourier  # message (orbit j, k) at offsets[j] + k
    # [l, k]: amplitude of k at walk place l; conjugated for the image side
    tables = {s: (basis.dft(s).conj().T.copy(), basis.dft(s).T.copy()) for s in np.unique(sizes).tolist()}
    failures = []
    max_offdiag = 0.0
    for sigma in group.elements:
        image = kernels.action_table(sigma.inverse().images, basis.d)[members]
        target = basis.orbit_of[image]
        pair = source * len(sizes) + target
        order = np.argsort(pair, kind="stable")
        starts = np.flatnonzero(np.diff(pair[order], prepend=-1))
        lengths = np.diff(starts, append=count)
        seg_source, seg_target = source[order[starts]], target[order[starts]]
        kinds = (sizes[seg_target] * (basis.n + 1) + sizes[seg_source]) * (basis.n + 1) + lengths
        by_kind = np.argsort(kinds, kind="stable")
        own = np.zeros(count)  # own overlap of message (orbit j, k), at offsets[j] + k
        for segs in np.split(by_kind, np.flatnonzero(np.diff(kinds[by_kind])) + 1):
            t, s, length = sizes[seg_target[segs[0]]], sizes[seg_source[segs[0]]], lengths[segs[0]]
            batch = max(1, MAX_OVERLAP_BYTES // (16 * (t * length + length * s + t * s)))
            for chunk in range(0, len(segs), batch):
                seg = segs[chunk : chunk + batch]
                slots = order[starts[seg][:, None] + np.arange(length)]
                left = tables[t][0][basis.position[image[slots]]]  # [block, shared string, k']
                probs = np.abs(left.transpose(0, 2, 1) @ tables[s][1][place[slots]]) ** 2
                mine = np.flatnonzero(seg_source[seg] == seg_target[seg])[:, None]
                k = np.arange(s)
                own[basis.offsets[seg_source[seg[mine]]] + k] = probs[mine, k, k]
                probs[mine, k, k] = 0.0
                max_offdiag = max(max_offdiag, float(probs.max()))
        failed = np.flatnonzero(own[own_slot] < 1.0 - tol)
        failures.extend((int(message), sigma.images) for message in failed.tolist())
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


class _Sector(NamedTuple):
    """The sector-mu states by string index: each index is in at most one support."""

    m: int
    rows: np.ndarray  # string indices covered by the sector's supports
    owner: np.ndarray  # per string index: alpha of the state holding it, or -1
    amp: np.ndarray  # per string index: that state's amplitude, or 0


def _sector(basis: MessageBasis, mu: int) -> _Sector:
    """Sector mu's owner and amplitude per string, gathered from the basis arrays in one O(d**n) step."""
    m = basis.multiplicities[mu] if 0 <= mu < basis.n else 0
    if not m:
        raise ValueError(f"sector {mu} is empty")
    first = sum(basis.multiplicities[:mu])
    strings, amplitudes, sizes = basis.support(np.arange(first, first + m))
    owner = np.full(basis.d**basis.n, -1, dtype=np.int64)
    owner[strings] = np.repeat(np.arange(m), sizes)
    amp = np.zeros(basis.d**basis.n, dtype=complex)
    amp[strings] = amplitudes
    return _Sector(m, np.flatnonzero(owner >= 0), owner, amp)


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
    entangled state is formed, and only the shifts that hold a term of the
    operator get a row of m probabilities: O(d**n + k * m log m) for k such
    shifts.
    """
    if basis is None:
        basis = message_basis_cyclic(n, d)
    elif (n, d) != (basis.n, basis.d):
        raise ValueError(f"(n, d) = ({n}, {d}) does not match the basis ({basis.n}, {basis.d})")
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
    table = kernels.action_table(sigma.inverse().images, basis.d)
    shifts, probs = _shift_probabilities(sector, table)
    decoded = (shifts + a) % m  # the a' of each row
    order = np.argsort(decoded)
    probs = np.roll(probs[order], b, axis=1)  # column b' of each row
    if not probs.any():  # every (a', b') has probability 0: the first one
        return DenseCodingResult(0, 0, 0.0)
    best = int(np.argmax(probs))
    return DenseCodingResult(int(decoded[order[best // m]]), best % m, float(probs.flat[best]))


def _shift_probabilities(sector: _Sector, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(shifts, probs): probs[i, q] is the probability of decoding (a + shifts[i], b + q) mod m after sending (a, b).

    With V = B^H U(sigma) B, sending (a, b) and measuring (a', b') succeeds
    with probability |tr(W'^H V W)|**2 / m**2 for W = X**a Z**b, and the
    trace is sum_j V[j + a', j + a] * w**(j * (b - b')).  Up to a phase that
    is the FFT of the cyclic diagonal V[i + s, i], s = a' - a, at
    q = b' - b, so the table is the same for every (a, b).  Only the
    ascending shifts s whose diagonal holds a term of V get a row; every
    other row of the m x m table is zero.  For a cyclic group V is a phase
    times the identity, so that is the one row s = 0.
    """
    m = sector.m
    rows, cols, values = _sector_entries(sector, table)
    shifts, slot = np.unique((rows - cols) % m, return_inverse=True)
    diagonals = _scatter(slot * m + cols, values, len(shifts) * m).reshape(-1, m)
    return shifts, np.abs(np.fft.fft(diagonals, axis=1)) ** 2 / m**2


def dense_coding_certify(
    n: int, d: int, *, basis: MessageBasis | None = None, tol: float = 1e-9
) -> dict:
    """Round-trip every (mu, a, b) under every channel element.

    Returns the number of triples that survive all elements; it equals the
    ancilla-assisted message count when the construction is sound.  Every
    (a, b) of a sector is decoded as itself with probability |tr V|**2 / m**2,
    V = B^H U(sigma) B, and one signal's m**2 outcomes sum to at most 1, so
    for 0 <= tol < 1/2 an element passes all m**2 pairs of the sector or
    none.  The trace is one pass over the sector's support per element:
    O(|G| * sum_j n_j**2) in all, O(d**n) memory per sector.  Failures are
    listed by (a, b), then element.
    """
    if not 0 <= tol < 0.5:
        raise ValueError(f"tol must lie in [0, 1/2), got {tol}")
    if basis is None:
        basis = message_basis_cyclic(n, d)
    elif (n, d) != (basis.n, basis.d):
        raise ValueError(f"(n, d) = ({n}, {d}) does not match the basis ({basis.n}, {basis.d})")
    elements = basis.group.elements
    tables = [kernels.action_table(sigma.inverse().images, basis.d) for sigma in elements]
    failures = []
    triples = 0
    for mu, m in enumerate(basis.multiplicities):
        if m == 0:
            continue
        sector = _sector(basis, mu)
        failed = []
        for sigma, table in zip(elements, tables):
            rows, cols, values = _sector_entries(sector, table)
            if abs(values[rows == cols].sum()) ** 2 / m**2 < 1.0 - tol:
                failed.append(sigma.images)
        if not failed:
            triples += m * m
            continue
        failures.extend(
            {"mu": mu, "a": a, "b": b, "element": list(images)}
            for a in range(m) for b in range(m) for images in failed
        )
    return {"triples": triples, "failures": failures}
