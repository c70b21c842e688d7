"""Permutation-channel decoding and zero-error certification.

The channel applies an element of the group to the positions of the carriers;
the element is unknown to the receiver.  Classical decoding maps a received
string to its orbit (one lookup in ``perms.orbit_labels``); quantum decoding
projects onto the message basis.  Both are certified zero-error by exhausting
every (message, element) pair.  The ancilla-assisted protocol, dense coding
with clock-shift unitaries on the multiplicity index, is certified from the
trace of each sector operator that the same pass leaves behind.

Certification never forms d**n-sized dense operators.  The classical sweep
moves the N_c orbit representatives under blocks of elements with
``kernels.move_indices`` and compares orbit labels: O(|G| * N_c * n).
U(sigma) only moves string indices, so the quantum sweep finds, per element,
each walk slot's image slot by one transpose and one gather, and keys every
(source orbit, image orbit) block by its pattern (the two orbit sizes and the
image place of each source place): O(n * d**n) per element.  Everything after
the keys runs once per batch of elements: one ``np.unique`` of the batch's
keys, one DFT-table product per distinct pattern, the pass/fail scatter.
A batch closes once its keys reach ``MAX_KEY_BYTES``, so from C16 at d=2 on
each batch is one element; below ``MAX_STACKED_SLOTS`` walk slots several
elements are keyed by one sort.  Under a rotation every orbit
of one size has the same pattern, so a batch needs a few small products and
no Python loop per orbit.  The same pass certifies the ancilla protocol.
Every round trip in a sector of multiplicity m reduces to the m x m sector
operator V = B^H U(sigma) B: each (a, b) is decoded as itself with
probability |tr V|**2 / m**2 and one signal's m**2 outcomes sum to at most 1,
so for tol < 1/2 an element passes all (a, b) of the sector or none.  tr V
sums the sector's own overlaps, which are the complex diagonals of the self
blocks' products, so the pass adds each distinct self pattern's diagonal,
weighted by each element's number of self blocks with it, into sector
(n / n_j) * k: O(#patterns * max n_j) more per batch, and no second sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .encoding import MessageBasis, message_basis_cyclic  # noqa: F401  perfbench/tests/test_tracer.py wraps this import
from .errors import DegreeMismatchError
from .perms import DEFAULT_MAX_STATES, ColoredString, PermutationGroup, orbit_labels

MAX_MOVED_INDICES = 1 << 18  # string indices ``verify_classical`` moves per block of elements (2 MiB)
MAX_OVERLAP_BYTES = 1 << 22  # bytes of one chunk of distinct overlap patterns in ``verify_zero_error`` (4 MiB)
MAX_KEY_BYTES = 1 << 15  # block keys that close a batch of elements in ``verify_zero_error`` (32 KiB)
MAX_STACKED_SLOTS = 1 << 14  # walk slots of the elements ``_block_keys`` keys by one sort


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
    # [element, mu]: tr V, the sum of sector mu's own amplitudes <u|U(sigma)|u>; verify_zero_error only
    sector_traces: np.ndarray | None = field(default=None, compare=False, repr=False)

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
    only moves strings, so the overlaps between a source orbit's messages
    and an image orbit's are one block, fixed by its pattern: the two orbit
    sizes and the image place of each source place the block holds, in walk
    order.  ``_block_keys`` writes each element's blocks as padded pattern
    rows, and ``_key_batches`` gathers the rows of consecutive elements until
    they reach ``MAX_KEY_BYTES`` (one element per batch when its own do).
    Per batch, one ``np.unique`` finds the distinct rows and each distinct
    pattern is one DFT-table product, in chunks of at most
    ``MAX_OVERLAP_BYTES``; an (element, pattern) count of self blocks carries
    the results back to each element.  Under a rotation every orbit of one
    size has the same pattern, so that is a few products per batch after
    O(n * d**n) per element for the keys, with no Python work per orbit.  Own
    amplitudes are the diagonals of the self blocks' patterns;
    ``sector_traces`` adds them up by element and sector (see
    ``dense_coding_summary``).  ``max_offdiag_overlap`` is the largest
    probability over all blocks, own overlaps excluded, so it holds the
    diagonal of any pattern a cross block uses.  Failures are listed by
    element, then by message.
    """
    _check_tol(tol)
    if group.degree != basis.n:
        raise DegreeMismatchError("group degree does not match the basis")
    count, sizes, orbits = len(basis), basis.sizes, len(basis.sizes)
    width = int(sizes.max())  # places are below it; it pads a key
    source = np.repeat(np.arange(orbits), sizes)  # orbit of each walk slot
    place = (np.arange(count) - basis.offsets[source]).astype(np.min_scalar_type(width))
    slot_of = np.empty(count, dtype=np.int64)
    slot_of[basis.walk] = np.arange(count)
    # [l, k]: amplitude of k at walk place l; conjugated, with zero rows at the padding, for the image side
    left, right = {}, {}
    for s in np.flatnonzero(np.bincount(sizes)).tolist():
        left[s] = np.zeros((width + 1, s), dtype=complex)
        left[s][:s] = basis.dft(s).conj().T
        right[s] = basis.dft(s).T
    has_message = np.arange(width) < sizes[:, None]  # [j, k]: orbit j carries message k
    message_at = np.empty(count, dtype=np.int64)
    message_at[basis.offsets[basis.orbit] + basis.fourier] = np.arange(count)
    failures = []
    max_offdiag = 0.0
    traces = np.zeros((len(group), basis.n), dtype=complex)
    batches = _key_batches(basis, np.argsort(group.images, axis=1), slot_of, source, place)
    for lo, keys, element, seg_source, seg_target in batches:
        _, first, pattern = np.unique(keys.view(f"V{keys.strides[0]}").ravel(), return_index=True, return_inverse=True)
        elements, patterns = int(element[-1]) + 1, len(first)
        mine = seg_source == seg_target
        uses = np.bincount(element[mine] * patterns + pattern[mine], minlength=elements * patterns)
        uses = uses.reshape(elements, patterns)  # self blocks per (element, pattern)
        crossed = np.bincount(pattern[~mine], minlength=patterns) > 0  # a cross block's diagonal is off-diagonal
        kinds = keys[first, 0].astype(np.int64) * (width + 1) + keys[first, 1]
        by_kind = np.argsort(kinds, kind="stable")
        good = np.zeros((patterns, width), dtype=bool)  # own overlap k reaches 1 - tol
        for rows in np.split(by_kind, np.flatnonzero(np.diff(kinds[by_kind])) + 1):
            t, s = keys[first[rows[0]], :2].tolist()
            step = max(1, MAX_OVERLAP_BYTES // (48 * t * s))  # gathered table, product, probabilities
            for chunk in range(0, len(rows), step):
                part = rows[chunk : chunk + step]
                overlaps = left[t][keys[first[part], 2 : s + 2]].transpose(0, 2, 1) @ right[s]
                probs = np.abs(overlaps) ** 2
                if t == s:
                    k = np.arange(s)
                    good[part, :s] = probs[:, k, k] >= 1.0 - tol
                    # message (j, k) is in sector (n / s) * k
                    traces[lo : lo + elements, basis.n // s * k] += uses[:, part] @ overlaps[:, k, k]
                    probs[np.flatnonzero(~crossed[part])[:, None], k, k] = 0.0
                max_offdiag = max(max_offdiag, float(probs.max()))
        passed = np.zeros((elements, orbits, width), dtype=bool)
        passed[element[mine], seg_source[mine]] = good[pattern[mine]]
        e, j = np.divmod(np.flatnonzero(has_message & ~passed), orbits * width)  # flat: ndim nonzero is slow
        j, k = np.divmod(j, width)
        failed = message_at[basis.offsets[j] + k]
        order = np.lexsort((failed, e))
        images = group.images[lo : lo + elements].tolist()
        failures.extend((message, tuple(images[row])) for row, message in zip(e[order].tolist(), failed[order].tolist()))
        del keys, element, seg_source, seg_target, pattern, passed  # before the next batch is keyed
    return ZeroErrorReport(
        messages_tested=count,
        group_elements_tested=len(group),
        failures=tuple(failures),
        max_offdiag_overlap=max_offdiag,
        sector_traces=traces,
    )


def _check_tol(tol: float) -> None:
    if not 0 <= tol < 0.5:
        raise ValueError(f"tol must lie in [0, 1/2), got {tol}")


def _key_batches(basis: MessageBasis, inverses: np.ndarray, slot_of, source, place):
    """Yield (first element, keys, elements, source orbits, image orbits), one tuple per batch of elements.

    ``inverses`` holds the elements' inverse image rows.  ``_block_keys``
    keys ``MAX_STACKED_SLOTS // d**n`` elements at a time (at least one);
    a batch closes as soon as its keys reach ``MAX_KEY_BYTES``, so a keying
    that large is a batch of its own, scored before the next is keyed.
    The rows are by element, counted from the batch's first, then as
    ``_block_keys`` orders them.
    """
    stack = max(1, MAX_STACKED_SLOTS // len(basis))
    batch, lo, size = [], 0, 0
    for start in range(0, len(inverses), stack):
        batch.append(_block_keys(basis, inverses[start : start + stack], start - lo, slot_of, source, place))
        size += batch[-1][0].nbytes
        if size >= MAX_KEY_BYTES or start + stack >= len(inverses):
            yield lo, *(batch[0] if len(batch) == 1 else map(np.concatenate, zip(*batch)))  # one: no copy
            batch, lo, size = [], start + stack, 0


def _block_keys(basis: MessageBasis, inverses: np.ndarray, first: int, slot_of, source, place):
    """(keys, elements, source orbits, image orbits) of some elements' blocks, by ascending (element, source, image).

    ``inverses`` holds the image rows of the elements' inverses, numbered
    from ``first``; ``slot_of`` is each string's walk slot, ``source`` and
    ``place`` each walk slot's orbit and place.  A block's key row
    is its image orbit's size, its source orbit's size, then the image place
    at each source place, padded with the longest walk's length.  One
    transpose and one gather per element give each walk slot's image slot,
    and one stable sort of all the elements' (element, source, image) pairs
    groups the slots by block: O(d**n) per element.
    """
    sizes = basis.sizes
    orbits, width, count = len(sizes), int(sizes.max()), len(basis)
    slot = np.empty((len(inverses), count), dtype=np.int64)
    moved = np.empty(count, dtype=np.int64)
    for row, inverse in enumerate(inverses):  # no view of slot outlives it
        np.take(kernels.moved_values(slot_of, inverse, basis.d, moved), basis.walk, out=slot[row], mode="clip")
    del moved
    codes = place[slot]
    pair = source[slot]
    del slot
    pair += source * orbits
    if len(inverses) > 1:  # the element first
        pair += np.arange(len(inverses))[:, None] * orbits**2
    pair = pair.ravel()
    order = np.argsort(pair, kind="stable")  # fast on a rotation's pairs, which are sorted already
    pair = pair[order]
    edge = np.empty(len(pair), dtype=bool)
    edge[0] = True
    np.not_equal(pair[1:], pair[:-1], out=edge[1:])
    seg_element, pair = np.divmod(pair[edge], orbits * orbits)
    seg_element += first
    seg_source, seg_target = np.divmod(pair, orbits)
    del pair
    keys = np.full((len(seg_source), width + 2), width, dtype=place.dtype)
    keys[:, 0], keys[:, 1] = sizes[seg_target], sizes[seg_source]
    flat = np.cumsum(edge) - 1
    flat *= width + 2
    flat += np.tile(place, len(inverses))[order]
    flat += 2
    keys.ravel()[flat] = codes.ravel()[order]
    return keys, seg_element, seg_source, seg_target


def verify_classical(group: PermutationGroup, d: int, *, max_states: int = DEFAULT_MAX_STATES) -> ZeroErrorReport:
    """Decode sigma(x) for every orbit representative x and element sigma; it must land in x's orbit.

    Messages are the orbits of ``perms.orbit_labels`` (so only generators
    that do not span the elements can fail).  Each block of elements moves
    all N_c representatives in one ``kernels.move_indices`` call:
    O(|G| * N_c * n), no Python work per (orbit, element) pair.
    """
    reps, orbit_of = orbit_labels(group, d, max_states=max_states)
    inverses = np.argsort(group.images, axis=1)
    step = max(1, MAX_MOVED_INDICES // len(reps))
    failures = []
    for start in range(0, len(group), step):
        moved = orbit_of[kernels.move_indices(inverses[start : start + step], reps, d)]
        for row, message in np.argwhere(moved != np.arange(len(reps))).tolist():
            failures.append((message, tuple(group.images[start + row].tolist())))
    return ZeroErrorReport(len(reps), len(group), tuple(failures), max_offdiag_overlap=0.0)


def dense_coding_summary(basis: MessageBasis, report: ZeroErrorReport, *, tol: float = 1e-9) -> dict:
    """``{"triples", "failures"}``: how many (mu, a, b) dense-coding signals pass every element, and each failure.

    Read from ``report = verify_zero_error(basis.group, basis)``; the triples
    equal the ancilla-assisted count when the construction is sound.  Every
    (a, b) of sector mu is decoded as itself with probability
    |tr V|**2 / m**2, V = B^H U(sigma) B, and one signal's m**2 outcomes sum
    to at most 1, so for 0 <= tol < 1/2 an element passes all m**2 pairs of
    the sector or none.  The report's ``sector_traces`` hold tr V for every
    (element, sector), so this is O(|G| * n) on top of the pass.  A report
    of another group, or of another alphabet's d**n messages, is refused.  Failures
    are listed by sector, then (a, b), then element.
    """
    _check_tol(tol)
    images = basis.group.images
    traces = report.sector_traces
    if traces is None or traces.shape != (len(images), basis.n) or report.messages_tested != len(basis):
        raise ValueError("the report holds no sector traces for this basis's group")
    failures = []
    triples = 0
    for mu, m in enumerate(basis.multiplicities):
        if m == 0:
            continue
        failed = [tuple(images[e].tolist()) for e in np.flatnonzero(np.abs(traces[:, mu]) ** 2 / m**2 < 1.0 - tol)]
        if not failed:
            triples += m * m
            continue
        failures.extend(
            {"mu": mu, "a": a, "b": b, "element": list(images)}
            for a in range(m) for b in range(m) for images in failed
        )
    return {"triples": triples, "failures": failures}
