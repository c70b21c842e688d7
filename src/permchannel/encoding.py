"""Zero-error quantum message bases for cyclic permutation channels.

Each orbit of the one-step rotation r carries a Fourier basis

    |u_k> = (1/sqrt(n_j)) * sum_l w**(-k*l) U(r**l)|rep>,   w = exp(2 pi i / n_j),

so that U(r)|u_k> = w**(+k) |u_k>.  Phase convention: the minus sign sits in
the construction sum and the eigenphase exponent is positive; the sector
label mu is defined through the eigenphase exp(2 pi i mu / n), i.e.
mu = (n / n_j) * k mod n.  Flipping this sign silently permutes the sector
labels, so it is fixed here once and for all.

Message ordering is ascending mu, then ascending orbit representative, which
makes encode/decode deterministic.

A ``MessageBasis`` holds arrays, not states.  One walk array lists each
orbit's members in rotation order (``walk[offsets[j] + l]`` is r**l applied
to orbit j's representative), ``position`` gives each string's l, and the
message order is one orbit and one Fourier index k per message.  Amplitudes
stay implicit: u_(j, k) has amplitude ``dft(n_j)[k, l]`` at
``walk[offsets[j] + l]``, each size's DFT table built once.  The basis costs
one ``perms.orbit_labels`` call and one ``kernels.move_indices`` call over
all representatives, O(n * d**n); :func:`basis_json_lines` streams its JSON
text from the same arrays, one join of preformatted pieces per chunk of
whole messages.

The classical codebook, one necklace per rotation orbit, comes from
:func:`necklaces`: the FKM extension rule applied to whole levels of
prenecklaces at once, yielded as ascending numpy blocks of symbol rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from . import kernels
from .characters import unit_root
from .counting import count_cyclic
from .errors import StateSpaceBoundError
from .perms import DEFAULT_MAX_STATES, PermutationGroup, make_named_group, orbit_labels


@dataclass(frozen=True, eq=False)
class MessageBasis:
    """The full orthonormal encoding basis, as orbit walks and a message order.

    Orbit j's members in rotation order are ``walk[offsets[j]:offsets[j + 1]]``;
    string x is at place ``position[x]`` of orbit ``orbit_of[x]``'s walk.
    ``orbit_of`` is ``perms.orbit_labels``'s, int32 below 2**31 strings.
    Message i (ascending mu, then orbit) is the Fourier state k = ``fourier[i]``
    on orbit ``orbit[i]``, with amplitude ``dft(size)[k, l]`` at walk place l.
    """

    n: int
    d: int
    group: PermutationGroup
    multiplicities: tuple[int, ...]
    walk: np.ndarray
    offsets: np.ndarray
    orbit_of: np.ndarray
    position: np.ndarray
    orbit: np.ndarray
    fourier: np.ndarray

    def __len__(self) -> int:
        return len(self.orbit)

    @cached_property
    def sizes(self) -> np.ndarray:
        """Orbit sizes n_j."""
        return np.diff(self.offsets)

    @cached_property
    def members(self) -> np.ndarray:
        """Each orbit's strings in ascending order, orbit after orbit (same offsets as ``walk``)."""
        return np.argsort(self.orbit_of, kind="stable")

    @cached_property
    def _dft(self) -> tuple[np.ndarray, np.ndarray]:
        """Every orbit size's DFT table, ravelled end to end, and each size's start in it."""
        start = np.zeros(self.n + 1, dtype=np.int64)
        values = []
        for size in np.flatnonzero(np.bincount(self.sizes)).tolist():
            start[size] = len(values)
            scale = 1.0 / math.sqrt(size)
            values += [unit_root(size, -k * l) * scale for k in range(size) for l in range(size)]
        return np.array(values, dtype=complex), start

    def dft(self, size: int) -> np.ndarray:
        """(size, size) table: entry [k, l] is w**(-k*l) / sqrt(size), w = exp(2 pi i / size)."""
        values, start = self._dft
        return values[start[size] : start[size] + size * size].reshape(size, size)

    def support(self, messages) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(strings, amplitudes, sizes): each given message's walk and amplitudes, message after message."""
        orbit = self.orbit[messages]
        sizes = self.sizes[orbit]
        ends = np.cumsum(sizes)
        place = np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - sizes, sizes)
        values, start = self._dft
        strings = self.walk[np.repeat(self.offsets[orbit], sizes) + place]
        amplitudes = values[np.repeat(start[sizes] + self.fourier[messages] * sizes, sizes) + place]
        return strings, amplitudes, sizes


NECKLACE_CHUNK = 4096  # prenecklace rows extended at once; a longer level is split and taken depth first


def necklaces(n: int, d: int, *, max_count: int = DEFAULT_MAX_STATES) -> Iterator[np.ndarray]:
    """The lexicographically minimal rotation-orbit representatives, as ascending (m, n) blocks of symbol rows.

    FKM by levels: a prenecklace a of length k whose longest Lyndon prefix has
    length p has the children a.b for b = a[k - p] .. d - 1; a child keeps p
    when b == a[k - p], else its p is k + 1, and a row of length n is a
    necklace iff p divides n.  Parents ascend and each parent's children
    ascend, so every level is in lexicographic order with no sort.  A level of
    more than ``NECKLACE_CHUNK`` rows is split into chunks, each taken depth
    first to length n, so a block has at most ``NECKLACE_CHUNK * d`` rows.
    Symbols are in the smallest unsigned dtype that holds d - 1.  The count
    bound is checked before the first block.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    expected = count_cyclic(n, d).n_c
    if expected > max_count:
        raise StateSpaceBoundError(f"{expected} representatives exceed the bound {max_count}")
    if d == 1:  # one necklace; n levels of one row would copy O(n**2) symbols
        return iter([np.zeros((1, n), dtype=np.uint8)])
    rows = np.zeros((d, n), dtype=np.min_scalar_type(d - 1))
    rows[:, 0] = np.arange(d)
    return _necklace_blocks(rows, np.ones(d, dtype=np.int64), 1, d)


def _necklace_blocks(rows: np.ndarray, p: np.ndarray, k: int, d: int) -> Iterator[np.ndarray]:
    """The necklaces that extend the length-k prenecklaces ``rows`` (Lyndon prefix lengths p), in blocks."""
    n = rows.shape[1]
    while k < n:
        if len(rows) > NECKLACE_CHUNK:
            for s in range(0, len(rows), NECKLACE_CHUNK):
                yield from _necklace_blocks(rows[s : s + NECKLACE_CHUNK], p[s : s + NECKLACE_CHUNK], k, d)
            return
        base = rows[np.arange(len(rows)), k - p].astype(np.int64)
        counts = d - base
        ends = np.cumsum(counts)
        parent = np.repeat(np.arange(len(rows)), counts)
        symbol = np.arange(ends[-1]) - np.repeat(ends - counts - base, counts)
        rows = rows[parent]
        rows[:, k] = symbol
        p = np.where(symbol == base[parent], p[parent], k + 1)
        k += 1
    necklace = n % p == 0
    if necklace.any():
        yield rows[necklace]


def message_basis_cyclic(n: int, d: int, *, max_states: int = DEFAULT_MAX_STATES) -> MessageBasis:
    """All d**n encoding states for the cyclic channel, grouped by sector."""
    group = make_named_group("cyclic", n)
    reps, orbit_of = orbit_labels(group, d, max_states=max_states)
    step = np.argsort(group.generator_images[0])
    powers = [np.arange(n)]  # inverse images of rotation**0 .. rotation**(n-1)
    for _ in range(n - 1):
        powers.append(step[powers[-1]])
    moved = kernels.move_indices(np.array(powers), reps, d)  # [l, j]: rotation**l of representative j
    sizes = kernels.label_counts(orbit_of, len(reps))
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    walk = moved.T[np.arange(n) < sizes[:, None]]
    walk_orbit = np.repeat(np.arange(len(reps)), sizes)
    place = np.arange(d**n) - offsets[walk_orbit]  # walk place l; as k, slot offsets[j] + k is message (j, k)
    position = np.full(d**n, -1, dtype=np.int64)
    position[walk] = place
    if (position < 0).any():
        raise ValueError("rotation walks do not cover every string once; not the rotation orbits")
    mu = (n // sizes)[walk_orbit] * place
    # mu then orbit: walk_orbit ascends along the walk, so a stable sort by mu alone keeps that order;
    # numpy sorts 8- and 16-bit keys stably by radix
    order = np.argsort(mu.astype(np.min_scalar_type(n)), kind="stable")
    multiplicities = tuple(np.bincount(mu, minlength=n).tolist())
    return MessageBasis(n, d, group, multiplicities, walk, offsets, orbit_of, position, walk_orbit[order], place[order])


def encode_message(basis: MessageBasis, message_index: int) -> tuple[int, int, np.ndarray, np.ndarray]:
    """(mu, alpha, strings, amplitudes) of the message at the canonical position (mu ascending, then orbit).

    The strings are the state's support as ascending indices, each with its amplitude.
    """
    if not 0 <= message_index < len(basis):
        raise IndexError(f"message index {message_index} out of range 0..{len(basis) - 1}")
    strings, amplitudes, sizes = basis.support([message_index])
    mu = basis.n // int(sizes[0]) * int(basis.fourier[message_index])
    order = np.argsort(strings)
    return mu, message_index - sum(basis.multiplicities[:mu]), strings[order], amplitudes[order]


BASIS_JSON_CHUNK = 2048  # amplitude entries per piece of the JSON export (whole messages)

_CLOSE = "\n  },\n"  # ends the previous message; carried by the next message's header


def _digit_names(k: int, d: int, lead: str) -> np.ndarray:
    """``lead`` plus the name of each k-digit string, in index order, as an object array.

    A name is ``str(ColoredString)``: the digits joined, by commas beyond d = 10.
    """
    digits = (np.arange(d**k)[:, None] // kernels.digit_powers(k, d) % d).astype(str).tolist()
    return np.array([lead + ("" if d <= 10 else ",").join(row) for row in digits], dtype=object)


def basis_json_lines(basis: MessageBasis) -> Iterator[str]:
    """``json.dumps(payload, indent=1) + "\\n"`` in pieces, one per chunk of whole messages, streamed from the arrays.

    The payload holds ``group``, ``n``, ``d``, ``multiplicities`` and one entry
    per message: ``mu``, ``alpha`` and its amplitudes as ``basis_string``,
    ``re`` and ``im``, in lexicographic string order.  A piece is one join of
    preformatted parts: per message a header (the previous message's close,
    mu and alpha), and per amplitude entry its string's name, in two parts,
    and its (size, k, l) tail, which ends by opening the next entry or by
    closing the list.  The name's parts are the names of its first n - n // 2
    and its last n // 2 digits, looked up in two tables of about sqrt(d**n)
    names, so no d**n names are held.  Each tail and table name is formatted
    once.  A piece holds the messages that first reach ``BASIS_JSON_CHUNK``
    entries, so at most that plus n - 1.
    """
    head = {"group": basis.group.kind, "n": basis.n, "d": basis.d, "multiplicities": list(basis.multiplicities)}
    yield json.dumps(head, indent=1)[:-2] + ',\n "entries": [\n'
    sector_start = np.concatenate(([0], np.cumsum(basis.multiplicities)))
    starts = np.zeros(len(basis) + 1, dtype=np.int64)  # each message's first entry, then the total
    np.take(basis.sizes, basis.orbit, out=starts[1:], mode="clip")  # clip: an unbuffered ``out``
    np.cumsum(starts, out=starts)  # in place: one d**n array at a time
    members = basis.members
    low = basis.n // 2
    high_names = _digit_names(basis.n - low, basis.d, "")
    low_names = _digit_names(low, basis.d, "," if basis.d > 10 and low else "")
    values, start = basis._dft
    tail = [f'",\n     "re": {a.real!r},\n     "im": {a.imag!r}\n    }}' for a in values.tolist()]
    tails = np.array([t + ',\n    {\n     "basis_string": "' for t in tail] + [t + "\n   ]" for t in tail], dtype=object)
    a = 0
    while a < len(basis):
        e = min(int(np.searchsorted(starts, starts[a] + BASIS_JSON_CHUNK)), len(basis))
        orbit, fourier = basis.orbit[a:e], basis.fourier[a:e]
        sizes = basis.sizes[orbit]
        mu = basis.n // sizes * fourier
        alpha = np.arange(a, e) - sector_start[mu]
        first = starts[a:e] - starts[a]  # each message's first entry in the piece
        message = np.repeat(np.arange(e - a), sizes)
        rank = np.arange(starts[e] - starts[a]) - first[message]  # place of the entry in its message's support
        x = members[basis.offsets[orbit][message] + rank]
        last = rank == sizes[message] - 1
        pieces = np.empty(e - a + 3 * len(rank), dtype=object)
        pieces[first * 3 + np.arange(e - a)] = [
            f'{_CLOSE}  {{\n   "mu": {m},\n   "alpha": {i},\n   "amplitudes": [\n    {{\n     "basis_string": "'
            for m, i in zip(mu.tolist(), alpha.tolist())
        ]
        slot = message + 3 * np.arange(len(rank)) + 1
        high_digits, low_digits = np.divmod(x, len(low_names))
        pieces[slot] = high_names[high_digits]
        pieces[slot + 1] = low_names[low_digits]
        pieces[slot + 2] = tails[(start[sizes] + fourier * sizes)[message] + basis.position[x] + len(tail) * last]
        if a == 0:
            pieces[0] = pieces[0][len(_CLOSE) :]
        yield "".join(pieces.tolist())
        a = e
    yield "\n  }\n ]\n}\n"


def write_basis_json(basis: MessageBasis, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(basis_json_lines(basis))
