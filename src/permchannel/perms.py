"""Finite permutations, permutation groups, and their action on colored strings.

Conventions, fixed package-wide:

* ``p.images[i]`` is the image ``p(i)``.  Composition is left-to-right in the
  functional sense: ``(p * q)(i) == p(q(i))``, i.e. ``q`` acts first.  Both
  conventions exist in the wild; everything here assumes this one.
* A permutation moves the *content* of position ``j`` to position ``p(j)``:
  the moved string y has ``y[i] == x[p.inverse()(i)]``.  In index space that
  is ``kernels.move_indices(p.inverse().images, [x.index], d)``, or entry
  ``x.index`` of ``kernels.action_table(p.inverse().images, d)``.
* A length-``n`` string over ``{0..d-1}`` is identified with its base-``d``
  value, position 0 most significant.  Index order is therefore lexicographic
  order, and membership lookups are O(1).

A ``PermutationGroup`` keeps its ``Permutation`` tuple for callers, but does
its group work on one cached ``(|G|, n)`` int64 image array with a rank index
(the rows' keys sorted once; a row's rank is a binary search).  Products,
inverses, squares and conjugates of all elements are array gathers, so for r
generators:

* ``validate``: e in S, S * g within S for each generator g, and the span
  reaching |S| elements; O(|G| * r) rank lookups, not |G|**2 products.
* ``square_root_count``: one O(|G| * n) tally of all squares per group, then
  a lookup per call.
* ``conjugacy_classes``: r conjugation tables, O(|G| * r) per sweep.
* ``stabilizer``: one O(|G| * n) gather per string.
* ``cycle_count_tally`` (the group averages): O(|G| * n log n).

No group operation builds an array with |G|**2 entries.

:func:`orbit_labels` (ascending representatives, each string's orbit) is the
one orbit labelling, memoised on the group per d.  It numbers the orbits from
``kernels.orbit_minima`` by a running count of the strings that are their own
minimum: O(d**n), no sort.  :func:`orbits`, the per-orbit multiplicities and
the classical decoder and certifier all read it.  :func:`orbits` returns an
array-backed sequence: the check that every orbit size divides |G| runs
eagerly, ``len`` builds nothing, and the members are grouped by one sort the
first time an orbit is read.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .errors import DegreeMismatchError, GroupSizeLimitError, StateSpaceBoundError

DEFAULT_MAX_GROUP_ORDER = 10**6
DEFAULT_MAX_STATES = 1 << 20


@dataclass(frozen=True, order=True)
class Permutation:
    """A permutation of ``{0, ..., n-1}`` stored by its image tuple."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a permutation of 0..{len(self.images) - 1}: {self.images}")

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))

    @staticmethod
    def from_cycles(cycles: Iterable[Sequence[int]], n: int) -> "Permutation":
        """Build from disjoint cycles; points not mentioned are fixed."""
        images = list(range(n))
        seen: set[int] = set()
        for cycle in cycles:
            for a in cycle:
                if a in seen:
                    raise ValueError(f"cycles are not disjoint at point {a}")
                seen.add(a)
            for a, b in zip(cycle, tuple(cycle[1:]) + (cycle[0],)):
                images[a] = b
        return Permutation(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise DegreeMismatchError(f"degree {self.degree} != {other.degree}")
        return Permutation(tuple(self.images[other.images[i]] for i in range(self.degree)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, img in enumerate(self.images):
            inv[img] = i
        return Permutation(tuple(inv))

    def __pow__(self, k: int) -> "Permutation":
        base = self if k >= 0 else self.inverse()
        result = Permutation.identity(self.degree)
        for _ in range(abs(k)):
            result = base * result
        return result

    def order(self) -> int:
        return math.lcm(*(len(c) for c in cycle_decomposition(self).cycles))

    def is_identity(self) -> bool:
        return all(img == i for i, img in enumerate(self.images))

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


@dataclass(frozen=True)
class CycleDecomposition:
    """Disjoint cycles of a permutation, fixed points kept as 1-cycles."""

    cycles: tuple[tuple[int, ...], ...]
    cycle_counts: dict[int, int]
    total_cycles: int

    def count(self, k: int) -> int:
        return self.cycle_counts.get(k, 0)


def cycle_decomposition(p: Permutation) -> CycleDecomposition:
    """Unique disjoint-cycle decomposition; cycles start and are ordered by their minimum."""
    n = p.degree
    seen = [False] * n
    cycles = []
    for start in range(n):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        j = p(start)
        while j != start:
            cycle.append(j)
            seen[j] = True
            j = p(j)
        cycles.append(tuple(cycle))
    counts: dict[int, int] = {}
    for c in cycles:
        counts[len(c)] = counts.get(len(c), 0) + 1
    return CycleDecomposition(tuple(cycles), counts, len(cycles))


def cycle_count(p: Permutation) -> int:
    """c(p): number of disjoint cycles, fixed points included."""
    return cycle_decomposition(p).total_cycles


def cycle_type(p: Permutation) -> tuple[tuple[int, int], ...]:
    """Cycle type as ``((length, multiplicity), ...)`` with lengths descending."""
    counts = cycle_decomposition(p).cycle_counts
    return tuple(sorted(counts.items(), reverse=True))


@dataclass(frozen=True, order=True)
class ColoredString:
    """A length-``n`` string over the alphabet ``{0..d-1}``."""

    symbols: tuple[int, ...]
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("alphabet size must be >= 1")
        if any(not 0 <= s < self.d for s in self.symbols):
            raise ValueError(f"symbols {self.symbols} out of range for d={self.d}")

    @property
    def n(self) -> int:
        return len(self.symbols)

    @property
    def index(self) -> int:
        """Base-``d`` value, position 0 most significant."""
        ix = 0
        for s in self.symbols:
            ix = ix * self.d + s
        return ix

    @staticmethod
    def from_index(ix: int, n: int, d: int) -> "ColoredString":
        symbols = [0] * n
        for i in range(n - 1, -1, -1):
            symbols[i] = ix % d
            ix //= d
        return ColoredString(tuple(symbols), d)

    @staticmethod
    def parse(text: str, d: int) -> "ColoredString":
        parts = text.split(",") if "," in text else list(text)
        return ColoredString(tuple(int(c) for c in parts), d)

    def __str__(self) -> str:
        if self.d <= 10:
            return "".join(str(s) for s in self.symbols)
        return ",".join(str(s) for s in self.symbols)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One fixed-width byte string per image row, ordered as the image tuples.

    Big-endian 32-bit digits compare bytewise in numeric order, so sorting
    and ``searchsorted`` on the keys follow tuple order for any degree.
    """
    rows = np.ascontiguousarray(rows, dtype=">u4")
    if not rows.shape[-1]:  # degree 0: every row is the empty permutation
        rows = np.zeros(rows.shape[:-1] + (1,), dtype=">u4")
    return rows.view(f"V{4 * rows.shape[-1]}").reshape(rows.shape[:-1])


@dataclass(frozen=True)
class PermutationGroup:
    """A finite permutation group given by its full, closed element list.

    ``elements`` is sorted by image tuple (so the identity comes first) and
    ``generators`` must span the group: orbit enumeration and conjugacy-class
    sweeps only apply generators.

    Group work runs on one cached ``(|G|, n)`` int64 image array whose row r
    is ``elements[r]``; ``_rank`` maps image rows back to row numbers by a
    binary search over sorted row keys.  Products, inverses, squares and
    conjugates of all elements are then array gathers, never pairwise
    ``Permutation`` products.
    """

    degree: int
    elements: tuple[Permutation, ...]
    generators: tuple[Permutation, ...]
    kind: str = "custom"

    def __post_init__(self):
        for p in itertools.chain(self.elements, self.generators):
            if p.degree != self.degree:
                raise DegreeMismatchError(f"element degree {p.degree} != group degree {self.degree}")

    @cached_property
    def _element_set(self) -> frozenset[Permutation]:
        return frozenset(self.elements)

    @cached_property
    def _images(self) -> np.ndarray:
        """(|G|, n) int64 array, row r holding ``elements[r].images``."""
        rows = [p.images for p in self.elements]
        return np.array(rows, dtype=np.int64).reshape(len(rows), self.degree)

    @cached_property
    def _index(self) -> tuple[np.ndarray, np.ndarray]:
        """Row keys in ascending order, and the row number of each."""
        keys = _row_keys(self._images)
        order = np.argsort(keys, kind="stable")
        return keys[order], order

    def _rank(self, rows: np.ndarray) -> np.ndarray:
        """Row number in ``elements`` of each image row; -1 for a row that is no element."""
        keys, order = self._index
        probe = _row_keys(rows)
        pos = np.searchsorted(keys, probe).clip(max=len(keys) - 1)
        return np.where(keys[pos] == probe, order[pos], -1)

    def _rank_of(self, p: Permutation) -> int:
        return int(self._rank(np.array(p.images, dtype=np.int64))[()])

    @cached_property
    def _square_root_counts(self) -> np.ndarray:
        """Entry r: how many t in the set have t * t == elements[r], from one tally of all squares."""
        squares = self._rank(np.take_along_axis(self._images, self._images, axis=1))
        return np.bincount(squares[squares >= 0], minlength=len(self.elements))

    @cached_property
    def _orbit_labels(self) -> dict:
        """:func:`orbit_labels` by alphabet size; they live as long as the group."""
        return {}

    @cached_property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.elements)

    def __contains__(self, p: Permutation) -> bool:
        return p in self._element_set

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(a * b == b * a for a in gens for b in gens)

    def validate(self) -> None:
        """Full group-axiom check by generator closure: O(|G| * r) for r generators.

        If the set S holds the identity and S * g lies in S for every
        generator g, every word in the generators lies in S.  If those words
        also reach all |S| elements, S is the group they span, hence closed
        under products and inverses.
        """
        if self.identity not in self._element_set:
            raise ValueError("identity missing")
        if len(self._element_set) != len(self.elements):
            raise ValueError("element list repeats a permutation")
        # right[k, j]: rank of elements[j] * generators[k], -1 where it escapes
        right = [self._rank(self._images[:, g.images]) for g in self.generators]
        right = np.array(right, dtype=np.int64).reshape(len(right), len(self))
        for g, moved in zip(self.generators, right):
            if (moved < 0).any():
                p = self.elements[int(np.argmax(moved < 0))]
                raise ValueError(f"product {p} * {g} escapes the element set")
        minima = kernels.orbit_minima(right)
        if np.count_nonzero(minima == minima[self._rank_of(self.identity)]) != len(self.elements):
            raise ValueError("generators do not span the element set")


def _sorted_group(degree, elements, generators, kind) -> PermutationGroup:
    return PermutationGroup(degree, tuple(sorted(set(elements))), tuple(generators), kind)


def generate_group(
    generators: Iterable[Permutation],
    *,
    degree: int | None = None,
    max_order: int = DEFAULT_MAX_GROUP_ORDER,
    kind: str = "custom",
) -> PermutationGroup:
    """Smallest group containing the generators, by breadth-first saturation."""
    gens = list(generators)
    if degree is None:
        if not gens:
            raise ValueError("degree is required for an empty generator list")
        degree = gens[0].degree
    for g in gens:
        if g.degree != degree:
            raise DegreeMismatchError(f"generator degree {g.degree} != {degree}")
    identity = Permutation.identity(degree)
    elements = {identity}
    frontier = [identity]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = p * g
            if q not in elements:
                if len(elements) >= max_order:
                    raise GroupSizeLimitError(f"group closure exceeded {max_order} elements")
                elements.add(q)
                frontier.append(q)
    return _sorted_group(degree, elements, gens, kind)


def make_named_group(kind: str, n: int, *, max_order: int = DEFAULT_MAX_GROUP_ORDER) -> PermutationGroup:
    """Cyclic (order n), dihedral (order 2n, n >= 3) or symmetric (order n!) group.

    The dihedral group acts faithfully on positions only for n >= 3; for
    n in {1, 2} the image of the rotation/reflection generators inside S_n is
    returned (kind "custom"), which averages to the same channel counts.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rotation = Permutation(tuple((i + 1) % n for i in range(n)))
    rotations = [Permutation.identity(n)]
    for _ in range(n - 1):
        rotations.append(rotation * rotations[-1])
    if kind == "cyclic":
        if n > max_order:
            raise GroupSizeLimitError(f"cyclic order {n} exceeds {max_order}")
        return _sorted_group(n, rotations, (rotation,), "cyclic")
    if kind == "dihedral":
        reflection = Permutation(tuple((n - i) % n for i in range(n)))
        if n < 3:
            return generate_group([rotation, reflection], degree=n, max_order=max_order)
        if 2 * n > max_order:
            raise GroupSizeLimitError(f"dihedral order {2 * n} exceeds {max_order}")
        elements = rotations + [reflection * r for r in rotations]
        return _sorted_group(n, elements, (rotation, reflection), "dihedral")
    if kind == "symmetric":
        if math.factorial(n) > max_order:
            raise GroupSizeLimitError(f"symmetric order {n}! exceeds {max_order}")
        elements = [Permutation(images) for images in itertools.permutations(range(n))]
        gens = (Permutation.from_cycles([(0, 1)], n), rotation) if n >= 2 else ()
        return _sorted_group(n, elements, gens, "symmetric")
    raise ValueError(f"unknown group kind {kind!r}")


@dataclass(frozen=True, eq=False)
class Orbit:
    """One equivalence class of strings under the group action.

    ``member_indices`` is ascending, so ``member_indices[0]`` is the
    lexicographically minimal member (the canonical representative).
    ``stabilizer_order`` is |G| / size; the explicit stabilizer subgroup is
    computed independently by :func:`stabilizer`.
    """

    index: int
    member_indices: np.ndarray
    n: int
    d: int
    size: int
    stabilizer_order: int

    @property
    def representative(self) -> ColoredString:
        return ColoredString.from_index(int(self.member_indices[0]), self.n, self.d)

    @property
    def members(self) -> tuple[ColoredString, ...]:
        return tuple(ColoredString.from_index(int(ix), self.n, self.d) for ix in self.member_indices)

    def __repr__(self) -> str:
        return f"Orbit({self.index}, rep={self.representative}, size={self.size})"


def orbit_labels(
    group: PermutationGroup, d: int, *, max_states: int = DEFAULT_MAX_STATES
) -> tuple[np.ndarray, np.ndarray]:
    """(reps, orbit_of): the orbits' least indices, ascending, and each string's orbit.

    Orbit j is the j-th in representative order, as in :func:`orbits`, so
    ``orbit_of[reps[j]] == j``.  ``kernels.orbit_minima`` labels each string
    with its orbit's least member; a representative is a string that is its
    own label, and a running count of those numbers the orbits in order, so
    the labelling costs O(d**n) with no sort.  Memoised on the group by d
    (read-only arrays); the d**n bound is checked on every call.
    """
    n = group.degree
    if d**n > max_states:
        raise StateSpaceBoundError(f"d**n = {d**n} exceeds the bound {max_states}")
    labels = group._orbit_labels
    if d not in labels:
        invs = np.array([g.inverse().images for g in group.generators], dtype=np.int64).reshape(-1, n)
        minima = kernels.orbit_reps(invs, n, d)
        is_rep = minima == np.arange(len(minima))
        reps = np.flatnonzero(is_rep)
        orbit_of = (np.cumsum(is_rep) - 1)[minima]
        reps.flags.writeable = orbit_of.flags.writeable = False
        labels[d] = reps, orbit_of
    return labels[d]


class Orbits(Sequence):
    """The orbits of :func:`orbits` as a read-only sequence, built from the labels on demand.

    ``len`` reads the orbit sizes and builds nothing.  The members of every
    orbit are grouped by one stable argsort of ``orbit_of`` the first time an
    orbit is read; each item is then a fresh :class:`Orbit` whose
    ``member_indices`` is an ascending view into that grouping.
    """

    def __init__(self, orbit_of: np.ndarray, sizes: np.ndarray, n: int, d: int, group_order: int):
        self._orbit_of = orbit_of
        self._sizes = sizes
        self._n = n
        self._d = d
        self._group_order = group_order

    def __len__(self) -> int:
        return len(self._sizes)

    @cached_property
    def _grouped(self) -> tuple[np.ndarray, list[int]]:
        """All strings grouped by orbit, ascending within each, and the offset of each orbit."""
        members = np.argsort(self._orbit_of, kind="stable")
        return members, [0] + np.cumsum(self._sizes).tolist()

    def _orbit(self, j: int) -> Orbit:
        members, offsets = self._grouped
        size = offsets[j + 1] - offsets[j]
        return Orbit(j, members[offsets[j] : offsets[j + 1]], self._n, self._d, size, self._group_order // size)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return [self._orbit(i) for i in range(*j.indices(len(self)))]
        j = operator.index(j)
        if not -len(self) <= j < len(self):
            raise IndexError(f"orbit index {j} out of range for {len(self)} orbits")
        return self._orbit(j % len(self))

    def __iter__(self) -> Iterator[Orbit]:
        return map(self._orbit, range(len(self)))


def orbits(group: PermutationGroup, d: int, *, max_states: int = DEFAULT_MAX_STATES) -> Orbits:
    """All orbits of the group action on d**n strings, ordered by representative.

    The sequence holds :func:`orbit_labels` and the orbit sizes (one
    ``bincount``); members are grouped the first time an orbit is read.  The
    check that every orbit size divides |G| runs here, before any item is read.
    """
    reps, orbit_of = orbit_labels(group, d, max_states=max_states)
    sizes = np.bincount(orbit_of, minlength=len(reps))
    if (len(group) % sizes).any():
        raise ValueError("orbit size does not divide the group order; group is not closed")
    return Orbits(orbit_of, sizes, group.degree, d, len(group))


def stabilizer(group: PermutationGroup, x: ColoredString) -> PermutationGroup:
    """Subgroup of elements fixing the string x: those with x[p(j)] == x[j] for every j."""
    if group.degree != x.n:
        raise DegreeMismatchError(f"group degree {group.degree} != string length {x.n}")
    symbols = np.array(x.symbols, dtype=np.int64)
    fixes = (symbols[group._images] == symbols).all(axis=1)
    fixed = [group.elements[r] for r in np.flatnonzero(fixes).tolist()]
    return _sorted_group(group.degree, fixed, fixed, "custom")


@dataclass(frozen=True)
class ConjugacyClass:
    representative: Permutation
    members: tuple[Permutation, ...]
    partition: tuple[tuple[int, int], ...]
    size: int


def conjugacy_classes(group: PermutationGroup) -> list[ConjugacyClass]:
    """Conjugacy classes, ordered by minimal member (identity class first).

    A class is an orbit of q -> g q g**-1 over the generators g.  Each
    generator gives one table of ranks, one gather over the image array, and
    the classes are the orbits of those tables: O(|G| * r) per sweep.
    """
    rows = group._images
    tables = []
    for g in group.generators:
        conjugates = np.array(g.images, dtype=np.int64)[rows[:, g.inverse().images]]
        tables.append(group._rank(conjugates))
    tables = np.array(tables, dtype=np.int64).reshape(len(tables), len(group))
    if (tables < 0).any():
        raise ValueError("a conjugate escapes the element set; the group is not closed")
    minima = kernels.orbit_minima(tables)
    by_class = np.argsort(minima, kind="stable")
    starts = np.flatnonzero(np.diff(minima[by_class])) + 1
    classes = []
    for ranks in np.split(by_class, starts):
        members = tuple(group.elements[r] for r in ranks.tolist())
        classes.append(
            ConjugacyClass(
                representative=members[0],
                members=members,
                partition=cycle_type(members[0]),
                size=len(members),
            )
        )
    return classes


def square_root_count(group: PermutationGroup, p: Permutation) -> int:
    """Number of tau in G with tau * tau == p; constant on conjugacy classes.

    All squares are tallied once per group, so each call is one lookup.
    """
    if p not in group:
        raise ValueError(f"{p} is not an element of the group")
    return int(group._square_root_counts[group._rank_of(p)])


def _cycle_counts(rows: np.ndarray) -> np.ndarray:
    """Cycle count of each image row, fixed points included.

    A cycle is counted at its least point.  After k rounds ``least`` holds
    the least point within 2**k steps and ``jump`` the 2**k-th image, so
    ceil(log2 n) rounds of gathers cover every cycle.
    """
    points = np.arange(rows.shape[1])
    least, jump = np.broadcast_to(points, rows.shape), rows
    for _ in range(max(rows.shape[1] - 1, 0).bit_length()):
        least = np.minimum(least, np.take_along_axis(least, jump, axis=1))
        jump = np.take_along_axis(jump, jump, axis=1)
    return np.count_nonzero(least == points, axis=1)


def cycle_count_tally(group: PermutationGroup, *, squares: bool = False) -> list[int]:
    """tally[c]: how many sigma in G have c(sigma) == c, or c(sigma * sigma) == c with ``squares``.

    One pass over the image array, O(|G| * n log n); a group average of
    f(c(sigma)) is then a sum of at most n + 1 exact integer terms.
    """
    rows = group._images
    if squares:
        rows = np.take_along_axis(rows, rows, axis=1)
    return np.bincount(_cycle_counts(rows), minlength=group.degree + 1).tolist()


def parse_group_file(text: str, *, max_order: int = DEFAULT_MAX_GROUP_ORDER) -> PermutationGroup:
    """Group from generator lines in one-line image notation.

    Each non-comment line holds "p(0) p(1) ... p(n-1)" (space-separated
    decimal); lines starting with '#' are ignored.
    """
    gens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            images = tuple(int(tok) for tok in line.split())
            gens.append(Permutation(images))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    if not gens:
        raise ValueError("no permutations found in group file")
    return generate_group(gens, max_order=max_order)


def load_group_file(path, *, max_order: int = DEFAULT_MAX_GROUP_ORDER) -> PermutationGroup:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_group_file(fh.read(), max_order=max_order)
