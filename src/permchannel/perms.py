"""Finite permutations, permutation groups, and their action on colored strings.

Conventions, fixed package-wide:

* ``p.images[i]`` is the image ``p(i)``.  Composition is left-to-right in the
  functional sense: ``(p * q)(i) == p(q(i))``, i.e. ``q`` acts first.  Both
  conventions exist in the wild; everything here assumes this one.
* A permutation moves the *content* of position ``j`` to position ``p(j)``:
  the moved string y has ``y[i] == x[p.inverse()(i)]``.  In index space that
  is ``kernels.move_indices(p.inverse().images, [x.index], d)``, or entry
  ``x.index`` of ``kernels.moved_values(arange(d**n), p.inverse().images, d)``.
* A length-``n`` string over ``{0..d-1}`` is identified with its base-``d``
  value, position 0 most significant.  Index order is therefore lexicographic
  order, and membership lookups are O(1).

A ``PermutationGroup`` is its image arrays: the ``(|G|, n)`` int64 array of
its sorted, distinct element rows and the ``(r, n)`` rows of its generators.
Every group algorithm reads or builds only such rows; the ``Permutation``
tuples ``elements`` and ``generators`` are views for callers, built from the
rows the first time they are read, and no group algorithm builds one.

* Closure (``generate_group``) is a breadth-first search by gathers: row
  ``p[g]`` is ``p * g``, so one gather takes the whole frontier through every
  generator, and a set of row keys dedupes the products, O(frontier * r) per
  round.  The search starts from each generator's powers, built by doubling,
  so a generator of large order needs no round per power.
* Sorting is one ``np.unique`` over row keys that order as the image
  tuples: a row's base-n value in one int64 up to degree 15, fixed-width
  bytes beyond; the named groups' rows come from modular arithmetic or
  ``itertools.permutations``, which already yields tuple order.
* Membership is one rank index: the keys of the sorted rows, so already
  ascending, and a row's rank is its binary-search position in them; -1
  marks a row that is no element.  ``in``, ``validate`` and every table of
  ranks read it.
* Conjugacy is one cached class index per group, each element's class,
  numbered by least member; ``conjugacy_classes`` and
  ``characters.CharacterTable`` both read it.  A class's members are built
  only when read.

Products, inverses, squares and conjugates of all elements are array
gathers, so for r generators:

* ``generate_group``: O(|G| * r) keyed products, one sort.
* ``validate``: distinct ascending rows, e in S, S * g within S for each
  generator g, and the span reaching |S| elements; O(|G| * r) rank lookups,
  not |G|**2 products.
* ``square_root_count``: one O(|G| * n) tally of all squares per group, then
  a lookup per call.
* ``conjugacy_classes``: r conjugation tables, O(|G| * r) per sweep, once per
  group; then one ``Permutation`` per class.
* ``stabilizer_orders``: counts the fixing elements of many strings by one
  comparison per block of elements, O(|G| * n) per string with no Python
  work per string.
* ``cycle_count_tally`` (the group averages): O(|G| * n log n), once per
  group for the elements and once for their squares.

No group operation builds an array with |G|**2 entries.

:func:`orbit_labels` (ascending representatives, each string's orbit) is the
one orbit labelling, memoised on the group per d.  ``kernels.orbit_reps``
gives each string its orbit's least member: the ``kernels.orbit_minima``
fixpoint run on the generators' n-point inverse-image rows, each label pull
one axis transpose of the int32 labels into a reused spare buffer and each
squared jump an n-point gather, so no d**n action table is built.
The strings that are their own minimum are the representatives; the orbits
are numbered by one scatter onto them and one gather through the minima,
written back into the minima: O(d**n), no sort, and ``orbit_of`` is int32
below 2**31 strings (``kernels.label_dtype``).
:func:`orbits`, the per-orbit multiplicities and the classical decoder and
certifier all read it.  :func:`orbits` returns an array-backed sequence: the
check that every orbit size divides |G| runs eagerly, ``len`` builds
nothing, and the members are grouped by one sort the first time an orbit is
read.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernels
from .errors import DegreeMismatchError, GroupSizeLimitError, StateSpaceBoundError

DEFAULT_MAX_GROUP_ORDER = 10**6
DEFAULT_MAX_STATES = 1 << 20
MAX_STABILIZER_BYTES = 1 << 16  # gathered symbols ``stabilizer_orders`` compares per block of elements (64 KiB)


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
        return kernels.permutation_order(self.images)

    def is_identity(self) -> bool:
        return all(img == i for i, img in enumerate(self.images))

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


def cycle_count(p: Permutation) -> int:
    """c(p): number of disjoint cycles, fixed points included."""
    return len(kernels.cycle_lengths(p.images))


def cycle_type(p: Permutation) -> tuple[tuple[int, int], ...]:
    """Cycle type as ``((length, multiplicity), ...)`` with lengths descending."""
    return tuple(sorted(Counter(kernels.cycle_lengths(p.images)).items(), reverse=True))


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
    """One key per image row, ordered as the image tuples.

    Up to degree 15, where n**n < 2**63, a row's key is its base-n value, one
    int64 with digit 0 most significant.  Beyond, it is a fixed-width byte
    string of big-endian 32-bit digits, which compare bytewise in numeric
    order.  Either way, sorting and ``searchsorted`` on the keys follow tuple
    order.
    """
    n = rows.shape[-1]
    if n**n < 2**63:  # n <= 15; exact integer matmul, and the empty row (n = 0) has key 0
        return rows @ n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    rows = np.ascontiguousarray(rows, dtype=">u4")
    return rows.view(f"V{4 * n}").reshape(rows.shape[:-1])


def _image_rows(perms: Sequence[Permutation], degree: int) -> np.ndarray:
    """(len(perms), degree) int64 array of the permutations' images."""
    return np.array([p.images for p in perms], dtype=np.int64).reshape(len(perms), degree)


@dataclass(frozen=True, eq=False)
class PermutationGroup:
    """A finite permutation group, stored as the image rows of its full, closed element list.

    ``images`` is the (|G|, n) int64 array of the elements' images, sorted by
    image tuple (so the identity is row 0), and ``generator_images`` the
    (r, n) rows of generators that must span the group: orbit enumeration
    and conjugacy-class sweeps only apply generators.  Both are read-only.
    ``elements`` and ``generators`` are ``Permutation`` tuples of the same
    rows, built on first read.

    ``_rank`` maps image rows back to row numbers by a binary search over
    the ascending row keys, and ``_class_index`` holds each row's conjugacy
    class, so products, inverses, squares and conjugates of all elements are
    array gathers.  Groups compare by identity.
    """

    degree: int
    images: np.ndarray
    generator_images: np.ndarray
    kind: str = "custom"

    def __post_init__(self):
        for name in ("images", "generator_images"):
            rows = np.asarray(getattr(self, name), dtype=np.int64).view()
            if rows.ndim != 2 or rows.shape[1] != self.degree:
                raise DegreeMismatchError(f"{name} of shape {rows.shape} do not have {self.degree} columns")
            rows.flags.writeable = False
            object.__setattr__(self, name, rows)

    @cached_property
    def elements(self) -> tuple[Permutation, ...]:
        return tuple(Permutation(tuple(row.tolist())) for row in self.images)  # a list of all rows would raise peak RSS

    @cached_property
    def generators(self) -> tuple[Permutation, ...]:
        return tuple(Permutation(tuple(row.tolist())) for row in self.generator_images)

    @cached_property
    def _keys(self) -> np.ndarray:
        """The row keys of ``images``, ascending since the rows are sorted by tuple."""
        return _row_keys(self.images)

    def _rank(self, rows: np.ndarray) -> np.ndarray:
        """Row number in ``images`` of each image row; -1 for a row that is no element."""
        if rows.shape[-1:] != (self.degree,):
            raise DegreeMismatchError(f"rows of shape {rows.shape} do not have {self.degree} columns")
        keys, probe = self._keys, _row_keys(rows)
        if not len(keys):
            return np.full(probe.shape, -1)
        pos = np.searchsorted(keys, probe).clip(max=len(keys) - 1)
        return np.where(keys[pos] == probe, pos, -1)

    @cached_property
    def _key_list(self) -> list[int]:
        """``_keys`` as Python ints, for :meth:`_rank_of` up to degree 15."""
        return self._keys.tolist()

    def _rank_of(self, p: Permutation) -> int:
        """Row number of one permutation in ``images``; -1 if it is no element.

        Up to degree 15 its base-n key is formed in Python and bisected in the
        key list, with no numpy call; beyond, and for a row of another degree,
        it goes through :meth:`_rank`.
        """
        n = self.degree
        if len(p.images) != n or n**n >= 2**63:
            return int(self._rank(np.array(p.images, dtype=np.int64))[()])
        key = 0
        for image in p.images:
            key = key * n + image
        keys = self._key_list
        rank = bisect.bisect_left(keys, key)
        return rank if rank < len(keys) and keys[rank] == key else -1

    @cached_property
    def _square_root_counts(self) -> np.ndarray:
        """Entry r: how many t in the set have t * t == images[r], from one tally of all squares."""
        squares = self._rank(np.take_along_axis(self.images, self.images, axis=1))
        return np.bincount(squares[squares >= 0], minlength=len(self))

    @cached_property
    def _cycle_count_tally(self) -> np.ndarray:
        """Read-only: entry c counts the elements with c cycles; one pass over the image array."""
        return _tally(_cycle_counts(self.images), self.degree)

    @cached_property
    def _square_cycle_count_tally(self) -> np.ndarray:
        """Read-only: entry c counts the elements whose square has c cycles."""
        return _tally(_cycle_counts(np.take_along_axis(self.images, self.images, axis=1)), self.degree)

    @cached_property
    def _class_index(self) -> np.ndarray:
        """(|G|,) int32, read-only: each row's conjugacy class, the classes numbered by least member.

        A class is an orbit of q -> g q g**-1 over the generators g.  Each
        generator gives one table of ranks, one gather over the image array;
        ``kernels.orbit_minima`` labels each row with its class's least row,
        and :func:`_numbered` numbers the classes in order: O(|G| * r) per
        sweep, no sort.
        """
        rows, gens = self.images, self.generator_images
        tables = [self._rank(g[rows[:, inv]]) for g, inv in zip(gens, np.argsort(gens, axis=1))]
        tables = np.array(tables, dtype=np.int64).reshape(len(tables), len(self))
        if (tables < 0).any():
            raise ValueError("a conjugate escapes the element set; the group is not closed")
        orders = [kernels.permutation_order(g) for g in gens]  # a multiple of each conjugation's order
        _least, class_of = _numbered(kernels.orbit_minima(tables, orders))
        class_of.flags.writeable = False
        return class_of

    @cached_property
    def _orbit_labels(self) -> dict:
        """:func:`orbit_labels` by alphabet size; they live as long as the group."""
        return {}

    @cached_property
    def _projector_geometry(self) -> dict:
        """``characters`` isotypic-projector index arrays by alphabet size; they live as long as the group."""
        return {}

    @cached_property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def __len__(self) -> int:
        return len(self.images)

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.elements)

    def __contains__(self, p: Permutation) -> bool:
        return isinstance(p, Permutation) and p.degree == self.degree and self._rank_of(p) >= 0

    def is_abelian(self) -> bool:
        gens = self.generator_images
        products = gens[:, gens]  # [a, b]: the images of generators[a] * generators[b]
        return np.array_equal(products, products.transpose(1, 0, 2))

    def validate(self) -> None:
        """Full group-axiom check by generator closure: O(|G| * r) for r generators.

        If the set S holds the identity and S * g lies in S for every
        generator g, every word in the generators lies in S.  If those words
        also reach all |S| elements, S is the group they span, hence closed
        under products and inverses.  The rows must be distinct and sorted
        by tuple, since a rank is a position in their keys; that is checked
        first.
        """
        keys = self._keys  # ranks are positions in these keys, so their order is checked first
        if (keys[1:] == keys[:-1]).any():
            raise ValueError("element list repeats a permutation")
        if (np.argsort(keys, kind="stable") != np.arange(len(keys))).any():  # linear on sorted keys
            raise ValueError("element rows are not in ascending order")
        identity = int(self._rank(np.arange(self.degree)))
        if identity < 0:
            raise ValueError("identity missing")
        # right[k, j]: rank of images[j] * generator_images[k], -1 where it escapes
        right = [self._rank(self.images[:, g]) for g in self.generator_images]
        right = np.array(right, dtype=np.int64).reshape(len(right), len(self))
        for g, moved in zip(self.generator_images, right):
            if (moved < 0).any():
                p = self.images[int(np.argmax(moved < 0))]
                raise ValueError(f"product {p.tolist()} * {g.tolist()} escapes the element set")
        minima = kernels.orbit_minima(right, [kernels.permutation_order(g) for g in self.generator_images])
        if np.count_nonzero(minima == minima[identity]) != len(self):
            raise ValueError("generators do not span the element set")


def _sorted_group(degree: int, rows: np.ndarray, generator_rows: np.ndarray, kind: str) -> PermutationGroup:
    """The group on the distinct rows of ``rows``, sorted by one ``np.unique`` of their keys."""
    _keys, first = np.unique(_row_keys(rows), return_index=True)
    return PermutationGroup(degree, rows[first], generator_rows, kind)


def _power_rows(g: Permutation, max_order: int) -> np.ndarray:
    """Image rows of g**0, ..., g**(k-1), k the order of g, by doubling.

    With the rows of g**j for j < m in hand and ``step`` the row of g**m,
    ``step[powers]`` holds g**(m+j): about log2(k) gathers in all.  An order
    above ``max_order`` raises ``GroupSizeLimitError``, since <g> lies in
    every group that contains g.
    """
    order = g.order()
    if order > max_order:
        raise GroupSizeLimitError(f"group closure exceeded {max_order} elements")
    powers = np.arange(g.degree, dtype=np.int64)[None]
    step = np.array(g.images, dtype=np.int64)
    while len(powers) < order:
        powers = np.concatenate([powers, step[powers[: order - len(powers)]]])
        step = step[step]
    return powers


def generate_group(
    generators: Iterable[Permutation],
    *,
    degree: int | None = None,
    max_order: int = DEFAULT_MAX_GROUP_ORDER,
    kind: str = "custom",
) -> PermutationGroup:
    """Smallest group containing the generators, by breadth-first search on image rows.

    The search starts from every generator's powers (:func:`_power_rows`),
    so a generator of large order, whose Cayley graph has a long diameter,
    costs log2 of its order in gathers rather than one round per power.
    Row ``p[g]`` is ``p * g``, so each round gathers the whole frontier
    through every generator row at once.  A set of row keys dedupes the
    products, so a round costs O(frontier * r) for r generators whatever
    the number of elements found so far, and each element is kept once.
    One ``np.unique`` sorts the result.  An order above ``max_order`` raises
    ``GroupSizeLimitError``.
    """
    gens = list(generators)
    if degree is None:
        if not gens:
            raise ValueError("degree is required for an empty generator list")
        degree = gens[0].degree
    for g in gens:
        if g.degree != degree:
            raise DegreeMismatchError(f"generator degree {g.degree} != {degree}")
    gen_rows = _image_rows(gens, degree)
    seen = set()

    def unseen(rows: np.ndarray) -> np.ndarray:
        """The rows whose keys are not in ``seen`` yet, each once; records them."""
        keep = []
        for i, key in enumerate(_row_keys(rows).tolist()):
            if key not in seen:
                seen.add(key)
                keep.append(i)
        if len(seen) > max_order:
            raise GroupSizeLimitError(f"group closure exceeded {max_order} elements")
        return rows[keep]

    seeds = [np.arange(degree, dtype=np.int64)[None]] + [_power_rows(g, max_order) for g in gens]
    layers = [unseen(np.concatenate(seeds))]
    while len(layers[-1]):
        layers.append(unseen(layers[-1][:, gen_rows].reshape(len(layers[-1]) * len(gens), degree)))
    return _sorted_group(degree, np.concatenate(layers), gen_rows, kind)


def make_named_group(kind: str, n: int, *, max_order: int = DEFAULT_MAX_GROUP_ORDER) -> PermutationGroup:
    """Cyclic (order n), dihedral (order 2n, n >= 3) or symmetric (order n!) group.

    Rotation row k is i -> (i + k) mod n and reflection row k, the reflection
    times rotation k, is i -> (-i - k) mod n.  The symmetric group's rows come
    from ``itertools.permutations``, already in image-tuple order.

    The dihedral group acts faithfully on positions only for n >= 3; for
    n in {1, 2} the image of the rotation/reflection generators inside S_n is
    returned (kind "custom"), which averages to the same channel counts.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rotation = Permutation(tuple((i + 1) % n for i in range(n)))
    steps = np.arange(n, dtype=np.int64)
    if kind == "cyclic":
        if n > max_order:
            raise GroupSizeLimitError(f"cyclic order {n} exceeds {max_order}")
        rows = (steps + steps[:, None]) % n  # row k starts at k: sorted
        return PermutationGroup(n, rows, _image_rows([rotation], n), "cyclic")
    if kind == "dihedral":
        reflection = Permutation(tuple((n - i) % n for i in range(n)))
        if n < 3:
            return generate_group([rotation, reflection], degree=n, max_order=max_order)
        if 2 * n > max_order:
            raise GroupSizeLimitError(f"dihedral order {2 * n} exceeds {max_order}")
        rows = np.concatenate([steps + steps[:, None], -steps - steps[:, None]]) % n
        return _sorted_group(n, rows, _image_rows([rotation, reflection], n), "dihedral")
    if kind == "symmetric":
        if math.factorial(n) > max_order:
            raise GroupSizeLimitError(f"symmetric order {n}! exceeds {max_order}")
        images = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(n))), np.int64).reshape(-1, n)
        gens = [Permutation.from_cycles([(0, 1)], n), rotation] if n >= 2 else []
        return PermutationGroup(n, images, _image_rows(gens, n), "symmetric")
    raise ValueError(f"unknown group kind {kind!r}")


@dataclass(frozen=True, eq=False)
class Orbit:
    """One equivalence class of strings under the group action.

    ``member_indices`` is ascending, so ``member_indices[0]`` is the
    lexicographically minimal member (the canonical representative).
    ``stabilizer_order`` is |G| / size; :func:`stabilizer_orders` counts the
    fixing elements directly.
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
    ``orbit_of[reps[j]] == j``.  ``kernels.orbit_reps`` labels each string
    with its orbit's least member, by axis transposes along the generators;
    a representative is a string that is its own label, and the orbits are
    numbered by one scatter of ``arange(R)`` onto the R representatives and
    one gather through the labels (:func:`_numbered`), so the labelling
    costs O(d**n) with no sort.  ``reps`` is int64 and ``orbit_of`` of
    ``kernels.label_dtype(d**n)``: int32 below 2**31 strings.  Memoised on
    the group by d (read-only arrays); the d**n bound is checked on every
    call.
    """
    n = group.degree
    if d < 1:
        raise ValueError(f"alphabet size must be >= 1, got {d}")
    if d**n > max_states:
        raise StateSpaceBoundError(f"d**n = {d**n} exceeds the bound {max_states}")
    labels = group._orbit_labels
    if d not in labels:
        reps, orbit_of = _numbered(kernels.orbit_reps(np.argsort(group.generator_images, axis=1), n, d))
        reps.flags.writeable = orbit_of.flags.writeable = False
        labels[d] = reps, orbit_of
    return labels[d]


def _numbered(minima: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(least, number): the points that are their own orbit minimum, ascending, and each point's orbit index.

    One scatter of ``arange(R)`` onto the R least points and one gather
    through the minima, written back into ``minima`` chunk by chunk:
    O(len(minima)), no sort, and the numbers keep the minima's dtype.
    """
    least = np.flatnonzero(minima == np.arange(len(minima), dtype=minima.dtype))
    number = np.empty_like(minima)
    number[least] = np.arange(len(least))
    return least, kernels.take_chunked(number, minima, minima)


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
    sizes = kernels.label_counts(orbit_of, len(reps))
    if (len(group) % sizes).any():
        raise ValueError("orbit size does not divide the group order; group is not closed")
    return Orbits(orbit_of, sizes, group.degree, d, len(group))


def stabilizer_orders(group: PermutationGroup, strings, d: int) -> np.ndarray:
    """The stabilizer order of each string index x: the elements with x[p(j)] == x[j] for every j, counted.

    The strings' symbol rows (uint8 below d = 257) are compared with their
    own gathers under a block of elements at once, ``sym[:, images] ==
    sym[:, None, :]``, and the all-equal rows counted per string; each block
    holds at most ``MAX_STABILIZER_BYTES`` symbols.
    """
    strings = np.asarray(strings, dtype=np.int64)
    sym = (strings[:, None] // kernels.digit_powers(group.degree, d) % d).astype(np.min_scalar_type(d - 1))
    orders = np.zeros(len(strings), dtype=np.int64)
    step = max(1, MAX_STABILIZER_BYTES // max(1, sym.size))
    for start in range(0, len(group), step):
        orders += (np.take(sym, group.images[start : start + step], axis=1) == sym[:, None, :]).all(axis=2).sum(axis=1)
    return orders


@dataclass(frozen=True)
class ConjugacyClass:
    """A conjugacy class by its least member; ``members``, ascending, are built from its rows on first read."""

    representative: Permutation
    partition: tuple[tuple[int, int], ...]
    size: int
    _group: PermutationGroup = field(repr=False, compare=False)
    _ranks: np.ndarray = field(repr=False, compare=False)  # the members' rows in ``_group.images``, ascending

    @cached_property
    def members(self) -> tuple[Permutation, ...]:
        return tuple(Permutation(tuple(row)) for row in self._group.images[self._ranks].tolist())


def conjugacy_classes(group: PermutationGroup) -> list[ConjugacyClass]:
    """Conjugacy classes, ordered by minimal member (identity class first).

    One stable argsort of the group's cached class index groups the rows by
    class, ascending within each, so class i's first row is its least
    member.  Only the representatives are built as ``Permutation`` items.
    """
    by_class = np.argsort(group._class_index, kind="stable")
    sizes = np.bincount(group._class_index).tolist()
    classes, start = [], 0
    for size in sizes:
        ranks = by_class[start : start + size]
        representative = Permutation(tuple(group.images[ranks[0]].tolist()))
        classes.append(ConjugacyClass(representative, cycle_type(representative), size, group, ranks))
        start += size
    return classes


def square_root_count(group: PermutationGroup, p: Permutation) -> int:
    """Number of tau in G with tau * tau == p; constant on conjugacy classes.

    All squares are tallied once per group, so each call is one lookup.
    """
    rank = group._rank_of(p) if isinstance(p, Permutation) and p.degree == group.degree else -1
    if rank < 0:
        raise ValueError(f"{p} is not an element of the group")
    return int(group._square_root_counts[rank])


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


def _tally(cycle_counts: np.ndarray, degree: int) -> np.ndarray:
    tally = np.bincount(cycle_counts, minlength=degree + 1)
    tally.flags.writeable = False
    return tally


def cycle_count_tally(group: PermutationGroup, *, squares: bool = False) -> list[int]:
    """tally[c]: how many sigma in G have c(sigma) == c, or c(sigma * sigma) == c with ``squares``.

    One pass over the image array, O(|G| * n log n), cached on the group; a
    group average of f(c(sigma)) is then a sum of at most n + 1 exact integer
    terms.
    """
    return (group._square_cycle_count_tally if squares else group._cycle_count_tally).tolist()


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
