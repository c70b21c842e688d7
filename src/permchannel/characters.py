"""Character tables and representation-theoretic oracles for small groups.

This module is the independent cross-check for every counting formula in the
package: irrep multiplicities in the position representation on ``(C^d)^n``
give the ancilla-free and ancilla-assisted message counts directly, and
Frobenius-Schur indicators certify whether the squared-cycle closed form is
applicable at all.

A group with a generator of order |G| is cyclic, and its table is the exact
closed form: powers of a primitive |G|-th root of unity on the powers of
that generator, with no eigensolver and no LAPACK call.  Every other table
comes from simultaneous diagonalization of the class-sum matrices: a random
real linear combination of them, built column by column in k**2 memory for
k classes, is diagonalized and its eigenvectors, normalized on the identity
class, yield the characters.  The weights of attempt a are Gaussian draws
from the standard library's ``random.Random(EIGEN_SEED + a)``, so a table
never imports ``numpy.random``.  Degenerate eigenvalues trigger a retry with
a fresh combination.  For an abelian group the values are then snapped to
the exact roots of unity of the group's exponent and the rows ordered by
their exponents on the generators.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (
    CharacterTableError,
    GroupSizeLimitError,
    MultiplicityRoundingError,
    StateSpaceBoundError,
)
from .perms import (
    DEFAULT_MAX_STATES,
    ConjugacyClass,
    PermutationGroup,
    conjugacy_classes,
    cycle_count,
    orbit_labels,
)

DEFAULT_MAX_GROUP_ORDER = 5040
DEFAULT_MAX_PROJECTOR_DIM = 4096
ORTHOGONALITY_TOL = 1e-9
INDICATOR_TOL = 1e-9  # largest distance of a Frobenius-Schur indicator from -1, 0 or +1
LEVEL_SUM_TOL = 1e-6  # largest distance of a multiplicity's level sum from an integer
EIGEN_SEED = 0  # the eigensolver's first random class-sum combination
MAX_RETRIES = 12  # fresh combinations tried before a degeneracy is reported

_QUARTER_TURNS = {(0, 1): 1.0 + 0.0j, (1, 2): -1.0 + 0.0j, (1, 4): 1.0j, (3, 4): -1.0j}


def unit_root(m: int, t: int) -> complex:
    """exp(2*pi*i*t/m), exact at multiples of a quarter turn."""
    t %= m
    g = math.gcd(t, m) if t else m
    reduced = (t // g, m // g)
    if reduced in _QUARTER_TURNS:
        return _QUARTER_TURNS[reduced]
    return cmath.exp(2j * cmath.pi * t / m)


@dataclass(frozen=True)
class Irrep:
    label: str
    dim: int
    values: tuple[complex, ...]  # one character value per conjugacy class


@dataclass(frozen=True, eq=False)
class CharacterTable:
    group: PermutationGroup
    classes: tuple[ConjugacyClass, ...]
    irreps: tuple[Irrep, ...]
    group_order: int

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(ir.dim for ir in self.irreps)

    @property
    def class_sizes(self) -> tuple[int, ...]:
        return tuple(c.size for c in self.classes)

    def class_index_of(self, p) -> int:
        rank = self.group._rank_of(p)
        if rank < 0:
            raise KeyError(p)
        return int(self.class_index[rank])

    @property
    def class_index(self) -> np.ndarray:
        """(|G|,) int32, read-only: the class index of each element, in ``group.images`` row order.

        This is the group's cached class index, which also orders ``classes``.
        """
        return self.group._class_index

    def character(self, mu: int, p) -> complex:
        return self.irreps[mu].values[self.class_index_of(p)]

    def value_matrix(self) -> np.ndarray:
        return np.array([ir.values for ir in self.irreps])


@dataclass(frozen=True)
class FSIndicators:
    """Frobenius-Schur indicators, one per irrep: +1 real, 0 complex, -1 quaternionic."""

    values: tuple[int, ...]
    max_residual: float


@dataclass(frozen=True)
class MultiplicityVector:
    """Irrep multiplicities of the position representation on (C^d)^n."""

    values: tuple[int, ...]
    by_orbit: tuple[tuple[int, ...], ...] | None = None


def _validation_residual(table: CharacterTable) -> float:
    """Max deviation from the character-table invariants (0 means perfect)."""
    k = len(table.classes)
    if len(table.irreps) != k:
        return math.inf
    if sum(d * d for d in table.dims) != table.group_order:
        return math.inf
    x = table.value_matrix()
    sizes = np.array(table.class_sizes, dtype=float)
    gram = (x * sizes) @ x.conj().T / table.group_order
    residual = float(np.abs(gram - np.eye(k)).max())
    dims = np.array(table.dims, dtype=complex)
    residual = max(residual, float(np.abs(x[:, 0] - dims).max()))
    return residual


def _cyclic_character_rows(group: PermutationGroup, g: np.ndarray) -> np.ndarray:
    """Row j of the group generated by the image row g: exp(2*pi*i*j*k/|G|) on g**k, exactly (:func:`unit_root`).

    Every class is one element, so class r is the element of rank r and the
    identity row is row 0; each element's exponent k comes from one walk of
    the translation by g, a gather of the image array.
    """
    order = len(group)
    step = group._rank(g[group.images])  # entry r: the rank of g * images[r]
    dlog = [0] * order
    cur = 0
    for k in range(order):
        dlog[cur] = k
        cur = int(step[cur])
    return np.array([[unit_root(order, j * k) for k in dlog] for j in range(order)])


def _exact_roots(values: np.ndarray, e: int) -> np.ndarray:
    """Each value as the exact e-th root of unity ``unit_root(e, j)`` nearest to it.

    Every character value of an abelian group is an e-th root of unity, e the
    lcm of its generator orders; a value farther than ``ORTHOGONALITY_TOL``
    from every such root raises ``CharacterTableError``.
    """
    roots = np.array([unit_root(e, j) for j in range(e)])
    exact = roots[np.rint(np.angle(values) * (e / (2 * math.pi))).astype(np.int64) % e]
    if np.abs(values - exact).max() > ORTHOGONALITY_TOL:
        raise CharacterTableError(f"a character value lies off the {e}-th roots of unity")
    return exact


def _abelian_rows(group: PermutationGroup, rows) -> list:
    """The eigensolver's rows of an abelian group, exact and in generator-exponent order.

    Each value is snapped to an exact e-th root of unity (:func:`_exact_roots`).
    A character is fixed by its values chi(a) = exp(2*pi*i*k_a/m_a) on the
    distinct non-identity generators a, of orders m_a, and the rows are sorted
    by those exponents k_a, in generator order: the angle of an exact root,
    taken in [0, 2*pi), increases with its exponent.
    """
    gens = [g for g in dict.fromkeys(group.generators) if not g.is_identity()]
    exact = _exact_roots(np.array([values for _dim, values in rows]), math.lcm(*(g.order() for g in gens)))
    columns = [int(group._class_index[group._rank_of(g)]) for g in gens]
    turns = np.angle(exact[:, columns]) % (2 * math.pi)
    return [(1, tuple(map(complex, exact[r]))) for r in sorted(range(len(rows)), key=lambda r: tuple(turns[r]))]


def _combined_class_sums(group: PermutationGroup, classes, weights: np.ndarray) -> np.ndarray:
    """Sum over i of weights[i] * A_i, A_i[j, t] the ways to write (fixed z_t in class t) as x*y, x in i, y in j.

    Built column by column, with no (k, k, k) structure tensor: for the
    representative z_t, y = x**-1 * z_t runs over one gather of the inverse
    image array; one ``bincount`` of (class of x, class of y) gives the k x k
    counts a_t, and column t is ``einsum("i,ij->j", weights, a_t)``, the same
    bits as the tensor contraction ``einsum("i,ijt->jt")``.  So the memory is
    k**2 and the work O(|G| * k) rank lookups.  ``classes`` are numbered as
    the group's class index.
    """
    k = len(classes)
    class_of = group._class_index
    inverses = np.argsort(group.images, axis=1)
    combination = np.empty((k, k))
    for t, c in enumerate(classes):
        y = group._rank(inverses[:, c.representative.images])
        counts = np.bincount(class_of * k + class_of[y], minlength=k * k).astype(float)
        combination[:, t] = np.einsum("i,ij->j", weights, counts.reshape(k, k))
    return combination


def _combination(attempt: int, k: int) -> np.ndarray:
    """The class-sum weights of one eigensolver attempt: k standard normals, seeded by the attempt."""
    rng = random.Random(EIGEN_SEED + attempt)
    return np.array([rng.gauss(0.0, 1.0) for _ in range(k)])


def _eigen_character_rows(group, classes):
    """(dim, values) of each irrep, unsorted, from the eigenvectors of one random combination of class sums."""
    order = len(group)
    k = len(classes)
    sizes = np.array([c.size for c in classes], dtype=float)
    for attempt in range(MAX_RETRIES):
        combo = _combined_class_sums(group, classes, _combination(attempt, k))
        evals, evecs = np.linalg.eig(combo)
        scale = max(1.0, float(np.abs(evals).max()))
        gaps = np.abs(evals[:, None] - evals[None, :]) + np.eye(k) * scale
        if gaps.min() < 1e-8 * scale:
            continue
        rows = []
        ok = True
        for col in range(k):
            v = evecs[:, col]
            if abs(v[0]) < 1e-12:
                ok = False
                break
            v = v / v[0]
            weight = float(np.sum(np.abs(v) ** 2 / sizes))
            dim_f = math.sqrt(order / weight)
            dim = round(dim_f)
            if dim < 1 or abs(dim_f - dim) > 1e-6:
                ok = False
                break
            rows.append((dim, tuple(complex(dim * v[i] / sizes[i]) for i in range(k))))
        if not ok or sum(d * d for d, _ in rows) != order:
            continue
        return rows
    raise CharacterTableError(f"eigenvalue degeneracy not resolved after {MAX_RETRIES} retries")


def character_table(group: PermutationGroup, *, max_order: int = DEFAULT_MAX_GROUP_ORDER) -> CharacterTable:
    """Full complex character table of the group.

    Raises CharacterTableError if the numerical construction cannot meet the
    orthogonality invariants.
    """
    order = len(group)
    if order > max_order:
        raise GroupSizeLimitError(f"group order {order} exceeds the bound {max_order}")
    classes = tuple(conjugacy_classes(group))
    cyclic = [g for g in group.generator_images if kernels.permutation_order(g) == order]
    if cyclic:
        rows = [(1, tuple(map(complex, row))) for row in _cyclic_character_rows(group, cyclic[0])]
    elif group.is_abelian():
        rows = _abelian_rows(group, _eigen_character_rows(group, classes))
    else:
        rows = _eigen_character_rows(group, classes)
        rows.sort(key=lambda r: (r[0], tuple((-round(v.real, 6), -round(v.imag, 6)) for v in r[1])))
    irreps = tuple(Irrep(f"mu{i}", dim, values) for i, (dim, values) in enumerate(rows))
    table = CharacterTable(group=group, classes=classes, irreps=irreps, group_order=order)
    residual = _validation_residual(table)
    if residual > ORTHOGONALITY_TOL:
        raise CharacterTableError(f"character table residual {residual:.3e} exceeds 1e-9")
    return table


def frobenius_schur_indicators(
    group: PermutationGroup, table: CharacterTable | None = None
) -> FSIndicators:
    """Indicators nu = mean over sigma of chi(sigma^2), rounded to {-1, 0, +1}."""
    if table is None:
        table = character_table(group)
    square_class = [table.class_index_of(c.representative * c.representative) for c in table.classes]
    sizes = table.class_sizes
    values = []
    worst = 0.0
    for ir in table.irreps:
        raw = sum(sizes[i] * ir.values[square_class[i]] for i in range(len(sizes)))
        raw /= table.group_order
        nearest = min((-1, 0, 1), key=lambda v: abs(raw - v))
        residual = abs(raw - nearest)
        if residual > INDICATOR_TOL:
            raise MultiplicityRoundingError(
                f"indicator for {ir.label} is {raw}, residual {residual:.3e} > {INDICATOR_TOL}"
            )
        worst = max(worst, residual)
        values.append(nearest)
    return FSIndicators(tuple(values), worst)


def is_totally_orthogonal(group: PermutationGroup, table: CharacterTable | None = None) -> bool:
    """True iff every irrep is realizable over the reals (all indicators +1)."""
    return all(v == 1 for v in frobenius_schur_indicators(group, table).values)


def ambient_multiplicities(
    group: PermutationGroup,
    d: int,
    *,
    table: CharacterTable | None = None,
    per_orbit: bool = False,
    max_states: int = DEFAULT_MAX_STATES,
) -> MultiplicityVector:
    """Multiplicity of each irrep in the position action on all d**n strings.

    The ambient character value on sigma is d**c(sigma), the number of strings
    sigma fixes.  With ``per_orbit``, each class representative's action table
    gives its fixed strings, and one ``bincount`` over the orbit labels splits
    them by orbit: one table per class, not per (orbit, class).  The orbits'
    fixed counts are then projected together, in one call.
    """
    if d < 1:
        raise ValueError(f"alphabet size must be >= 1, got {d}")
    if table is None:
        table = character_table(group)
    ambient = np.array([[d ** cycle_count(c.representative) for c in table.classes]], dtype=object)  # past int64
    (values,) = _project_class_functions(table, ambient, what="multiplicity")
    expected = d**group.degree
    total = sum(m * ir.dim for m, ir in zip(values, table.irreps))
    if total != expected:
        raise MultiplicityRoundingError(f"sum of m*dim is {total}, expected d**n = {expected}")
    by_orbit = None
    if per_orbit:
        reps, orbit_of = orbit_labels(group, d, max_states=max_states)
        points = np.arange(orbit_of.shape[0])
        fixed = np.empty((len(table.classes), len(reps)), dtype=np.int64)
        for row, c in zip(fixed, table.classes):
            moved = kernels.moved_values(points, c.representative.inverse().images, d)
            row[:] = np.bincount(orbit_of[moved == points], minlength=len(reps))
        by_orbit = tuple(_project_class_functions(table, fixed.T, what="orbit multiplicity"))
        for mu in range(len(table.irreps)):
            if sum(row[mu] for row in by_orbit) != values[mu]:
                raise MultiplicityRoundingError("per-orbit multiplicities do not sum to the total")
    return MultiplicityVector(values, by_orbit)


def _project_class_functions(table, class_values, *, what) -> list[tuple[int, ...]]:
    """<f, chi> = sum of size * f * conj(chi) over the classes, / |G|, exactly, per row f and irrep chi.

    Each row f of the (rows, classes) integer array ``class_values`` is a
    class function with f(sigma**u) = f(sigma) for u prime to |G|, as
    fixed-string counts are: sigma and sigma**u fix the same strings.  So each
    level set {C : f(C) = v} is closed under the Galois action, and its level
    sum b_v = sum over the set of |C| * conj(chi(C)) is a rational algebraic
    integer, an integer with |b_v| <= |G| * dim (Serre, *Linear
    Representations of Finite Groups*, ch. 12-13).

    The levels of all rows are numbered at once, row by row and ascending by
    value within a row, from one sort along the rows; one ``bincount`` over
    (class, level) keys and one float matmul give every level sum, rounded.
    The sum of v * b_v / |G| over a row's levels is then exact in Python
    ints, so v may exceed int64 (``class_values`` of dtype object).  A level
    sum off an integer, a remainder or a negative result is refused.
    """
    values = np.asarray(class_values)
    rows, k = values.shape
    by_value = np.argsort(values, axis=1, kind="stable")
    ranked = np.take_along_axis(values, by_value, axis=1)
    starts = np.ones((rows, k), dtype=bool)  # the classes that open a level, in value order
    starts[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    level = np.empty((rows, k), dtype=np.int64)
    np.put_along_axis(level, by_value, np.cumsum(starts).reshape(rows, k) - 1, axis=1)
    level_values = ranked[starts]
    counts = np.bincount((np.arange(k) * len(level_values) + level).ravel(), minlength=k * len(level_values))
    weights = table.value_matrix().conj() * table.class_sizes
    sums = weights @ counts.reshape(k, len(level_values)).astype(float)  # [irrep, level]
    rounded = np.rint(sums.real)
    residuals = np.abs(sums - rounded).max(axis=1)
    worst = int(residuals.argmax())
    if residuals[worst] > LEVEL_SUM_TOL:
        raise MultiplicityRoundingError(
            f"{what} for {table.irreps[worst].label}: a level sum is off an integer by "
            f"{residuals[worst]:.3e} > {LEVEL_SUM_TOL}"
        )
    terms = rounded.astype(np.int64).astype(object) * level_values.astype(object)  # [irrep, level], Python ints
    per_row = np.count_nonzero(starts, axis=1)
    totals = np.add.reduceat(terms, np.cumsum(per_row) - per_row, axis=1)  # [irrep, row]
    bad = (totals % table.group_order != 0) | (totals < 0)
    if bad.any():
        row, mu = np.argwhere(bad.T)[0]
        raise MultiplicityRoundingError(
            f"{what} for {table.irreps[mu].label} is {totals[mu, row]}/{table.group_order}, "
            "not a non-negative integer"
        )
    return [tuple(row) for row in (totals // table.group_order).T.tolist()]


def nq_oracle(group: PermutationGroup, d: int, *, table: CharacterTable | None = None) -> int:
    """Ancilla-free message count as the plain sum of multiplicities."""
    return sum(ambient_multiplicities(group, d, table=table).values)


def na_oracle(group: PermutationGroup, d: int, *, table: CharacterTable | None = None) -> int:
    """Ancilla-assisted message count as the sum of squared multiplicities."""
    return sum(m * m for m in ambient_multiplicities(group, d, table=table).values)


def isotypic_projector(
    group: PermutationGroup,
    d: int,
    mu: int,
    *,
    table: CharacterTable | None = None,
    max_dim: int = DEFAULT_MAX_PROJECTOR_DIM,
) -> np.ndarray:
    """Projector onto the mu-isotypic component of the d**n-dimensional space.

    P = sum over p of c(p) A(p), with c(p) = dim * conj(chi_mu(p)) / |G| and
    A(p) the permutation matrix of p on the strings.  P commutes with every
    A(p) and is zero between different orbits, so its columns at the orbit
    representatives r fix it:

    * column r is one ``bincount`` of c(p) over the images p.r;
    * for j = q.r, P[i, j] = P[q**-1 . i, r], written only for the i in j's
      orbit: the sum over orbits O of |O|**2 entries.

    Only c depends on mu.  Where each weight c(p) lands, where each in-orbit
    entry goes in P and which column entry it reads are index arrays of the
    group and d alone (:func:`_projector_geometry`), memoised on the group.

    The dtype follows the character: P is float64 when every value of
    chi_mu has an imaginary part of exactly 0.0, as for every irrep of S_n
    and D_n, and complex128 otherwise.  This is exact: a real chi gives real
    weights c(p), and permutation matrices are real, so P is real; the
    complex P of such an irrep has an imaginary part of exact zeros, and its
    real part equals the float64 P bit for bit.

    Cost: the first call for a (group, d) builds those arrays, O(|G| * R * n)
    for R orbits plus O(sum |O|**2 * n), and keeps them: 2 * sum |O|**2 +
    |G| * R int64s.  Each call then does one ``bincount`` of |G| * R weights
    (two for a complex chi), one gather of the in-orbit entries and the
    d**2n zero fill with one scatter; no d**n action table and no loop over
    elements.  The d**n bound and the irrep index are checked first, before
    any labelling or allocation.
    """
    n = group.degree
    size = d**n
    if size > max_dim:
        raise StateSpaceBoundError(f"d**n = {size} exceeds the projector bound {max_dim}")
    if table is None:
        table = character_table(group)
    if not 0 <= mu < len(table.irreps):
        raise IndexError(f"irrep index {mu} is outside range({len(table.irreps)})")
    irrep = table.irreps[mu]
    keys, entries, sources = _projector_geometry(group, d)
    coeff = irrep.dim * np.conj(irrep.values)[table.class_index] / table.group_order
    r = len(keys) // len(group)  # orbit representatives
    if any(value.imag for value in irrep.values):
        weights = np.repeat(coeff, r)
        columns = np.bincount(keys, weights.real, size * r) + 1j * np.bincount(keys, weights.imag, size * r)
    else:
        columns = np.bincount(keys, np.repeat(coeff.real, r), size * r)  # the complex weights' real parts, bit for bit
    projector = np.zeros((size, size), dtype=columns.dtype)
    projector.ravel()[entries] = columns[sources]
    return projector


def _projector_geometry(group: PermutationGroup, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(keys, entries, sources): the read-only index arrays of every isotypic projector of the group at d.

    With R orbit representatives r_k, the columns P[:, r_k] are held flat as
    a (d**n * R) array, entry x * R + k.  ``keys[p * R + k]`` is where weight
    c(p) lands: the entry of p.r_k in column k, the images of all
    representatives under all elements being one ``kernels.move_indices``
    call.  Then for each (i, j) in one orbit, orbit by orbit, ``entries``
    holds i * d**n + j, its place in the flat P, and ``sources`` the column
    entry it reads: with j = q.r for an element q moving r to j,
    P[i, j] = P[q**-1 . i, r], and digit k of q**-1 . i is digit q(k) of i.
    Memoised on the group by d.
    """
    memo = group._projector_geometry
    if d not in memo:
        size = d**group.degree
        reps, orbit_of = orbit_labels(group, d, max_states=size)
        r = len(reps)
        moved = kernels.move_indices(np.argsort(group.images, axis=1), reps, d)  # [p, k]: reps[k] moved by p
        keys = (moved * r + np.arange(r)).ravel()
        carrier = np.empty(size, dtype=np.int64)  # for each string, an element moving its representative to it
        carrier[moved] = np.arange(len(group))[:, None]
        # every (i, j) in one orbit, orbit by orbit: members[start + a], members[start + b]
        members = np.argsort(orbit_of, kind="stable")
        sizes = kernels.label_counts(orbit_of, r)
        pair_orbit = np.repeat(np.arange(r), sizes**2)
        within = np.arange(len(pair_orbit)) - np.repeat(np.cumsum(sizes**2) - sizes**2, sizes**2)
        start, width = (np.cumsum(sizes) - sizes)[pair_orbit], sizes[pair_orbit]
        rows, cols = members[start + within // width], members[start + within % width]
        q = carrier[cols]
        powers = kernels.digit_powers(group.degree, d)
        digit_of = (np.arange(size) // powers[:, None] % d).ravel()  # entry k * d**n + x: digit k of string x
        source = np.zeros_like(rows)
        for position, (column, power) in enumerate(zip(group.images.T, powers.tolist())):
            source += digit_of.take(column.take(q) * size + rows) * power  # digit q(position) of each i
        geometry = keys, rows * size + cols, source * r + pair_orbit
        for array in geometry:
            array.flags.writeable = False
        memo[d] = geometry
    return memo[d]
