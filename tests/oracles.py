"""Independent brute-force oracles used to cross-check the library.

Everything here works on plain tuples and numpy arrays, by direct enumeration
and dense linear algebra, and never imports the package.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def act_tuple(images: tuple[int, ...], symbols: tuple[int, ...]) -> tuple[int, ...]:
    """Move content of position j to position images[j]."""
    out = [0] * len(symbols)
    for j, symbol in enumerate(symbols):
        out[images[j]] = symbol
    return tuple(out)


def all_strings(n: int, d: int):
    return itertools.product(range(d), repeat=n)


def brute_orbits(element_images, n: int, d: int) -> list[frozenset]:
    """Orbit partition of all d**n symbol tuples, by exhaustive action."""
    seen: set[tuple[int, ...]] = set()
    out = []
    for x in all_strings(n, d):
        if x in seen:
            continue
        orbit = frozenset(act_tuple(images, x) for images in element_images)
        seen |= orbit
        out.append(orbit)
    return out


def brute_fixed_count(images: tuple[int, ...], n: int, d: int) -> int:
    return sum(1 for x in all_strings(n, d) if act_tuple(images, x) == x)


def brute_stabilizer_order(element_images, symbols: tuple[int, ...]) -> int:
    """How many of the elements leave the symbol tuple unchanged."""
    return sum(1 for images in element_images if act_tuple(images, symbols) == symbols)


def compose_images(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p after q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def inverse_images(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, image in enumerate(p):
        inv[image] = i
    return tuple(inv)


def void_key_ranks(images: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Row number of each row among the sorted, distinct ``images``, -1 where absent.

    The keys are fixed-width byte strings of big-endian 32-bit digits, which
    compare bytewise in tuple order at any degree; a rank is a binary search.
    """

    def keys(a):
        a = np.ascontiguousarray(a, dtype=">u4")
        return a.view(f"V{4 * a.shape[-1]}").reshape(a.shape[:-1])

    table, probe = keys(images), keys(rows)
    pos = np.searchsorted(table, probe).clip(max=len(table) - 1)
    return np.where(table[pos] == probe, pos, -1)


def brute_closure(generator_images, degree: int | None = None) -> set[tuple[int, ...]]:
    """The group the generators span: products p * g added until none is new.

    ``degree`` defaults to the first generator's length; it is needed only
    for an empty generator list, which spans the identity alone.
    """
    gens = [tuple(g) for g in generator_images]
    identity = tuple(range(len(gens[0]) if degree is None else degree))
    elements, frontier = {identity}, [identity]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = compose_images(p, g)
            if q not in elements:
                elements.add(q)
                frontier.append(q)
    return elements


def brute_square_roots(element_images, target: tuple[int, ...]) -> int:
    return sum(1 for t in element_images if compose_images(t, t) == target)


def brute_is_group(element_images) -> bool:
    """Pairwise group-axiom check: identity, every inverse and every product in the set."""
    elements = set(element_images)
    if not elements:
        return False
    if tuple(range(len(next(iter(elements))))) not in elements:
        return False
    return all(inverse_images(p) in elements for p in elements) and all(
        compose_images(p, q) in elements for p in elements for q in elements
    )


def brute_conjugacy_classes(element_images) -> set[frozenset]:
    """Classes as the sets {g p g**-1 : g in G}, one per element p."""
    elements = list(element_images)
    return {
        frozenset(compose_images(compose_images(g, p), inverse_images(g)) for g in elements)
        for p in elements
    }


def brute_class_structure(element_images, classes) -> np.ndarray:
    """a[i, j, t]: pairs (x, y) with x in classes[i], y in classes[j], x y == classes[t][0].

    ``classes`` lists each class's member images, representative first; the
    count runs over all |G|**2 pairs.
    """
    class_of = {member: i for i, members in enumerate(classes) for member in members}
    rep_of = {members[0]: t for t, members in enumerate(classes)}
    a = np.zeros((len(classes),) * 3)
    for x in element_images:
        for y in element_images:
            t = rep_of.get(compose_images(x, y))
            if t is not None:
                a[class_of[x], class_of[y], t] += 1
    return a


def tuple_cycle_counts(images: tuple[int, ...]) -> dict[int, int]:
    n = len(images)
    seen = [False] * n
    counts: dict[int, int] = {}
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = images[j]
            length += 1
        counts[length] = counts.get(length, 0) + 1
    return counts


def cycle_index_by_enumeration(n: int, a) -> Fraction:
    """Cycle index of S_n by summing over all n! permutations."""
    total = Fraction(0)
    for images in itertools.permutations(range(n)):
        term = Fraction(1)
        for length, mult in tuple_cycle_counts(images).items():
            term *= Fraction(a[length - 1]) ** mult
        total += term
    return total / math.factorial(n)


def index_table(images: tuple[int, ...], n: int, d: int) -> np.ndarray:
    """table[ix] = index of the moved string; indices are lexicographic ranks."""
    strings = list(all_strings(n, d))
    rank = {x: ix for ix, x in enumerate(strings)}
    return np.array([rank[act_tuple(images, x)] for x in strings], dtype=np.int64)


def brute_isotypic_projector(element_images, characters, dim: int, n: int, d: int) -> np.ndarray:
    """dim/|G| times the sum over elements of conj(character) times the element's permutation matrix.

    ``characters`` holds one character value per element, in the order of
    ``element_images``; each matrix is dense d**n x d**n, column j holding a
    one at row ``index_table(images)[j]``.
    """
    size = d**n
    total = np.zeros((size, size), dtype=complex)
    for images, value in zip(element_images, characters):
        matrix = np.zeros((size, size))
        matrix[index_table(images, n, d), np.arange(size)] = 1.0
        total += np.conj(value) * matrix
    return dim * total / len(element_images)


def dense_zero_error(element_images, matrix: np.ndarray, n: int, d: int, tol: float = 1e-9):
    """(failures, max off-diagonal probability) of decoding every basis column.

    ``matrix`` holds the basis states as columns.  Each element permutes its
    rows; a message fails unless argmax decoding returns it with probability
    at least 1 - tol.  Failures are (message, images), element-major.
    """
    failures = []
    max_offdiag = 0.0
    for images in element_images:
        permuted = np.zeros_like(matrix)
        permuted[index_table(images, n, d), :] = matrix
        probs = np.abs(matrix.conj().T @ permuted) ** 2
        max_offdiag = max(max_offdiag, float((probs - np.diag(np.diag(probs))).max()))
        decoded = np.argmax(probs, axis=0)
        for message in range(matrix.shape[1]):
            if decoded[message] != message or probs[message, message] < 1.0 - tol:
                failures.append((message, tuple(images)))
    return tuple(failures), max_offdiag


def weyl_family(m: int) -> list[np.ndarray]:
    """X**a Z**b in (a, b) order, with X|j> = |j+1> and Z = diag(exp(2 pi i j / m))."""
    shift = np.roll(np.eye(m), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(m) / m))
    return [
        np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
        for a in range(m)
        for b in range(m)
    ]


def dense_coding_probabilities(table: np.ndarray, block: np.ndarray) -> np.ndarray:
    """probs[(a', b'), (a, b)]: probability of decoding (a', b') after sending (a, b) through one element.

    ``block`` is the d**n x m matrix of a sector's states and ``table`` the
    element's ``index_table``.  The (a, b) signal is (block @ X**a Z**b)
    flattened over message (x) ancilla; the element permutes its message rows.
    """
    m = block.shape[1]
    entangled = np.stack([(block @ w).reshape(-1) / math.sqrt(m) for w in weyl_family(m)])
    received = np.zeros((m * m, block.shape[0], m), dtype=complex)
    received[:, table, :] = entangled.reshape(m * m, -1, m)
    return np.abs(entangled.conj() @ received.reshape(m * m, -1).T) ** 2


def dense_coding_certify(element_images, sectors, n: int, d: int, tol: float = 1e-9) -> dict:
    """Dense-coding round trips on explicit entangled states, sector by sector.

    ``sectors`` lists (mu, block) with block the d**n x m matrix of the
    sector's states.  The (a, b) signal is (block @ X**a Z**b) flattened over
    message (x) ancilla; each element permutes the message rows, and the
    receiver takes the argmax over all m**2 signals.
    """
    tables = [index_table(images, n, d) for images in element_images]
    failures = []
    triples = 0
    for mu, block in sectors:
        m = block.shape[1]
        decoded = []
        for table in tables:
            probs = dense_coding_probabilities(table, block)
            best = np.argmax(probs, axis=0)
            decoded.append((best == np.arange(m * m)) & (probs.max(axis=0) >= 1.0 - tol))
        for pos in range(m * m):
            a, b = divmod(pos, m)
            for images, ok in zip(element_images, decoded):
                if not ok[pos]:
                    failures.append({"mu": mu, "a": a, "b": b, "element": list(images)})
            triples += all(ok[pos] for ok in decoded)
    return {"triples": triples, "failures": failures}


def cyclic_fourier_basis(n: int, d: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """The d**n x d**n cyclic message basis (columns) and each column's (mu, alpha).

    Each rotation orbit (from ``brute_orbits``) is walked from its least
    member by the one-step rotation; its k-th Fourier state has amplitude
    exp(-2 pi i k l / s) / sqrt(s) at the l-th string of the walk, s the
    orbit size, and sector mu = (n / s) * k.  Columns are ordered by mu, then
    by least member; alpha counts within a sector.
    """
    rotation = tuple((i + 1) % n for i in range(n))
    rotations = [tuple(range(n))]
    for _ in range(n - 1):
        rotations.append(compose_images(rotation, rotations[-1]))
    rank = {x: ix for ix, x in enumerate(all_strings(n, d))}
    columns = []
    for j, rep in enumerate(sorted(min(orbit) for orbit in brute_orbits(rotations, n, d))):
        walk = [rep]
        while act_tuple(rotation, walk[-1]) != rep:
            walk.append(act_tuple(rotation, walk[-1]))
        size = len(walk)
        for k in range(size):
            column = np.zeros(d**n, dtype=complex)
            for l, x in enumerate(walk):
                column[rank[x]] = np.exp(-2j * np.pi * k * l / size) / np.sqrt(size)
            columns.append(((n // size) * k, j, column))
    columns.sort(key=lambda c: c[:2])
    labels, seen = [], {}
    for mu, _j, _column in columns:
        labels.append((mu, seen.get(mu, 0)))
        seen[mu] = seen.get(mu, 0) + 1
    return np.stack([c[2] for c in columns], axis=1), labels


def fkm_necklaces(n: int, d: int):
    """Necklaces of length n over d symbols as tuples, in lexicographic order, by the iterative FKM step.

    From a prenecklace, raise the last symbol below d - 1, keep the prefix up
    to it (length p) and repeat that prefix periodically to length n; the
    result is the next prenecklace, and it is a necklace iff p divides n.
    """
    a = [0] * n
    yield tuple(a)
    top = d - 1
    while True:
        i = n - 1
        while i >= 0 and a[i] == top:
            i -= 1
        if i < 0:
            return
        a[i] += 1
        p = i + 1
        a[p:] = (a[:p] * (n // p))[: n - p]
        if n % p == 0:
            yield tuple(a)
