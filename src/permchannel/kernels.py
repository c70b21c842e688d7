"""Index-space kernels for the position action on all d**n strings.

Length-``n`` strings over ``{0..d-1}`` are identified with integers in
``[0, d**n)``, position 0 being the most significant base-``d`` digit.  Then
``arange(d**n).reshape((d,) * n)`` holds each string's index at the string
itself, and moving positions is moving axes: :func:`moved_values` moves
any per-string array by one axis transpose and copy, O(d**n), so moving
that arange gives a permutation's action table.  :func:`move_indices`
moves only a few given strings, by their digits, without a d**n table.

:func:`orbit_minima` labels every point with the least point of its orbit
under a few bijections of ``range(size)``, doubling each bijection's jump
for ceil(log2 order) rounds; it is given each jump's order and how a label
array is pulled along a jump, into a given buffer.  The fixpoint runs on
two label buffers, the labels and a spare that each round's pull and
minimum are written into, so a round allocates no d**n array.
:func:`orbit_reps` runs it on the generators' n-point inverse-image rows:
a label is pulled by ``moved_values(label, inv, d)``, one axis transpose,
and the row of the square is ``inv[inv]``, so labelling all d**n strings
builds no action table.  ``perms`` runs it on rank tables of group
elements, pulled by a gather.  The labels, and the minima returned, are
int32 below 2**31 points (:func:`label_dtype`).

A transpose first merges the runs of positions that move together into one
axis.  numpy copies in the output's memory order; when the move swaps two
such blocks (a rotation), that order reads the input down the columns of a
2-D array, so the swap is copied tile by tile (:func:`_swap_blocks`); when
it reverses the unit axes (a D_n reflection), a large array is moved by
rows and in-row lookups instead (:func:`_reverse_digits`).
"""

from __future__ import annotations

import math

import numpy as np


def digit_powers(n: int, d: int) -> np.ndarray:
    """``[d**(n-1), ..., d, 1]`` as int64."""
    return d ** np.arange(n - 1, -1, -1, dtype=np.int64)


def moved_values(values: np.ndarray, inv_images, d: int, out: np.ndarray | None = None) -> np.ndarray:
    """The value at each string's image under one permutation, by one axis transpose.

    ``inv_images`` are the images of the *inverse* permutation, so that
    ``permuted[i] == original[inv_images[i]]``; axis ``inv_images[i]`` of the
    output is axis i of ``values``, a transpose by ``argsort(inv_images)``.
    With ``values = arange(d**n)`` this is the action table: ``out[ix]`` is
    the index of string ``ix`` permuted.  Written into ``out``, a
    C-contiguous array of the same size and dtype, when given; ``values`` is
    only read.
    """
    inv = np.asarray(inv_images, dtype=np.int64)
    d = int(d)
    if out is None:
        out = np.empty_like(values)
    if d == 1 or inv.shape[0] == 0:  # the one string; n axes could exceed numpy's limit on array rank
        np.copyto(out, values)
        return out
    shape, order = _merged_axes(np.argsort(inv).tolist(), d)
    source = values.reshape(shape)
    if order == [1, 0]:
        _swap_blocks(source, out.reshape(shape[::-1]))
    elif values.size >= REVERSE_MIN_SIZE and d <= 4 and order in _reflections(len(inv)):
        run = len(inv) - (order[0] == 0)  # the reversed axes: all, or all but the first
        _reverse_digits(values.reshape(-1, d**run), run, d, out)
    else:
        np.copyto(out.reshape([shape[axis] for axis in order]), source.transpose(order))
    return out


def _merged_axes(axes: list[int], d: int) -> tuple[list[int], list[int]]:
    """Input shape and transpose order of the move whose output axis i is input axis ``axes[i]``.

    Output axes i and i + 1 that are input axes a and a + 1 are one axis of
    both, so each run of them is merged into one axis of length d**run.
    """
    starts = [i for i in range(len(axes)) if i == 0 or axes[i] != axes[i - 1] + 1]
    runs = [(axes[a], b - a) for a, b in zip(starts, starts[1:] + [len(axes)])]  # (first input axis, length)
    by_input = sorted(range(len(runs)), key=lambda r: runs[r][0])
    order = [0] * len(runs)
    for axis, r in enumerate(by_input):
        order[r] = axis
    return [d ** runs[r][1] for r in by_input], order


def _reflections(n: int) -> list[list[int]]:
    """The transpose orders that reverse all n unit axes, or all but the first (a D_n reflection)."""
    reversed_axes = list(range(n - 1, 0, -1))
    return [reversed_axes + [0], [0] + reversed_axes]


REVERSE_MIN_SIZE = 2**20  # entries from which _reverse_digits beats one strided copy, at d <= 4
REVERSE_STRIP = 64  # rows per strip of _reverse_digits


def _reverse_digits(source: np.ndarray, r: int, d: int, out: np.ndarray) -> None:
    """``out`` holds each row of ``source`` (d**r entries) moved to the index with its r base-d digits reversed.

    With r1 = r // 2 high digits h and r2 low digits l, entry h * d**r2 + l
    moves to rev(l) * d**r1 + rev(h): viewed as a d**r1 x d**r2 array M, a
    row moves to the transpose of ``M[rev][:, rev]``, a row gather, in-row
    lookups and a block transpose.  These run a strip of ``REVERSE_STRIP``
    rows of M at a time, through two strip buffers.  One copy of the move
    walks r axes of length d, mostly loop overhead: at 2**20 int32 entries
    on a 2-core x86-64 host the D20 reflection takes 9-15 ms that way and
    about 5 ms here; below 2**20 entries, or at d = 5, the copy is as fast.
    """
    r1 = r // 2
    rev_rows, rev_cols = (np.arange(d**k).reshape((d,) * k).transpose().ravel() for k in (r1, r - r1))
    rows, cols = len(rev_rows), len(rev_cols)
    gathered = np.empty((min(REVERSE_STRIP, rows), cols), source.dtype)
    looked = np.empty_like(gathered)
    for block, moved in zip(source.reshape(-1, rows, cols), out.reshape(-1, cols, rows)):
        for start in range(0, rows, REVERSE_STRIP):
            picks = rev_rows[start : start + REVERSE_STRIP]
            np.take(block, picks, axis=0, out=gathered[: len(picks)], mode="clip")  # clip only skips the check
            np.take(gathered[: len(picks)], rev_cols, axis=1, out=looked[: len(picks)], mode="clip")
            np.copyto(moved[:, start : start + len(picks)], looked[: len(picks)].T)


SWAP_TILE = 8192  # entries per tile of a block swap: 32 KB of int32 labels on each side


def _swap_blocks(source: np.ndarray, out: np.ndarray) -> None:
    """``out[...] = source.T`` for a 2-D ``source``, copied tile by tile where one copy is slow.

    One copy walks ``out`` row by row, each row a column of ``source``.  With
    rows of at most 4 entries the copy is mostly loop overhead, so each tile
    is a column of ``out``, ``SWAP_TILE`` entries long and written with a
    stride; with rows of 256 entries or more each row touches as many cache
    lines of ``source``, so the tiles are blocks of ``SWAP_TILE`` entries, at
    most 64 columns of ``source`` wide.  In between, one copy is as fast.  At
    2**20 int32 entries on a 2-core x86-64 host this cuts a swap from 2.5-9 ms
    to 0.6-2 ms.
    """
    rows, cols = source.shape
    if 4 < rows < 256:
        np.copyto(out, source.T)
        return
    if rows <= 4:
        tile_rows, tile_cols = 1, SWAP_TILE
    else:
        tile_cols = min(cols, 64)
        tile_rows = SWAP_TILE // tile_cols
    for r in range(0, rows, tile_rows):
        for c in range(0, cols, tile_cols):
            out[c : c + tile_cols, r : r + tile_rows] = source[r : r + tile_rows, c : c + tile_cols].T


def move_indices(inv_images, indices, d: int) -> np.ndarray:
    """Index of each string in ``indices`` after each permutation: ``moved_values(arange(d**n), inv, d)[indices]``.

    ``inv_images`` is one row of inverse images, or a 2-D array of rows, which
    gives one output row per permutation.  Digit i of a moved string is digit
    ``inv[i]`` of the original, so the output is one gather of digit rows per
    position: O(rows * len(indices) * n), with no d**n table.
    """
    inv = np.asarray(inv_images, dtype=np.int64)
    powers = digit_powers(inv.shape[-1], int(d))
    digits = np.asarray(indices, dtype=np.int64) // powers[:, None] % d  # row j: digit j of each index
    out = np.zeros(inv.shape[:-1] + digits.shape[1:], dtype=np.int64)
    for position, power in enumerate(powers.tolist()):
        out += digits[inv[..., position]] * power
    return out


def _gather(label: np.ndarray, table: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``label[table]`` into ``out``: each point's label pulled from its image under an index table."""
    return np.take(label, table, out=out, mode="clip")  # a table holds points, so clip only skips the bounds check


def label_dtype(size: int) -> type:
    """Dtype of labels of ``size`` points: int32 while every point fits (below 2**31 points), else int64."""
    return np.int32 if size < 2**31 else np.int64


def cycle_lengths(images) -> list[int]:
    """The lengths of the cycles of the permutation with these images, fixed points as 1-cycles, by least point."""
    images = np.asarray(images).tolist()
    seen = [False] * len(images)
    lengths = []
    for start in range(len(images)):
        x, length = start, 0
        while not seen[x]:
            seen[x], x, length = True, images[x], length + 1
        if length:
            lengths.append(length)
    return lengths


def permutation_order(images) -> int:
    """Order of the permutation with these images: the lcm of its cycle lengths."""
    return math.lcm(*cycle_lengths(images))


JUMP_TILE = 2**16  # indices per chunk of take_chunked: numpy's int64 copy of each int32 chunk is 512 KB


def take_chunked(values: np.ndarray, indices: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``values[indices]`` into ``out``, which may be ``indices``, gathered chunk by chunk.

    ``np.take`` first converts int32 indices to an int64 array; whole, that is
    an 8 MB copy at 2**20 labels, so the chunks keep each copy small.
    """
    for start in range(0, len(indices), JUMP_TILE):
        chunk = slice(start, start + JUMP_TILE)
        np.take(values, indices[chunk], out=out[chunk], mode="clip")  # indices are points: clip only skips the check
    return out


def label_counts(labels: np.ndarray, length: int) -> np.ndarray:
    """``np.bincount(labels, minlength=length)`` for labels below ``length``, counted chunk by chunk.

    ``np.bincount`` first converts int32 labels to an int64 array, 8 MB at
    2**20 labels; the chunks hold at least ``length`` labels, so adding up
    their counts costs no more than counting them.
    """
    counts, step = np.zeros(length, dtype=np.int64), max(JUMP_TILE, length)
    for start in range(0, len(labels), step):
        counts += np.bincount(labels[start : start + step], minlength=length)
    return counts


def orbit_minima(jumps: np.ndarray, orders, size: int | None = None, pull=_gather) -> np.ndarray:
    """Least point of each of ``size`` points' orbit under the bijections ``jumps`` (one per row).

    ``orders`` holds each jump's order, or a multiple of it.
    ``pull(label, jump, out)`` writes into ``out`` the label at each point's
    image under ``jump`` and returns it, and ``jump[jump]`` must be the jump
    of the square: true of index tables pulled by ``label[table]`` (the
    default, ``size`` then the row length) and of inverse-image rows pulled by
    :func:`moved_values`.  For one jump j, round k pulls the label of the
    point 2**k steps ahead (j**(2**k)), so after k rounds each label is the
    least over a window of 2**k steps, and ceil(log2 order) rounds cover
    every cycle.  Only round 1 is compared with the labels: if it lowers
    none, each label is at most the next one on its cycle, so they are
    already constant on the jump's cycles and it has no more rounds.  The
    jumps are taken in turn until all of them in a row leave the labels
    unchanged; then the labels are constant on every orbit, and equal its
    least point.  The jump ``label[label]`` after a change carries a lower
    label found elsewhere to every point that points at it.  It is skipped
    after the first jump that lowers any label: starting from the points
    themselves, the labels are then the least points of that jump's cycles,
    which label themselves.  So one jump, as for a cyclic group, needs no
    such gather and no confirming round.

    Each round writes the pull and its minimum into a spare buffer, which
    becomes the labels: two buffers in all.  The labels, and the result, are
    of :func:`label_dtype`: int32 below 2**31 points, halving the memory each
    round streams.
    """
    size = jumps.shape[1] if size is None else size
    label = np.arange(size, dtype=label_dtype(size))
    spare = np.empty_like(label)
    settled = k = 0
    lowered = False  # whether an earlier jump has lowered any label
    while settled < len(jumps):
        jump, changed = jumps[k % len(jumps)], False
        rounds = (int(orders[k % len(jumps)]) - 1).bit_length()  # ceil(log2 order): none for the identity
        for i in range(rounds):
            if i:
                jump = jump[jump]
            np.minimum(label, pull(label, jump, spare), out=spare)
            if not i and np.array_equal(spare, label):
                break
            label, spare, changed = spare, label, True
        if changed:
            if lowered:
                label, spare = take_chunked(label, label, spare), label
            lowered, settled = True, 0
        settled += 1
        k += 1
    return label


def orbit_reps(inv_images, n: int, d: int) -> np.ndarray:
    """Per-index minimal orbit member under the group the generators span.

    ``inv_images`` holds one row of inverse images per generator.  The
    fixpoint of :func:`orbit_minima` runs on these n-point rows: a label is
    pulled by one axis transpose (:func:`moved_values`) into the spare
    buffer, and the row of a generator's square is ``inv[inv]``, so no d**n
    table is built.
    """
    invs = np.asarray(inv_images, dtype=np.int64).reshape(len(inv_images), n)  # n == 0 too
    orders = [permutation_order(inv) for inv in invs]
    return orbit_minima(invs, orders, int(d) ** n, lambda label, inv, out: moved_values(label, inv, d, out))
