"""Index-space kernels for the position action on all d**n strings.

Length-``n`` strings over ``{0..d-1}`` are identified with integers in
``[0, d**n)``, position 0 being the most significant base-``d`` digit.  Then
``arange(d**n).reshape((d,) * n)`` holds each string's index at the string
itself, and moving positions is moving axes: :func:`action_table` is one
axis transpose and copy, O(d**n), and :func:`moved_values` moves any
per-string array the same way.  :func:`move_indices` moves only a few
given strings, by their digits, without a d**n table.

:func:`orbit_minima` labels every point with the least point of its orbit
under a few bijections of ``range(size)``, doubling each bijection's jump
until the labels settle; it is given how a label array is pulled along a
jump, into a given buffer.  The fixpoint runs on two label buffers, the
labels and a spare that each round's pull and minimum are written into, so
a round allocates no d**n array.  :func:`orbit_reps` runs it on the
generators' n-point inverse-image rows: ``label[action_table(inv, d)]`` is
``moved_values(label, inv, d)``, one axis transpose, and the table of the
square is ``action_table(inv[inv], d)``, so labelling all d**n strings
builds no action table.  ``perms`` runs it on rank tables of group
elements, pulled by a gather.  The working labels are int32 below 2**31
points.

A transpose first merges the runs of positions that move together into one
axis.  numpy copies in the output's memory order; when the move swaps two
such blocks (a rotation), that order reads the input down the columns of a
2-D array, so the swap is copied tile by tile (:func:`_swap_blocks`).
"""

from __future__ import annotations

import numpy as np


def digit_powers(n: int, d: int) -> np.ndarray:
    """``[d**(n-1), ..., d, 1]`` as int64."""
    return d ** np.arange(n - 1, -1, -1, dtype=np.int64)


def action_table(inv_images, d: int) -> np.ndarray:
    """Index table of one permutation's action on all d**n strings.

    ``inv_images`` are the images of the *inverse* permutation, so that
    ``permuted[i] == original[inv_images[i]]``; ``out[ix]`` is the index of
    string ``ix`` permuted.  So axis ``inv_images[i]`` of the output is axis
    i of the index array: a transpose by the inverse, ``argsort(inv_images)``.
    """
    return moved_values(np.arange(int(d) ** len(inv_images), dtype=np.int64), inv_images, d)


def moved_values(values: np.ndarray, inv_images, d: int, out: np.ndarray | None = None) -> np.ndarray:
    """``values[action_table(inv_images, d)]``: the value at each string's image, by the same transpose.

    Written into ``out``, a C-contiguous array of the same size and dtype,
    when given; ``values`` is only read.
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
    """Index of each string in ``indices`` after each permutation: ``action_table(inv, d)[indices]``.

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


JUMP_TILE = 2**16  # labels per chunk of the pointer jump: numpy's int64 copy of each index chunk is 512 KB


def _pointer_jump(label: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``label[label]`` into ``out``, gathered chunk by chunk.

    ``np.take`` first converts int32 indices to an int64 array; whole, that is
    an 8 MB copy at 2**20 labels, so the chunks keep each copy small.
    """
    for start in range(0, len(label), JUMP_TILE):
        chunk = slice(start, start + JUMP_TILE)
        np.take(label, label[chunk], out=out[chunk], mode="clip")  # labels are points: clip only skips the check
    return out


def orbit_minima(jumps: np.ndarray, size: int | None = None, pull=_gather) -> np.ndarray:
    """Least point of each of ``size`` points' orbit under the bijections ``jumps`` (one per row).

    ``pull(label, jump, out)`` writes into ``out`` the label at each point's
    image under ``jump`` and returns it, and ``jump[jump]`` must be the jump
    of the square: true of index tables pulled by ``label[table]`` (the
    default, ``size`` then the row length) and of inverse-image rows pulled by
    :func:`moved_values`.  For one jump j, round k pulls the label of the
    point 2**k steps ahead (j**(2**k)), so after k rounds each label is the
    least over a window of 2**k steps.  A round that changes nothing means
    every window already holds its cycle's minimum, so a long cycle settles
    in about log2(length) rounds, and a jump that has become the identity
    ends them unpulled.  The jumps are taken in turn until all of
    them in a row leave the labels unchanged; then the labels are constant
    on every orbit, and equal its least point.  The jump ``label[label]``
    after a change carries a lower label found elsewhere to every point that
    points at it.  It is skipped after the first jump that lowers any label:
    starting from the points themselves, the labels are then the least
    points of that jump's cycles, which label themselves.  So one jump, as
    for a cyclic group, needs no such gather.

    Each round writes the pull and its minimum into a spare buffer, which
    becomes the labels if they changed: two buffers in all.  Labels are held
    as int32 below 2**31 points, halving the memory each round streams; the
    result is int64.
    """
    size = jumps.shape[1] if size is None else size
    label = np.arange(size, dtype=np.int32 if size < 2**31 else np.int64)
    spare = np.empty_like(label)
    settled = k = 0
    lowered = False  # whether an earlier jump has lowered any label
    while settled < len(jumps):
        jump, changed = jumps[k % len(jumps)], False
        while not np.array_equal(jump, np.arange(len(jump))):  # the identity moves no label
            np.minimum(label, pull(label, jump, spare), out=spare)
            if np.array_equal(spare, label):
                break
            label, spare = spare, label
            jump, changed = jump[jump], True
        if changed:
            if lowered:
                label, spare = _pointer_jump(label, spare), label
            lowered, settled = True, 0
        settled += 1
        k += 1
    return label.astype(np.int64)


def orbit_reps(inv_images, n: int, d: int) -> np.ndarray:
    """Per-index minimal orbit member under the group the generators span.

    ``inv_images`` holds one row of inverse images per generator.  The
    fixpoint of :func:`orbit_minima` runs on these n-point rows: a label is
    pulled by one axis transpose (:func:`moved_values`) into the spare
    buffer, and the row of a generator's square is ``inv[inv]``, so no d**n
    table is built.
    """
    invs = np.asarray(inv_images, dtype=np.int64).reshape(len(inv_images), n)  # n == 0 too
    return orbit_minima(invs, int(d) ** n, lambda label, inv, out: moved_values(label, inv, d, out))
