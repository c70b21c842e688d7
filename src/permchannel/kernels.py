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
jump.  :func:`orbit_reps` runs it on the generators' n-point inverse-image
rows: ``label[action_table(inv, d)]`` is ``moved_values(label, inv, d)``, one
axis transpose, and the table of the square is ``action_table(inv[inv], d)``,
so labelling all d**n strings builds no action table and no array larger
than d**n.  ``perms`` runs it on rank tables of group elements, pulled by
a gather.  The working labels are int32 below 2**31 points.
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


def moved_values(values: np.ndarray, inv_images, d: int) -> np.ndarray:
    """``values[action_table(inv_images, d)]``: the value at each string's image, by the same transpose."""
    inv = np.asarray(inv_images, dtype=np.int64)
    d = int(d)
    if d == 1:  # the one string; n axes could exceed numpy's limit on array rank
        return values.copy()
    return values.reshape((d,) * inv.shape[0]).transpose(np.argsort(inv)).ravel()


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


def _gather(label: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``label[table]``: each point's label pulled from its image under an index table."""
    return label[table]


def orbit_minima(jumps: np.ndarray, size: int | None = None, pull=_gather) -> np.ndarray:
    """Least point of each of ``size`` points' orbit under the bijections ``jumps`` (one per row).

    ``pull(label, jump)`` is the label at each point's image under ``jump``,
    and ``jump[jump]`` must be the jump of the square: true of index tables
    pulled by ``label[table]`` (the default, ``size`` then the row length) and
    of inverse-image rows pulled by :func:`moved_values`.  For one jump j,
    round k pulls the label of the point 2**k steps ahead (j**(2**k)), so
    after k rounds each label is the least over a window of 2**k steps.  A
    round that changes nothing means every window already holds its cycle's
    minimum, so a long cycle settles in about log2(length) rounds.  The jumps
    are taken in turn until all of them in a row leave the labels unchanged;
    then the labels are constant on every orbit, and equal its least point.
    The jump ``label[label]`` after a change carries a lower label found
    elsewhere to every point that points at it.  Labels are held as int32
    below 2**31 points, halving the memory each round streams; the result is
    int64.
    """
    size = jumps.shape[1] if size is None else size
    label = np.arange(size, dtype=np.int32 if size < 2**31 else np.int64)
    settled = k = 0
    while settled < len(jumps):
        jump, changed = jumps[k % len(jumps)], False
        while True:
            pulled = np.minimum(label, pull(label, jump))
            if np.array_equal(pulled, label):
                break
            label, jump, changed = pulled, jump[jump], True
        if changed:
            label, settled = label[label], 1
        else:
            settled += 1
        k += 1
    return label.astype(np.int64)


def orbit_reps(inv_images, n: int, d: int) -> np.ndarray:
    """Per-index minimal orbit member under the group the generators span.

    ``inv_images`` holds one row of inverse images per generator.  The
    fixpoint of :func:`orbit_minima` runs on these n-point rows: a label is
    pulled by one axis transpose (:func:`moved_values`), and the row of a
    generator's square is ``inv[inv]``, so no d**n table is built.
    """
    invs = np.asarray(inv_images, dtype=np.int64).reshape(len(inv_images), n)  # n == 0 too
    return orbit_minima(invs, int(d) ** n, lambda label, inv: moved_values(label, inv, d))
