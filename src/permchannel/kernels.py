"""Index-space kernels for the position action on all d**n strings.

Length-``n`` strings over ``{0..d-1}`` are identified with integers in
``[0, d**n)``, position 0 being the most significant base-``d`` digit.  Then
``arange(d**n).reshape((d,) * n)`` holds each string's index at the string
itself, and moving positions is moving axes: :func:`action_table` is one
axis transpose and copy, O(d**n), and :func:`moved_values` moves any
per-string array the same way.  :func:`move_indices` moves only a few
given strings, by their digits, without a d**n table.

:func:`orbit_minima` labels every point with the least point of its orbit
under a few bijections of ``range(size)``.  :func:`orbit_reps` applies it to
the generators' action tables; ``perms`` applies it to rank tables of group
elements.
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


def orbit_minima(tables: np.ndarray) -> np.ndarray:
    """Least point of each point's orbit under the bijections ``tables`` (one per row).

    For one table t, round k pulls the label of the point 2**k steps ahead
    (``label[t**(2**k)]``), so after k rounds each label is the least over a
    window of 2**k steps.  A round that changes nothing means every window
    already holds its cycle's minimum, so a long cycle settles in about
    log2(length) rounds.  The tables are taken in turn until all of them in a
    row leave the labels unchanged; then the labels are constant on every
    orbit, and equal its least point.  The jump ``label[label]`` after a
    change carries a lower label found elsewhere to every point that points
    at it.
    """
    label = np.arange(tables.shape[1])
    settled = k = 0
    while settled < len(tables):
        jump, changed = tables[k % len(tables)], False
        while True:
            pulled = np.minimum(label, label[jump])
            if np.array_equal(pulled, label):
                break
            label, jump, changed = pulled, jump[jump], True
        if changed:
            label, settled = label[label], 1
        else:
            settled += 1
        k += 1
    return label


def orbit_reps(inv_images, n: int, d: int) -> np.ndarray:
    """Per-index minimal orbit member under the group the generators span.

    ``inv_images`` holds one row of inverse images per generator.
    """
    invs = np.asarray(inv_images, dtype=np.int64).reshape(-1, n)
    tables = np.empty((len(invs), int(d) ** n), dtype=np.int64)
    for row, inv in zip(tables, invs):
        row[:] = action_table(inv, d)
    return orbit_minima(tables)
