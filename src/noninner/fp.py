"""Dense linear algebra over F_p on one matrix (r, c) or a stack (B, r, c),
reduced in one elimination vectorised over its matrices and rows.  Entries
stay below p, so products fit in int64 for p below 3 * 10^9."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _eliminate(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Echelon forms of the matrix or stack a, as a stack, up to the order
    and scale of rows, and the mask of their zero rows.  At column c each
    matrix pivots on its first free row (holding no pivot yet) nonzero
    there, and sets row_i <- pivot * row_i - a_ic * pivot_row in its other
    rows; one with no such row is left alone.  So a free row is zero at c
    and before, each pivot row leads with its pivot, and the rows still
    free at the end are the zero rows."""
    a = a[None] if a.ndim == 2 else a
    n, rows, cols = a.shape
    at, free = np.arange(n), np.ones((n, rows), dtype=bool)
    for c in range(cols if rows else 0):
        col = a[:, :, c]
        cand = np.logical_and(col, free)
        src = cand.argmax(axis=1)
        found = cand[at, src]
        prow = a[at, src]
        piv = np.where(found, prow[:, c], 1)
        clear = col * found[:, None]
        clear[at, src] = 0
        a = (a * piv[:, None, None] - clear[:, :, None] * prow[:, None, :]) % p
        free &= a[:, :, c] == 0
    return a, free


def rank(mat: Sequence, p: int):
    """Rank of `mat` over F_p; for a stack, an array of ranks."""
    a = np.atleast_2d(np.asarray(mat, dtype=np.int64) % p)
    ranks = a.shape[-2] - _eliminate(a, p)[1].sum(axis=1)
    return int(ranks[0]) if a.ndim == 2 else ranks

