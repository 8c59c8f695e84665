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


def row_echelon(mat: Sequence, p: int) -> tuple[np.ndarray, list]:
    """Reduced row-echelon form of `mat` over F_p and its pivot columns (for
    a stack, the forms and a list per matrix): `_eliminate`'s rows times
    x^(p-2) = x^-1 for their leading entries x, sorted by leading column."""
    a = np.atleast_2d(np.asarray(mat, dtype=np.int64) % p)
    ech = _eliminate(a, p)[0]
    # a row's leading zeros count its pivot column, c for a zero row
    lead = np.cumprod(ech == 0, axis=2).sum(axis=2)
    x = (ech * (np.arange(a.shape[-1]) == lead[:, :, None])).sum(axis=2, keepdims=True)
    ech = ech * np.frompyfunc(lambda v: pow(int(v), p - 2, p), 1, 1)(x).astype(np.int64) % p
    ech = np.take_along_axis(ech, lead.argsort(axis=1)[:, :, None], axis=1)
    pivots = [row[row < a.shape[-1]].tolist() for row in np.sort(lead, axis=1)]
    return (ech[0], pivots[0]) if a.ndim == 2 else (ech, pivots)


def rank(mat: Sequence, p: int):
    """Rank of `mat` over F_p; for a stack, an array of ranks."""
    a = np.atleast_2d(np.asarray(mat, dtype=np.int64) % p)
    ranks = a.shape[-2] - _eliminate(a, p)[1].sum(axis=1)
    return int(ranks[0]) if a.ndim == 2 else ranks

