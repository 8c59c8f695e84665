"""Generator-image maps: application, verification, order, innerness.

A GroupMap assigns an image to each defining generator.  Nothing is
assumed about it until verify_automorphism has passed; after that the
usual automorphism machinery (composition order, inner-witness search,
fixed subgroups) applies.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from . import fp
from .pcgroup import Element, PcGroup
from .structure import QuotientCoords, Subgroup, center, frattini


class GroupMap:
    """Map determined by generator images, applied in normal-form order:
    (e_1, ..., e_m) goes to images[1]**e_1 * ... * images[m]**e_m."""

    __slots__ = ("group", "images", "_table")

    def __init__(self, group: PcGroup, images: Sequence[Element]):
        if len(images) != group.ngens:
            raise ValueError(
                f"expected {group.ngens} generator images, got {len(images)}"
            )
        self.group = group
        self.images = tuple(images)
        self._table: Optional[np.ndarray] = None

    def apply(self, x: Element) -> Element:
        G = self.group
        out = G.identity
        for k in range(G.ngens):
            e = x[k]
            if e:
                out = G.mul(out, G.pow(self.images[k], e))
        return out

    def apply_table(self) -> np.ndarray:
        """Array T with T[i] = idx(apply(vec(i))), built by peeling the
        last letter: apply(x' * g_k) = apply(x') * images[k].

        The elements whose last nonzero coordinate is k, with value e,
        form one level; each level is a single product of index arrays,
        taken after the levels that hold its parents x'.
        """
        if self._table is None:
            G = self.group
            G._check_bound()
            p = G.p
            table = np.zeros(G.element_count, dtype=np.int64)
            for k in range(1, G.ngens + 1):
                s = G._stride(k)
                heads = np.arange(p ** (k - 1), dtype=np.int64) * p * s
                image = G.idx(self.images[k - 1])
                for e in range(1, p):
                    ys = heads + e * s
                    table[ys] = G.mul_indices(table[ys - s], image)
            self._table = table
        return self._table

    def is_identity(self) -> bool:
        return self.images == tuple(self.group.gens)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupMap):
            return NotImplemented
        return self.group is other.group and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"GroupMap({list(self.images)})"


def compose(f: GroupMap, g: GroupMap) -> GroupMap:
    """Map applying f first, then g."""
    if f.group is not g.group:
        raise ValueError("maps act on different groups")
    return GroupMap(f.group, [g.apply(im) for im in f.images])


def _frattini_coords(group: PcGroup) -> QuotientCoords:
    qc = group._cache.get("frattini_coords")
    if qc is None:
        qc = QuotientCoords(group, frattini(group))
        group._cache["frattini_coords"] = qc
    return qc


def verify_automorphism(f: GroupMap) -> Optional[str]:
    """None when f is an automorphism, else a failure reason.

    Homomorphism: every defining relation must hold on the images
    (including the trivial ones).  Bijectivity: the images must generate,
    which for a p-group reduces to full rank modulo the Frattini
    subgroup.
    """
    G = f.group
    p = G.p
    for k in range(1, G.ngens + 1):
        lhs = G.pow(f.images[k - 1], p)
        rhs = f.apply(G._power_value(k))
        if lhs != rhs:
            return f"power relation for g{k} is not preserved"
    for j in range(2, G.ngens + 1):
        for i in range(1, j):
            lhs = G.comm(f.images[j - 1], f.images[i - 1])
            rhs = f.apply(G.collect(G.pres.commutator(j, i)))
            if lhs != rhs:
                return f"commutator relation [g{j}, g{i}] is not preserved"
    qc = _frattini_coords(G)
    mat = [qc.coords(im) for im in f.images]
    if fp.rank(mat, p) != qc.dim:
        return "images do not generate the group"
    return None


def map_order(f: GroupMap, bound: int = 10_000) -> int:
    """Least k >= 1 with the k-fold composition equal to the identity."""
    cur = f
    k = 1
    while not cur.is_identity():
        cur = compose(cur, f)
        k += 1
        if k > bound:
            raise RuntimeError(f"map order exceeds bound {bound}")
    return k


def _conj_columns(group: PcGroup) -> list[np.ndarray]:
    """For each generator g_k an array D with D[i] = idx(vec(i)^-1 g_k vec(i))."""
    cols = group._cache.get("conj_columns")
    if cols is None:
        inv_t = group.inv_table()
        cols = [group.mul_indices(inv_t, group.left_mult_perm(g)) for g in group.gens]
        group._cache["conj_columns"] = cols
    return cols


def find_conjugating_element(f: GroupMap) -> Optional[Element]:
    """The index-least g with conjugation by g equal to f, or None.

    Witnesses come in whole center-cosets, so scanning every element is
    the same search as one representative per Z(G)-coset.
    """
    G = f.group
    cols = _conj_columns(G)
    mask = np.ones(G.element_count, dtype=bool)
    for k in range(G.ngens):
        mask &= cols[k] == G.idx(f.images[k])
    hits = np.nonzero(mask)[0]
    if hits.size:
        return G.vec(int(hits[0]))
    return None


def inner_search_size(group: PcGroup) -> int:
    """Number of essentially distinct conjugation candidates: one per
    center coset."""
    return group.element_count // center(group).order


def fixes_elementwise(f: GroupMap, sub: Subgroup) -> bool:
    table = f.apply_table()
    idxs = sub.indices
    return bool((table[idxs] == idxs).all())


def is_central_map(f: GroupMap) -> bool:
    """Whether g^-1 f(g) is central for every generator."""
    G = f.group
    z = center(G)
    return all(
        G.mul(G.inv(gen), f.images[k]) in z
        for k, gen in enumerate(G.gens)
    )
