"""Generator-image maps: application, verification, order, innerness.

A GroupMap assigns an image to each defining generator, held as an
element index; every check evaluates it through its table.  Nothing is
assumed about it until verify_automorphism has passed; after that the
usual automorphism machinery (composition order, inner-witness search,
fixed subgroups) applies.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from . import fp
from .errors import CertificationError
from .pcgroup import PcGroup
from .structure import QuotientCoords, Subgroup, _conj_gen_perms, center, frattini, power_table


class GroupMap:
    """Map determined by the indices of the generator images, applied in
    normal-form order: (e_1, ..., e_m) goes to
    image_1**e_1 * ... * image_m**e_m."""

    __slots__ = ("group", "image_indices", "_table")

    def __init__(self, group: PcGroup, image_indices: Sequence[int] | np.ndarray):
        image_indices = np.array(image_indices, dtype=np.int64)
        if image_indices.shape != (group.ngens,):
            raise ValueError(
                f"expected {group.ngens} generator images, got {image_indices.size}"
            )
        self.group = group
        self.image_indices = image_indices
        self._table: Optional[np.ndarray] = None

    def apply_table(self) -> np.ndarray:
        """Array T with T[i] = index of the image of vec(i), built by
        peeling the last letter: f(x' * g_k) = f(x') * image_k.

        The elements whose last nonzero coordinate is k, with value e,
        form one level; each level is a single product of index arrays,
        taken after the levels that hold its parents x'.
        """
        if self._table is None:
            G = self.group
            table = np.zeros(G.element_count, dtype=np.int64)
            for k, ys, parents in G._last_letter_levels():
                table[ys] = G.mul_indices(table[parents], self.image_indices[k - 1])
            self._table = table
        return self._table

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.image_indices, self.group.gen_indices))

    def __repr__(self) -> str:
        return f"GroupMap({self.image_indices.tolist()})"


def compose(f: GroupMap, g: GroupMap) -> GroupMap:
    """Map applying f first, then g."""
    if f.group is not g.group:
        raise ValueError("maps act on different groups")
    return GroupMap(f.group, g.apply_table()[f.image_indices])


def _frattini_coords(group: PcGroup) -> QuotientCoords:
    qc = group._cache.get("frattini_coords")
    if qc is None:
        qc = QuotientCoords(group, frattini(group))
        group._cache["frattini_coords"] = qc
    return qc


def generates(group: PcGroup, indices):
    """Whether the elements with the given indices generate the group (for
    a (B, k) array, whether each row does).  By Burnside's basis theorem,
    exactly when their Frattini coordinates have full rank modulo Phi(G),
    in one `fp.rank` call (`verify_automorphism` reads its table instead)."""
    qc, indices = _frattini_coords(group), np.asarray(indices, dtype=np.int64)
    full = fp.rank(qc.coords(indices).reshape(*indices.shape, qc.dim), group.p) == qc.dim
    return full if indices.ndim == 2 else bool(full)


def verify_automorphism(f: GroupMap) -> Optional[str]:
    """None when f is an automorphism, else a failure reason.

    Homomorphism: every defining relation must hold on the images
    (including the trivial ones); both sides of all relations are
    evaluated at once on index arrays, the right-hand side through f's
    table, and the first failure in the order g1, ..., gm, then [g2, g1],
    [g3, g1], [g3, g2], ... is reported.  Once they hold, the table is a
    homomorphism of a finite group, bijective exactly when it is a
    permutation of the indices, that is exactly when the images generate.
    """
    G = f.group
    m = G.ngens
    images = f.image_indices
    table = f.apply_table()
    lhs = power_table(G)[images]
    rhs = table[[G._word_index(G.pres.power(k)) for k in range(1, m + 1)]]
    bad = np.nonzero(lhs != rhs)[0]
    if bad.size:
        return f"power relation for g{bad[0] + 1} is not preserved"
    pairs = [(j, i) for j in range(2, m + 1) for i in range(1, j)]
    lhs = G.comm_indices(images[[j - 1 for j, _ in pairs]], images[[i - 1 for _, i in pairs]])
    rhs = table[[G._word_index(G.pres.commutator(j, i)) for j, i in pairs]]
    bad = np.nonzero(lhs != rhs)[0]
    if bad.size:
        j, i = pairs[bad[0]]
        return f"commutator relation [g{j}, g{i}] is not preserved"
    if not np.bincount(table, minlength=G.element_count).all():
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
            raise CertificationError(f"map order exceeds bound {bound}")
    return k


def _conj_columns(group: PcGroup) -> np.ndarray:
    """Array D with D[k - 1, i] = idx(vec(i)^-1 g_k vec(i)), built by the
    levels of `apply_table`: for y = parent * g_j, y^-1 g_k y is
    (parent^-1 g_k parent)^(g_j), a gather of the parents' columns
    through the conjugation permutation of g_j."""
    cols = group._cache.get("conj_columns")
    if cols is None:
        perms = _conj_gen_perms(group)
        cols = np.empty((group.ngens, group.element_count), dtype=np.int64)
        cols[:, 0] = group.gen_indices
        for j, ys, parents in group._last_letter_levels():
            cols[:, ys] = perms[j - 1][cols[:, parents]]
        group._cache["conj_columns"] = cols
    return cols


def find_conjugating_element(f: GroupMap) -> Optional[int]:
    """The least index g with conjugation by g equal to f, or None.

    Witnesses come in whole center-cosets, so scanning every element is
    the same search as one representative per Z(G)-coset.
    """
    G = f.group
    cols = _conj_columns(G)
    mask = np.ones(G.element_count, dtype=bool)
    for k in range(G.ngens):
        mask &= cols[k] == f.image_indices[k]
    hits = np.nonzero(mask)[0]
    return int(hits[0]) if hits.size else None


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
    tails = G.mul_indices(G.inv_table()[G.gen_indices], f.image_indices)
    return bool(center(G).mask[tails].all())
