"""Subgroups, central series and quotient coordinates for PcGroup.

A subgroup is stored as the sorted index array of its elements (the
package targets groups of desk-scale order, a few thousand elements);
its membership mask and a canonical induced generating sequence are
derived from that array on demand, so equal subgroups always present
identical bases.  Closures, series and quotient predicates work on
index arrays through the group's generator tables and the cached table
of p-th powers, and basis elements are element indices too.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import StructureError
from .pcgroup import PcGroup, PcPresentation, per_group


class Subgroup:
    """A subgroup given by the sorted index array of its elements (the
    identity, index 0, first).  It keeps the group's presentation, not
    the group, so a group may cache its subgroups (see `per_group`), and
    subgroups of groups built from equal presentations compare equal.

    The canonical basis has one element index per pivot depth: for each
    depth k carrying part of the subgroup, the index-smallest element
    with leading coordinate 1 at k.  Its digits at the deeper pivots
    vanish: right-multiplying by an element of the normal subgroup
    G_j = <g_j, ..., g_m> keeps the digits before j and adds its digit j
    to digit j, so a nonzero digit at a deeper pivot j would be cleared
    by a power of j's basis element, giving a smaller member.  The basis
    depends only on the element set, so it is stable across different
    ways of constructing the same subgroup.
    """

    __slots__ = ("pres", "indices", "_mask", "_pivots")

    def __init__(self, group: PcGroup, indices: Sequence[int] | np.ndarray):
        idx = np.asarray(indices, dtype=np.int64)
        if not idx.size or idx[0] != 0:
            raise ValueError("subgroup must contain the identity")
        if (idx[1:] <= idx[:-1]).any():
            raise ValueError("subgroup indices must be sorted and distinct")
        self.pres = group.pres
        self.indices = idx
        self._mask: Optional[np.ndarray] = None
        # (pivot depths, basis element indices)
        self._pivots: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None

    @property
    def order(self) -> int:
        return len(self.indices)

    @property
    def log_order(self) -> int:
        """log_p of the order."""
        n = self.order
        k = 0
        while n > 1:
            if n % self.pres.p:
                raise ValueError(f"subgroup order {self.order} is not a p-power")
            n //= self.pres.p
            k += 1
        return k

    @property
    def mask(self) -> np.ndarray:
        """Boolean membership array over all element indices."""
        if self._mask is None:
            self._mask = np.zeros(self.pres.order, dtype=bool)
            self._mask[self.indices] = True
        return self._mask

    @property
    def basis(self) -> tuple[int, ...]:
        """Indices of the canonical basis elements, shallowest pivot first."""
        return self._pivot_state()[1]

    @property
    def pivots(self) -> tuple[int, ...]:
        """Depths of the basis elements' leading coordinates."""
        return self._pivot_state()[0]

    def _pivot_state(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        if self._pivots is None:
            p = self.pres.p
            depths, elements = _pivot_elements(self.pres, self.indices)
            if self.order != p ** len(depths):
                raise ValueError(
                    f"element set of size {self.order} is not a subgroup "
                    f"(basis spans p**{len(depths)})"
                )
            self._pivots = (tuple(depths.tolist()), tuple(elements.tolist()))
        return self._pivots

    def __le__(self, other: "Subgroup") -> bool:
        return bool(other.mask[self.indices].all())

    def __lt__(self, other: "Subgroup") -> bool:
        return self.order < other.order and self <= other

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.pres == other.pres and np.array_equal(self.indices, other.indices)

    def __hash__(self) -> int:
        return hash(self.indices.tobytes())

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, pivots={self.pivots})"


def _pivot_elements(pres: PcPresentation, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Depths k and indices of the pivot elements of the sorted array
    `idx`: per k, its least index with leading coordinate 1 at k."""
    strides = pres.p ** np.arange(pres.ngens - 1, -1, -1, dtype=np.int64)
    pos = np.minimum(np.searchsorted(idx, strides), len(idx) - 1)
    found = (idx[pos] >= strides) & (idx[pos] < 2 * strides)
    return np.nonzero(found)[0] + 1, idx[pos[found]]


def trivial_subgroup(group: PcGroup) -> Subgroup:
    return Subgroup(group, [0])


@per_group
def whole_group(group: PcGroup) -> Subgroup:
    group._check_bound()
    return Subgroup(group, np.arange(group.element_count))


@per_group
def power_table(group: PcGroup) -> np.ndarray:
    """Array P with P[i] = idx(vec(i)**p), by square and multiply."""
    group._check_bound()
    return group.pow_indices(np.arange(group.element_count, dtype=np.int64), group.p)


def closure(
    group: PcGroup, seeds: Sequence[int] | np.ndarray, moves: Sequence[np.ndarray] = ()
) -> Subgroup:
    """Subgroup generated by the elements with indices `seeds`.

    The seeds are taken in turn; a seed outside the subgroup found so
    far joins the generators, and the subgroup grows breadth-first by
    right multiplication with every generator.  Seeds already inside
    cost nothing, so a long seed list (all commutators of a term, say)
    adds at most log_p |G| generators, each one permutation of G.
    `moves` are permutations of G that the search applies too: the
    result is then the set reached from 1 by both (see `normal_closure`).
    """
    n = group.element_count
    idx = np.arange(n, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    perms: list[np.ndarray] = list(moves)
    for s in np.asarray(seeds, dtype=np.int64).tolist():
        if seen[s]:
            continue
        perms.append(group.mul_indices(idx, s))
        frontier = np.nonzero(seen)[0]
        while frontier.size:
            new_mask = np.zeros(n, dtype=bool)
            for perm in perms:
                new_mask[perm[frontier]] = True
            new_mask &= ~seen
            seen |= new_mask
            frontier = np.nonzero(new_mask)[0]
    return Subgroup(group, np.nonzero(seen)[0])


@per_group
def _conj_gen_perms(group: PcGroup) -> list[np.ndarray]:
    """P_k[x] = x^(g_k) for each generator, from the generator table T_k
    and the inverse table it: x -> x^-1 g_k -> g_k^-1 x -> g_k^-1 x g_k."""
    it = group.inv_table()
    return [t[it[t[it]]] for t in group._tables()[1:]]


def normal_closure(group: PcGroup, seeds: Sequence[int] | np.ndarray) -> Subgroup:
    """Smallest normal subgroup containing the elements with indices
    `seeds`, in one `closure` search whose moves are also the
    generators' conjugations (`_conj_gen_perms`).  The set S it reaches
    from 1 lies in the normal closure and holds every conjugate c of a
    seed s, c = s^w; it is closed under conjugation, so for x in S,
    x c = (x^(w^-1) s)^w is in S too.  S is therefore closed under right
    multiplication by the conjugates of the seeds, which generate the
    normal closure."""
    return closure(group, seeds, _conj_gen_perms(group))


def is_normal(group: PcGroup, sub: Subgroup) -> bool:
    perms = _conj_gen_perms(group)
    return all(bool(sub.mask[perm[sub.indices]].all()) for perm in perms)


def coset_min_table(group: PcGroup, sub: Subgroup) -> np.ndarray:
    """Array M with M[i] = smallest index in the right coset vec(i)*S.

    Two indices share a value exactly when they lie in the same right
    coset; for normal S these are the cosets of G/S.  S's canonical
    basis is folded into the identity table (`_fold_basis`).
    """
    return _fold_basis(group, np.arange(group.element_count, dtype=np.int64), sub.basis)


def _fold_basis(group: PcGroup, table: np.ndarray, elements: Sequence[int]) -> np.ndarray:
    """The coset-minimum table of a subgroup T_1 from that of T_(s+1)
    and elements c_1, ..., c_s such that each T_j is the union of the
    c_j^e * T_(j+1) over e in [0, p): then

        min(x * T_j) = min over e of min(x * c_j^e * T_(j+1)),

    folded deepest c_j first.  The tails T_j = <b_j, ..., b_r> of a
    canonical basis (an induced pc sequence) qualify, above T_(r+1) = 1.
    Each element costs one right-multiplication permutation and p - 1
    gathers into a running minimum, in O(|G|) memory.
    """
    for c in reversed(elements):
        perm = group.right_mult_perm(c)
        # shifted[x] = table[x * c^e] after the e-th step
        shifted, folded = table, table.copy()
        for _ in range(group.p - 1):
            shifted = shifted[perm]
            np.minimum(folded, shifted, out=folded)
        table = folded
    return table


def _fixed_by_conjugation(group: PcGroup, targets: Iterable[int]) -> np.ndarray:
    """Sorted indices of the x with x^t = x for every target index t,
    where x^t for t = g_1^e_1 ... g_m^e_m is x conjugated by g_1 e_1
    times, then by g_2 e_2 times, ...: gathers through `_conj_gen_perms`."""
    perms = _conj_gen_perms(group)
    idx = np.arange(group.element_count, dtype=np.int64)
    mask = np.ones(group.element_count, dtype=bool)
    for t in targets:
        conj = idx
        for perm, e in zip(perms, group.vec(int(t))):
            for _ in range(e):
                conj = perm[conj]
        mask &= conj == idx
    return np.nonzero(mask)[0]


def center(group: PcGroup) -> Subgroup:
    """Z(G), the first step of `upper_central_series`."""
    return upper_central_series(group)[1]


@per_group
def upper_central_series(group: PcGroup) -> list[Subgroup]:
    """[1 = Z_0, Z_1, ..., Z_c = G], strictly ascending.

    Z_(i+1) holds the x whose coset x Z_i every generator fixes by
    conjugation, read from Z_i's coset-minimum table.  One table runs up
    the series: Z_i's is Z = Z_(i-1)'s folded (`_fold_basis`) with the
    basis elements c_j of Z_i at the pivots d_1 < ... < d_s that Z lacks,
    log_p |Z_(c-1)| folds in all.  This is exact: T_j = Z_i n G_(d_j) Z is
    a subgroup (G_d = <g_d, ..., g_m> is normal), T_1 = Z_i, T_(s+1) = Z,
    and sifting shows T_j is the disjoint union of the c_j^e T_(j+1), as
    c_j^e in T_(j+1) would give Z an element leading at d_j, no pivot of Z.
    """
    perms = _conj_gen_perms(group)
    series = [trivial_subgroup(group)]
    m_table = np.arange(group.element_count, dtype=np.int64)
    while series[-1].order < group.element_count:
        mask = np.ones(group.element_count, dtype=bool)
        for perm in perms:
            mask &= m_table[perm] == m_table
        nxt = Subgroup(group, np.nonzero(mask)[0])
        if nxt.order <= series[-1].order:
            raise StructureError("upper central series stalled; group not nilpotent")
        series.append(nxt)
        if nxt.order < group.element_count:
            known = set(series[-2].pivots)
            m_table = _fold_basis(
                group, m_table, [b for k, b in zip(nxt.pivots, nxt.basis) if k not in known]
            )
    return series


@per_group
def derived_subgroup(group: PcGroup) -> Subgroup:
    """G' as the normal closure of the commutator relation words, the
    normal forms of the [g_j, g_i]: modulo it the defining generators
    commute, and every commutator lies in G'."""
    comm = group.relation_indices[1]
    return normal_closure(group, [c for row in comm for c in row if c])


@per_group
def lower_central_series(group: PcGroup) -> list[Subgroup]:
    """[G = term_1, term_2, ..., 1], strictly descending, with
    term_2 = `derived_subgroup`.

    For H = <X>, [H, G] is the normal closure of the [x, g_k] over x in
    X and the defining generators g_k: modulo it every x commutes with
    every g_k, so H is central.  The r pivot elements of a term (see
    `_pivot_elements`) have distinct leading depths, with coordinate 1
    there, so their p^r normal-form products are distinct: they generate
    the term, and each later step takes the normal closure of m * r
    commutators [x, g_k] = x^-1 x^(g_k).
    """
    perms = _conj_gen_perms(group)
    inv_t = group.inv_table()
    series = [whole_group(group)]
    while series[-1].order > 1:
        cur = series[-1]
        if len(series) == 1:
            nxt = derived_subgroup(group)
        else:
            x = _pivot_elements(group.pres, cur.indices)[1]
            comms = group.mul_indices(inv_t[x], np.array([perm[x] for perm in perms]))
            nxt = normal_closure(group, comms.ravel())
        if not nxt < cur:
            raise StructureError("lower central series stalled; group not nilpotent")
        series.append(nxt)
    return series


def nilpotency_class(group: PcGroup) -> int:
    """Nilpotency class, read from the upper central series: in a
    nilpotent group the upper and lower central series have the same
    length, and the route needs the upper one anyway."""
    return len(upper_central_series(group)) - 1


def coclass(group: PcGroup) -> int:
    return group.ngens - nilpotency_class(group)


@per_group
def frattini(group: PcGroup) -> Subgroup:
    """Frattini subgroup Phi(G) = G' G^p, as the normal closure of all
    relation words, commutator and power: modulo it the defining
    generators commute and have p-th power 1, so the quotient is
    elementary abelian, and every relation word lies in G' G^p."""
    power, comm = group.relation_indices
    return normal_closure(group, [c for row in comm + [power] for c in row if c])


def minimal_generator_count(group: PcGroup) -> int:
    return group.ngens - frattini(group).log_order


def centralizer(group: PcGroup, targets: Iterable[int]) -> Subgroup:
    """Elements commuting with every target index (pass a subgroup's
    basis to centralize the subgroup), by `_fixed_by_conjugation`."""
    return Subgroup(group, _fixed_by_conjugation(group, targets))


def omega1(group: PcGroup, sub: Subgroup) -> Subgroup:
    """Subgroup generated by the elements of `sub` of order dividing p."""
    return closure(group, sub.indices[power_table(group)[sub.indices] == 0])


def intersection(a: Subgroup, b: Subgroup) -> Subgroup:
    """Intersection of two subgroups of the same group."""
    if a.pres != b.pres:
        raise ValueError("subgroups of different groups")
    # a Subgroup reads only the presentation of its first argument
    return Subgroup(a, a.indices[b.mask[a.indices]])


def center_of(group: PcGroup, sub: Subgroup) -> Subgroup:
    """Center of `sub`: its elements commuting with all of `sub`."""
    return intersection(centralizer(group, sub.basis), sub)


def quotient_exponent_is_p(group: PcGroup, sub: Subgroup) -> bool:
    """Whether every p-th power lands in `sub` (normal), i.e. the
    quotient has exponent dividing p."""
    return bool(sub.mask[power_table(group)].all())


def quotient_is_cyclic(group: PcGroup, upper: Subgroup, lower: Subgroup) -> bool:
    """Whether upper/lower is cyclic (lower normal in upper).

    The quotient is a p-group, so it is cyclic exactly when its exponent
    equals its order; the exponent is the least p^k that takes every
    element of `upper` into `lower`."""
    if not lower <= upper:
        raise ValueError("lower must be contained in upper")
    powers = power_table(group)
    y = upper.indices
    k = 1
    while not lower.mask[y].all():
        y = powers[y]
        k *= group.p
    return k == upper.order // lower.order


class QuotientCoords:
    """Coordinates on an elementary abelian quotient G/S.

    Right-multiplying by powers of S's basis elements, pivot by pivot in
    ascending order, clears the digits at S's pivots (see `Subgroup`)
    and leaves the earlier digits alone, so each coset of S holds
    exactly one element whose pivot digits vanish, and the images of the
    other generators (the added pivots) form a basis of G/S.  The
    coordinates of an element are the digits of its coset's
    representative at the added pivots: a homomorphism onto F_p^dim
    with kernel S.  Only the images of the defining generators are
    kept, and they refer to no group.

    They are read from digits, without a product: g_k at an added pivot
    is its own representative, with image the unit vector u_k, and at a
    pivot k of S the basis element b_k = g_k * (letters beyond k) has
    digit 0 at S's deeper pivots, so 0 = coords(b_k) = coords(g_k) + the
    sum of e_l(b_k) u_l over the added l > k.
    """

    def __init__(self, group: PcGroup, sub: Subgroup):
        p, m = group.p, group.ngens
        power, comm = group.relation_indices
        if not sub.mask[comm].all():
            raise ValueError("quotient is not abelian")
        if not sub.mask[power].all():
            raise ValueError("quotient does not have exponent p")
        places = group.gen_indices
        self.p = p
        self._places = places
        self.added_pivots = tuple(k for k in range(1, m + 1) if k not in sub.pivots)
        self.dim = len(self.added_pivots)
        added_places = places[[k - 1 for k in self.added_pivots]].reshape(1, -1)
        # b_k at each pivot k of S, the identity elsewhere
        kernel = np.zeros(m, dtype=np.int64)
        kernel[[k - 1 for k in sub.pivots]] = sub.basis
        gen, ker = places.reshape(-1, 1), kernel.reshape(-1, 1)
        self._gen_coords = (gen // added_places - ker // added_places) % p

    def coords(self, indices) -> np.ndarray:
        """Images in F_p^dim of the elements with the given indices, one
        row each: the sum of e_k times the image of g_k over the
        coordinates e_k of the element, as the map is a homomorphism
        onto an elementary abelian group."""
        digits = np.asarray(indices, dtype=np.int64).reshape(-1, 1) // self._places % self.p
        return digits @ self._gen_coords % self.p
