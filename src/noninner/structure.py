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
from .pcgroup import PcGroup


class Subgroup:
    """A subgroup given by the sorted index array of its elements (the
    identity, index 0, first).

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

    __slots__ = ("group", "_state")

    def __init__(self, group: PcGroup, indices: Sequence[int] | np.ndarray):
        idx = np.asarray(indices, dtype=np.int64)
        if not idx.size or idx[0] != 0:
            raise ValueError("subgroup must contain the identity")
        if (idx[1:] <= idx[:-1]).any():
            raise ValueError("subgroup indices must be sorted and distinct")
        self.group = group
        self._state = _SubgroupState(idx)

    @classmethod
    def _view(cls, group: PcGroup, state: "_SubgroupState") -> "Subgroup":
        sub = cls.__new__(cls)
        sub.group, sub._state = group, state
        return sub

    @property
    def indices(self) -> np.ndarray:
        """Sorted element indices."""
        return self._state.indices

    @property
    def order(self) -> int:
        return len(self._state.indices)

    @property
    def log_order(self) -> int:
        """log_p of the order."""
        n = self.order
        k = 0
        while n > 1:
            if n % self.group.p:
                raise ValueError(f"subgroup order {self.order} is not a p-power")
            n //= self.group.p
            k += 1
        return k

    @property
    def mask(self) -> np.ndarray:
        """Boolean membership array over all element indices."""
        state = self._state
        if state.mask is None:
            state.mask = np.zeros(self.group.element_count, dtype=bool)
            state.mask[state.indices] = True
        return state.mask

    @property
    def basis(self) -> tuple[int, ...]:
        """Indices of the canonical basis elements, shallowest pivot first."""
        return self._pivot_state()[1]

    @property
    def pivots(self) -> tuple[int, ...]:
        """Depths of the basis elements' leading coordinates."""
        return self._pivot_state()[0]

    def _pivot_state(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        state = self._state
        if state.pivots is None:
            depths, elements = _pivot_elements(self.group, self.indices)
            if self.order != self.group.p ** len(depths):
                raise ValueError(
                    f"element set of size {self.order} is not a subgroup "
                    f"(basis spans p**{len(depths)})"
                )
            state.pivots = (tuple(depths.tolist()), tuple(elements.tolist()))
        return state.pivots

    def __le__(self, other: "Subgroup") -> bool:
        return bool(other.mask[self.indices].all())

    def __lt__(self, other: "Subgroup") -> bool:
        return self.order < other.order and self <= other

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.group is other.group and np.array_equal(self.indices, other.indices)

    def __hash__(self) -> int:
        return hash(self.indices.tobytes())

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, pivots={self.pivots})"


def _pivot_elements(group: PcGroup, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Depths k and indices of the pivot elements of the sorted array
    `idx`: per k, its least index with leading coordinate 1 at k."""
    strides = group.gen_indices
    pos = np.minimum(np.searchsorted(idx, strides), len(idx) - 1)
    found = (idx[pos] >= strides) & (idx[pos] < 2 * strides)
    return np.nonzero(found)[0] + 1, idx[pos[found]]


class _SubgroupState:
    """Everything a Subgroup knows apart from its group, shared by every
    view of it.  The group's cache keeps these states, not Subgroups: a
    cached Subgroup would refer back to the group, and that reference
    cycle would keep the group and all its tables alive until the next
    full garbage collection."""

    __slots__ = ("indices", "mask", "pivots")

    def __init__(self, indices: np.ndarray):
        self.indices = indices
        self.mask: Optional[np.ndarray] = None
        # (pivot depths, basis element indices)
        self.pivots: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None


def _cached(group: PcGroup, key: str):
    """The cached Subgroup, or list of Subgroups, under `key`, or None."""
    states = group._cache.get(key)
    if isinstance(states, list):
        return [Subgroup._view(group, s) for s in states]
    return None if states is None else Subgroup._view(group, states)


def _store(group: PcGroup, key: str, value):
    """Cache a Subgroup or a list of Subgroups by state; returns it."""
    if isinstance(value, list):
        group._cache[key] = [sub._state for sub in value]
    else:
        group._cache[key] = value._state
    return value


def trivial_subgroup(group: PcGroup) -> Subgroup:
    return Subgroup(group, [0])


def whole_group(group: PcGroup) -> Subgroup:
    sub = _cached(group, "whole")
    if sub is None:
        group._check_bound()
        sub = _store(group, "whole", Subgroup(group, np.arange(group.element_count)))
    return sub


def power_table(group: PcGroup) -> np.ndarray:
    """Array P with P[i] = idx(vec(i)**p), built once per group."""
    table = group._cache.get("power_table")
    if table is None:
        group._check_bound()
        x = np.arange(group.element_count, dtype=np.int64)
        table = x
        for _ in range(group.p - 1):
            table = group.mul_indices(table, x)
        group._cache["power_table"] = table
    return table


def closure(group: PcGroup, seeds: Sequence[int] | np.ndarray) -> Subgroup:
    """Subgroup generated by the elements with indices `seeds`.

    The seeds are taken in turn; a seed outside the subgroup found so
    far joins the generators, and the subgroup grows breadth-first by
    right multiplication with every generator.  Seeds already inside
    cost nothing, so a long seed list (all commutators of a term, say)
    adds at most log_p |G| generators, each one permutation of G.
    """
    n = group.element_count
    idx = np.arange(n, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    perms: list[np.ndarray] = []
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


def _conj_gen_perms(group: PcGroup) -> list[np.ndarray]:
    perms = group._cache.get("conj_gen_perms")
    if perms is None:
        perms = [group.conj_perm(g) for g in group.gen_indices.tolist()]
        group._cache["conj_gen_perms"] = perms
    return perms


def normal_closure(group: PcGroup, seeds: Sequence[int] | np.ndarray) -> Subgroup:
    """Smallest normal subgroup containing the elements with indices
    `seeds`."""
    perms = _conj_gen_perms(group)
    sub = closure(group, seeds)
    while True:
        fresh = np.zeros(group.element_count, dtype=bool)
        for perm in perms:
            fresh[perm[sub.indices]] = True
        fresh &= ~sub.mask
        if not fresh.any():
            return sub
        sub = closure(group, np.concatenate([sub.indices, np.nonzero(fresh)[0]]))


def is_normal(group: PcGroup, sub: Subgroup) -> bool:
    perms = _conj_gen_perms(group)
    return all(bool(sub.mask[perm[sub.indices]].all()) for perm in perms)


def coset_min_table(group: PcGroup, sub: Subgroup) -> np.ndarray:
    """Array M with M[i] = smallest index in the right coset vec(i)*S.

    Two indices share a value exactly when they lie in the same right
    coset; for normal S these are the cosets of G/S.  The tails
    T_j = <b_j, ..., b_r> of the canonical basis are subgroups (an
    induced pc sequence), and T_j is the union of the b_j^e * T_(j+1)
    over e in [0, p), so

        min(x * T_j) = min over e of min(x * b_j^e * T_(j+1)).

    The basis is folded in deepest pivot first, starting from the
    identity table of T_(r+1) = 1.  Each basis element costs one
    right-multiplication permutation and p - 1 gathers into a running
    minimum: O(|G| * p * log_p |S|) time and O(|G|) memory.
    """
    out = np.arange(group.element_count, dtype=np.int64)
    for b in reversed(sub.basis):
        perm = group.right_mult_perm(b)
        # shifted[x] = out[x * b^e] after the e-th step
        shifted, folded = out, out.copy()
        for _ in range(group.p - 1):
            shifted = shifted[perm]
            np.minimum(folded, shifted, out=folded)
        out = folded
    return out


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
    """Elements fixed by conjugation with every defining generator."""
    sub = _cached(group, "center")
    if sub is None:
        sub = _store(
            group, "center", Subgroup(group, _fixed_by_conjugation(group, group.gen_indices))
        )
    return sub


def upper_central_series(group: PcGroup) -> list[Subgroup]:
    """[1 = Z_0, Z_1, ..., Z_c = G], strictly ascending."""
    series = _cached(group, "ucs")
    if series is not None:
        return series
    perms = _conj_gen_perms(group)
    series = [trivial_subgroup(group)]
    while series[-1].order < group.element_count:
        m_table = coset_min_table(group, series[-1])
        mask = np.ones(group.element_count, dtype=bool)
        for perm in perms:
            mask &= m_table[perm] == m_table
        nxt = Subgroup(group, np.nonzero(mask)[0])
        if nxt.order <= series[-1].order:
            raise StructureError("upper central series stalled; group not nilpotent")
        series.append(nxt)
    return _store(group, "ucs", series)


def lower_central_series(group: PcGroup) -> list[Subgroup]:
    """[G = term_1, term_2, ..., 1], strictly descending.

    For H = <X>, [H, G] is the normal closure of the [x, g_k] over x in
    X and the defining generators g_k: modulo it every x commutes with
    every g_k, so H is central.  The r pivot elements of a term (see
    `_pivot_elements`) have distinct leading depths, with coordinate 1
    there, so their p^r normal-form products are distinct: they generate
    the term, and each step takes the normal closure of m * r
    commutators [x, g_k] = x^-1 x^(g_k).
    """
    series = _cached(group, "lcs")
    if series is not None:
        return series
    perms = _conj_gen_perms(group)
    inv_t = group.inv_table()
    series = [whole_group(group)]
    while series[-1].order > 1:
        cur = series[-1]
        x = _pivot_elements(group, cur.indices)[1]
        comms = group.mul_indices(inv_t[x], np.array([perm[x] for perm in perms]))
        nxt = normal_closure(group, comms.ravel())
        if not nxt < cur:
            raise StructureError("lower central series stalled; group not nilpotent")
        series.append(nxt)
    return _store(group, "lcs", series)


def nilpotency_class(group: PcGroup) -> int:
    return len(lower_central_series(group)) - 1


def coclass(group: PcGroup) -> int:
    return group.ngens - nilpotency_class(group)


def frattini(group: PcGroup) -> Subgroup:
    """Frattini subgroup: derived subgroup together with p-th powers.

    Modulo the derived subgroup the group is abelian, so the p-th
    powers of the defining generators generate all p-th powers there.
    """
    sub = _cached(group, "frattini")
    if sub is None:
        derived = lower_central_series(group)[1] if group.element_count > 1 else trivial_subgroup(group)
        powers = [group._word_index(group.pres.power(k)) for k in range(1, group.ngens + 1)]
        sub = _store(group, "frattini", closure(group, np.concatenate([derived.indices, powers])))
    return sub


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
    if a.group is not b.group:
        raise ValueError("subgroups of different groups")
    return Subgroup(a.group, a.indices[b.mask[a.indices]])


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
    """

    def __init__(self, group: PcGroup, sub: Subgroup):
        p, m = group.p, group.ngens
        pres = group.pres
        # relation words are normal forms, so their indices are their values
        if not all(sub.mask[group._word_index(w)] for w in pres.commutators.values()):
            raise ValueError("quotient is not abelian")
        if not all(sub.mask[group._word_index(w)] for w in pres.powers.values()):
            raise ValueError("quotient does not have exponent p")
        places = group.gen_indices
        reps = places.copy()
        for k, b in zip(sub.pivots, sub.basis):
            steps = -(reps // places[k - 1]) % p
            for r in range(1, p):
                sel = steps >= r
                if not sel.any():
                    break
                reps[sel] = group.mul_indices(reps[sel], b)
        self.p = p
        self._places = places
        self.added_pivots = tuple(k for k in range(1, m + 1) if k not in sub.pivots)
        self.dim = len(self.added_pivots)
        added_places = places[[k - 1 for k in self.added_pivots]]
        self._gen_coords = (reps.reshape(-1, 1) // added_places % p).reshape(m, self.dim)

    def coords(self, indices) -> np.ndarray:
        """Images in F_p^dim of the elements with the given indices, one
        row each: the sum of e_k times the image of g_k over the
        coordinates e_k of the element, as the map is a homomorphism
        onto an elementary abelian group."""
        digits = np.asarray(indices, dtype=np.int64).reshape(-1, 1) // self._places % self.p
        return digits @ self._gen_coords % self.p
