"""Subgroups, central series and quotient coordinates for PcGroup.

Subgroups are stored as explicit element sets (the package targets
groups of desk-scale order, a few thousand elements) together with a
canonical induced generating sequence derived purely from the set, so
equal subgroups always present identical bases.  Heavy scans are
vectorized through the group's right/left multiplication permutation
tables.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .pcgroup import Element, PcGroup


def leading_index(x: Element) -> Optional[int]:
    """1-based index of the first nonzero coordinate, None for identity."""
    for k, e in enumerate(x, start=1):
        if e:
            return k
    return None


class Subgroup:
    """A subgroup given by its full element set.

    The canonical basis has one element per pivot depth: for each depth
    k carrying part of the subgroup, the index-smallest element with
    leading coordinate 1 at k, reduced so that deeper pivot coordinates
    vanish.  The basis depends only on the element set, so it is stable
    across different ways of constructing the same subgroup.
    """

    __slots__ = ("group", "_state")

    def __init__(self, group: PcGroup, elements: Iterable[Element]):
        self.group = group
        self._state = _SubgroupState(frozenset(elements))
        if group.identity not in self.elements:
            raise ValueError("subgroup must contain the identity")

    @classmethod
    def _view(cls, group: PcGroup, state: "_SubgroupState") -> "Subgroup":
        sub = cls.__new__(cls)
        sub.group, sub._state = group, state
        return sub

    @property
    def elements(self) -> frozenset:
        return self._state.elements

    @property
    def order(self) -> int:
        return len(self.elements)

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
    def indices(self) -> np.ndarray:
        state = self._state
        if state.indices is None:
            state.indices = np.array(sorted(self.group.idx(x) for x in self.elements), dtype=np.int64)
        return state.indices

    @property
    def mask(self) -> np.ndarray:
        """Boolean membership array over all element indices."""
        state = self._state
        if state.mask is None:
            state.mask = np.zeros(self.group.element_count, dtype=bool)
            state.mask[self.indices] = True
        return state.mask

    @property
    def basis(self) -> tuple[Element, ...]:
        state = self._state
        if state.basis is None:
            state.basis = self._canonical_basis()
        return state.basis

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(leading_index(b) for b in self.basis)  # type: ignore[misc]

    def _canonical_basis(self) -> tuple[Element, ...]:
        G = self.group
        p = G.p
        chosen: dict[int, Element] = {}
        for k in range(1, G.ngens + 1):
            cands = [
                x
                for x in self.elements
                if x[k - 1] == 1 and all(x[t] == 0 for t in range(k - 1))
            ]
            if cands:
                chosen[k] = min(cands, key=G.idx)
        pivots = sorted(chosen)
        # deepest first, so reducers are already in final form
        for k in reversed(pivots):
            b = chosen[k]
            for k2 in pivots:
                if k2 > k:
                    e = b[k2 - 1]
                    if e:
                        b = G.mul(b, G.pow(chosen[k2], p - e))
            chosen[k] = b
        basis = tuple(chosen[k] for k in pivots)
        if self.order != p ** len(basis):
            raise ValueError(
                f"element set of size {self.order} is not a subgroup "
                f"(basis spans p**{len(basis)})"
            )
        return basis

    def __contains__(self, x: Element) -> bool:
        return x in self.elements

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Element]:
        return iter(sorted(self.elements, key=self.group.idx))

    def __le__(self, other: "Subgroup") -> bool:
        return self.elements <= other.elements

    def __lt__(self, other: "Subgroup") -> bool:
        return self.elements < other.elements

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.group is other.group and self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, pivots={self.pivots})"


class _SubgroupState:
    """Everything a Subgroup knows apart from its group, shared by every
    view of it.  The group's cache keeps these states, not Subgroups: a
    cached Subgroup would refer back to the group, and that reference
    cycle would keep the group and all its tables alive until the next
    full garbage collection."""

    __slots__ = ("elements", "indices", "mask", "basis")

    def __init__(self, elements: frozenset):
        self.elements = elements
        self.indices: Optional[np.ndarray] = None
        self.mask: Optional[np.ndarray] = None
        self.basis: Optional[tuple[Element, ...]] = None


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


def subgroup_from_indices(group: PcGroup, idxs: Iterable[int]) -> Subgroup:
    return Subgroup(group, (group.vec(int(i)) for i in idxs))


def trivial_subgroup(group: PcGroup) -> Subgroup:
    return Subgroup(group, [group.identity])


def whole_group(group: PcGroup) -> Subgroup:
    sub = _cached(group, "whole")
    if sub is None:
        sub = _store(group, "whole", Subgroup(group, group.elements()))
    return sub


def closure(group: PcGroup, seeds: Iterable[Element]) -> Subgroup:
    """Subgroup generated by `seeds` (breadth-first over index tables)."""
    n = group.element_count
    seed_list = [s for s in dict.fromkeys(seeds) if s != group.identity]
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    if seed_list:
        perms = [group.right_mult_perm(s) for s in seed_list]
        frontier = np.array([0], dtype=np.int64)
        while frontier.size:
            new_mask = np.zeros(n, dtype=bool)
            for perm in perms:
                new_mask[perm[frontier]] = True
            new_mask &= ~seen
            seen |= new_mask
            frontier = np.nonzero(new_mask)[0]
    return subgroup_from_indices(group, np.nonzero(seen)[0])


def _conj_gen_perms(group: PcGroup) -> list[np.ndarray]:
    perms = group._cache.get("conj_gen_perms")
    if perms is None:
        perms = [group.conj_perm(g) for g in group.gens]
        group._cache["conj_gen_perms"] = perms
    return perms


def normal_closure(group: PcGroup, seeds: Iterable[Element]) -> Subgroup:
    """Smallest normal subgroup containing `seeds`."""
    perms = _conj_gen_perms(group)
    sub = closure(group, seeds)
    while True:
        fresh = np.zeros(group.element_count, dtype=bool)
        for perm in perms:
            fresh[perm[sub.indices]] = True
        fresh &= ~sub.mask
        if not fresh.any():
            return sub
        sub = closure(
            group, list(sub.basis) + [group.vec(int(i)) for i in np.nonzero(fresh)[0]]
        )


def is_normal(group: PcGroup, sub: Subgroup) -> bool:
    perms = _conj_gen_perms(group)
    return all(bool(sub.mask[perm[sub.indices]].all()) for perm in perms)


def coset_min_table(group: PcGroup, sub: Subgroup) -> np.ndarray:
    """Array M with M[i] = smallest index in the right coset vec(i)*S.

    Two indices share a value exactly when they lie in the same right
    coset; for normal S these are the cosets of G/S.  A running minimum
    over the elements of S keeps the memory at O(|G|).
    """
    idx = np.arange(group.element_count, dtype=np.int64)
    out = idx.copy()
    # indices[0] is the identity, whose coset step leaves `out` as it is
    for s in sub.indices[1:].tolist():
        np.minimum(out, group.mul_indices(idx, s), out=out)
    return out


def center(group: PcGroup) -> Subgroup:
    sub = _cached(group, "center")
    if sub is None:
        mask = np.ones(group.element_count, dtype=bool)
        for g in group.gens:
            mask &= group.right_mult_perm(g) == group.left_mult_perm(g)
        sub = _store(group, "center", subgroup_from_indices(group, np.nonzero(mask)[0]))
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
        nxt = subgroup_from_indices(group, np.nonzero(mask)[0])
        if nxt.order <= series[-1].order:
            raise RuntimeError("upper central series stalled; group not nilpotent")
        series.append(nxt)
    return _store(group, "ucs", series)


def lower_central_series(group: PcGroup) -> list[Subgroup]:
    """[G = term_1, term_2, ..., 1], strictly descending.

    Each step takes the normal closure of all commutators of the
    current term's elements with the defining generators; modulo that
    closure the current term is central, so the closure is the full
    commutator subgroup of the term with the group.
    """
    series = _cached(group, "lcs")
    if series is not None:
        return series
    perms = _conj_gen_perms(group)
    inv_t = group.inv_table()
    series = [whole_group(group)]
    while series[-1].order > 1:
        cur = series[-1]
        comms = np.zeros(group.element_count, dtype=bool)
        for perm in perms:
            comms[group.mul_indices(inv_t[cur.indices], perm[cur.indices])] = True
        comms[0] = False
        nxt = normal_closure(group, [group.vec(int(i)) for i in np.nonzero(comms)[0]])
        if not nxt < cur:
            raise RuntimeError("lower central series stalled; group not nilpotent")
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
        seeds = list(derived.basis)
        for k in range(1, group.ngens + 1):
            seeds.append(group._power_value(k))
        sub = _store(group, "frattini", closure(group, seeds))
    return sub


def minimal_generator_count(group: PcGroup) -> int:
    return group.ngens - frattini(group).log_order


def centralizer(group: PcGroup, targets: Iterable[Element]) -> Subgroup:
    """Elements commuting with every target (pass a subgroup's basis to
    centralize the subgroup)."""
    mask = np.ones(group.element_count, dtype=bool)
    for t in targets:
        mask &= group.right_mult_perm(t) == group.left_mult_perm(t)
    return subgroup_from_indices(group, np.nonzero(mask)[0])


def omega1(group: PcGroup, sub: Subgroup) -> Subgroup:
    """Subgroup generated by the elements of `sub` of order dividing p."""
    seeds = [x for x in sub.elements if group.pow(x, group.p) == group.identity]
    return closure(group, seeds)


def intersection(a: Subgroup, b: Subgroup) -> Subgroup:
    """Intersection of two subgroups of the same group."""
    if a.group is not b.group:
        raise ValueError("subgroups of different groups")
    return Subgroup(a.group, a.elements & b.elements)


def center_of(group: PcGroup, sub: Subgroup) -> Subgroup:
    """Center of `sub`: its elements commuting with all of `sub`."""
    return intersection(centralizer(group, sub.basis), sub)


def quotient_exponent_is_p(group: PcGroup, sub: Subgroup) -> bool:
    """Whether every p-th power lands in `sub` (normal), i.e. the
    quotient has exponent dividing p."""
    group._check_bound()
    x = np.arange(group.element_count, dtype=np.int64)
    power = x
    for _ in range(group.p - 1):
        power = group.mul_indices(power, x)
    return bool(sub.mask[power].all())


def quotient_is_cyclic(group: PcGroup, upper: Subgroup, lower: Subgroup) -> bool:
    """Whether upper/lower is cyclic (lower normal in upper, p-group
    quotient, so cyclic iff some coset has full order)."""
    if not lower <= upper:
        raise ValueError("lower must be contained in upper")
    quotient_order = upper.order // lower.order
    if quotient_order == 1:
        return True
    best = 1
    for x in upper.elements:
        y = x
        k = 1
        while y not in lower.elements:
            y = group.pow(y, group.p)
            k *= group.p
        if k == quotient_order:
            return True
        best = max(best, k)
    return best == quotient_order


class QuotientCoords:
    """Coordinates on an elementary abelian quotient G/S.

    The basis of S is extended to an induced generating sequence of the
    whole group by sifting the defining generators; the exponents that
    land on the added pivots give a homomorphism onto F_p^dim with
    kernel S (the quotient being abelian makes the interleaved S-factors
    drop out regardless of position).  Only the images of the defining
    generators are kept, and they refer to no group.
    """

    def __init__(self, group: PcGroup, sub: Subgroup):
        p = group.p
        for j in range(2, group.ngens + 1):
            for i in range(1, j):
                if group.collect(group.pres.commutator(j, i)) not in sub.elements:
                    raise ValueError("quotient is not abelian")
        for k in range(1, group.ngens + 1):
            if group._power_value(k) not in sub.elements:
                raise ValueError("quotient does not have exponent p")
        ext: dict[int, Element] = {}
        for b in sub.basis:
            ext[leading_index(b)] = b  # type: ignore[index]
        added: list[int] = []
        for g in group.gens:
            x = g
            while x != group.identity:
                k = leading_index(x)
                a = x[k - 1]  # type: ignore[index]
                if k in ext:
                    x = group.mul(x, group.pow(ext[k], p - a))
                else:
                    ext[k] = group.pow(x, pow(a, -1, p))
                    added.append(k)
                    break
        self.p = p
        self.added_pivots = tuple(sorted(added))
        self.dim = len(self.added_pivots)
        self._gen_coords = [self._sift(group, ext, g) for g in group.gens]

    def _sift(self, group: PcGroup, ext: dict, y: Element) -> tuple[int, ...]:
        p = group.p
        out = {k: 0 for k in self.added_pivots}
        x = y
        while x != group.identity:
            k = leading_index(x)
            a = x[k - 1]  # type: ignore[index]
            if k in out:
                out[k] = a
            x = group.mul(group.pow(ext[k], p - a), x)
        return tuple(out[k] for k in self.added_pivots)

    def coords(self, y: Element) -> tuple[int, ...]:
        """Image of y in F_p^dim: the sum of e_k times the image of g_k
        over the coordinates e_k of y, as the map is a homomorphism onto
        an elementary abelian group."""
        out = [0] * self.dim
        for e, image in zip(y, self._gen_coords):
            for t, c in enumerate(image):
                out[t] += e * c
        return tuple(v % self.p for v in out)
