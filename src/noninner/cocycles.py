"""Derivations G/N -> Z(N) and their lifts to automorphisms.

For a normal subgroup N, a derivation (one-cocycle for the conjugation
action) is a map d on the cosets Ng satisfying

    d(N g1 g2) = d(N g1)^g2 * d(N g2),

with values in Z(N).  Every verified derivation lifts to an automorphism
g -> g * d(Ng) that fixes N elementwise and acts trivially on G/N.

Two specific derivations are built from a selection frame (a, b, w):
every element factors uniquely as x * [a,b]^t * a^j * b^i with
x in Z_{m-4} and i, j, t in [0, p); the `b_exponent` derivation has
value w^i * [w,b]^(i(i-1)/2) and the `a_exponent` derivation has value
w^j * [w,b]^(ij + t).  Both are constant on N-cosets because N lies in
both Phi and Z_{m-4}, so multiplying by an element of N changes none of
the exponents.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .eligibility import SelectionContext
from .maps import GroupMap
from .pcgroup import Element, PcGroup
from .structure import Subgroup, center_of, coset_min_table, is_normal


class CosetTable:
    """Canonical representatives for the cosets of a normal subgroup:
    each element maps to the index-least member of its coset."""

    __slots__ = ("group", "sub", "min_table", "rep_indices", "rep_pos")

    def __init__(self, group: PcGroup, sub: Subgroup):
        if not is_normal(group, sub):
            raise ValueError("coset tables require a normal subgroup")
        self.group = group
        self.sub = sub
        self.min_table = coset_min_table(group, sub)
        idx = np.arange(group.element_count, dtype=np.int64)
        reps = np.nonzero(self.min_table == idx)[0]
        self.rep_indices = [int(r) for r in reps]
        pos = np.full(group.element_count, -1, dtype=np.int64)
        pos[reps] = np.arange(len(reps))
        self.rep_pos = pos

    @property
    def count(self) -> int:
        return len(self.rep_indices)

    def rep_idx(self, i: int) -> int:
        return int(self.min_table[i])

    def rep(self, x: Element) -> Element:
        return self.group.vec(int(self.min_table[self.group.idx(x)]))


class Derivation:
    """A map on N-cosets with values in Z(N), stored at canonical reps."""

    __slots__ = ("group", "n_sub", "coset_table", "values", "zn", "_verified")

    def __init__(
        self,
        group: PcGroup,
        n_sub: Subgroup,
        coset_table: CosetTable,
        values: Dict[int, Element],
        zn: Subgroup,
    ):
        self.group = group
        self.n_sub = n_sub
        self.coset_table = coset_table
        self.zn = zn
        if set(values) != set(coset_table.rep_indices):
            raise ValueError("values must be given at exactly the canonical reps")
        for v in values.values():
            if v not in zn:
                raise ValueError("derivation value outside Z(N)")
        self.values = dict(values)
        self._verified: Optional[bool] = None

    def value_at_idx(self, i: int) -> Element:
        return self.values[int(self.coset_table.min_table[i])]

    def value_at(self, x: Element) -> Element:
        return self.value_at_idx(self.group.idx(x))

    def items(self) -> List[Tuple[int, Element]]:
        return sorted(self.values.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Derivation):
            return NotImplemented
        return (
            self.group is other.group
            and self.n_sub == other.n_sub
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash(tuple(self.items()))

    def __repr__(self) -> str:
        return f"Derivation(on {self.coset_table.count} cosets)"


class _Decomposer:
    """Extracts the exponents (i, j, t) of the unique factorization
    g = x * [a,b]^t * a^j * b^i with x in Z_{m-4}, for many elements at
    once.  Three stages strip b, a and [a,b] in turn: each right-
    multiplies the entries still outside its target subgroup
    (C_G(N), Phi, Z_{m-4}) by the inverse of its generator, counting
    the steps."""

    __slots__ = ("group", "stages")

    def __init__(self, ctx: SelectionContext):
        G = ctx.group
        self.group = G
        self.stages = (
            (G.idx(G.inv(ctx.b)), ctx.centralizer_n.mask, "b"),
            (G.idx(G.inv(ctx.a)), ctx.phi.mask, "a"),
            (G.idx(G.inv(ctx.comm_a_b)), ctx.z_deep.mask, "[a, b]"),
        )

    def exponents(self, idxs) -> List[np.ndarray]:
        """Arrays [i, j, t] of the exponents of the elements `idxs`."""
        G = self.group
        x = np.array(idxs, dtype=np.int64)
        out = []
        for inv, target, what in self.stages:
            e = np.zeros_like(x)
            for step in range(G.p):
                outside = ~target[x]
                if not outside.any():
                    break
                if step == G.p - 1:
                    raise RuntimeError(
                        f"factorization failed: no power of {what} reaches the target"
                    )
                x[outside] = G.mul_indices(x[outside], inv)
                e[outside] += 1
            out.append(e)
        return out


def _decomposer(ctx: SelectionContext) -> _Decomposer:
    d = getattr(ctx, "_decomp", None)
    if d is None:
        d = _Decomposer(ctx)
        ctx._decomp = d
    return d


def coset_exponents(ctx: SelectionContext, g: Element) -> Tuple[int, int, int]:
    """(i, j, t) with g = x * [a,b]^t * a^j * b^i, x in Z_{m-4},
    exponents in [0, p)."""
    i, j, t = _decomposer(ctx).exponents([ctx.group.idx(g)])
    return int(i[0]), int(j[0]), int(t[0])


def _b_value(ctx: SelectionContext, i: int, j: int, t: int) -> Element:
    G = ctx.group
    return G.mul(G.pow(ctx.w, i), G.pow(ctx.comm_w_b, (i * (i - 1)) // 2))


def _a_value(ctx: SelectionContext, i: int, j: int, t: int) -> Element:
    G = ctx.group
    return G.mul(G.pow(ctx.w, j), G.pow(ctx.comm_w_b, i * j + t))


def b_exponent_value(ctx: SelectionContext, g: Element) -> Element:
    """w^i * [w,b]^(i(i-1)/2) where i is the b-exponent of g.  The
    half-integer exponent is taken as an exact integer (i(i-1) is even)
    before any reduction."""
    return _b_value(ctx, *coset_exponents(ctx, g))


def a_exponent_value(ctx: SelectionContext, g: Element) -> Element:
    """w^j * [w,b]^(ij + t) where i, j, t are the exponents of g."""
    return _a_value(ctx, *coset_exponents(ctx, g))


def _build(ctx: SelectionContext, formula) -> Derivation:
    """The derivation with value formula(ctx, i, j, t) at each coset
    representative; the formula is evaluated once per distinct (i, j, t)."""
    G = ctx.group
    ct = CosetTable(G, ctx.n_sub)
    zn = center_of(G, ctx.n_sub)
    exps = _decomposer(ctx).exponents(ct.rep_indices)
    by_exponents: Dict[Tuple[int, int, int], Element] = {}
    values = {}
    for r, key in zip(ct.rep_indices, zip(*(e.tolist() for e in exps))):
        if key not in by_exponents:
            by_exponents[key] = formula(ctx, *key)
        values[r] = by_exponents[key]
    return Derivation(G, ctx.n_sub, ct, values, zn)


def derivation_from_b_exponent(ctx: SelectionContext) -> Derivation:
    return _build(ctx, _b_value)


def derivation_from_a_exponent(ctx: SelectionContext) -> Derivation:
    return _build(ctx, _a_value)


def verify_cocycle(d: Derivation):
    """None if the cocycle identity holds for every pair of cosets, else
    a counterexample (g1, g2, lhs, rhs).

    Values are coded by their position in Z(N); the products in Z(N) and
    the conjugates of Z(N) by every representative are tabulated once,
    and each representative g2 then checks all g1 with one array product.
    """
    G = d.group
    ct = d.coset_table
    reps = np.array(ct.rep_indices, dtype=np.int64)
    zn_idx = d.zn.indices
    nz = len(zn_idx)
    code = np.full(G.element_count, -1, dtype=np.int64)
    code[zn_idx] = np.arange(nz)
    mul_code = code[G.mul_indices(np.repeat(zn_idx, nz), np.tile(zn_idx, nz))].reshape(nz, nz)
    val_code = code[[G.idx(d.values[r]) for r in ct.rep_indices]]
    inv_reps = G.inv_table()[reps]
    # conj_code[c, t] codes reps[t]^-1 * z_c * reps[t]
    conj_code = np.array(
        [code[G.mul_indices(G.mul_indices(inv_reps, z), reps)] for z in zn_idx.tolist()]
    )
    for t2, r2 in enumerate(ct.rep_indices):
        prods = ct.min_table[G.mul_indices(reps, r2)]
        lhs = val_code[ct.rep_pos[prods]]
        rhs = mul_code[conj_code[val_code, t2], val_code[t2]]
        bad = np.nonzero(lhs != rhs)[0]
        if bad.size:
            t1 = int(bad[0])
            d._verified = False
            return (
                G.vec(ct.rep_indices[t1]),
                G.vec(r2),
                G.vec(int(zn_idx[lhs[t1]])),
                G.vec(int(zn_idx[rhs[t1]])),
            )
    d._verified = True
    return None


def lift_to_automorphism(d: Derivation) -> GroupMap:
    """The map g -> g * d(Ng) as a GroupMap, verified to be a
    well-formed lift: it must agree with that formula on every element,
    fix N elementwise, and act trivially on G/N."""
    if d._verified is None:
        verify_cocycle(d)
    if not d._verified:
        raise ValueError("derivation failed cocycle verification; not lifting")
    G = d.group
    images = [G.mul(g, d.value_at(g)) for g in G.gens]
    f = GroupMap(G, images)
    table = f.apply_table()
    ct = d.coset_table
    mt = ct.min_table
    value_idx = np.array([G.idx(d.values[r]) for r in ct.rep_indices], dtype=np.int64)
    idx = np.arange(G.element_count, dtype=np.int64)
    if not (table == G.mul_indices(idx, value_idx[ct.rep_pos[mt]])).all():
        raise RuntimeError("lift does not equal g * d(Ng) on some element")
    n_idx = d.n_sub.indices
    if not (table[n_idx] == n_idx).all():
        raise RuntimeError("lift does not fix N elementwise")
    if not (mt[table] == mt).all():
        raise RuntimeError("lift does not preserve every N-coset")
    return f
