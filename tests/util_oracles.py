"""Brute-force oracles for the tests.

`TableGroup` works on explicit multiplication tables built from the
group operation alone (no collection, no series shortcuts), so the
library's structural output can be checked against first principles.

The helpers after it are plain constructions and enumerations over the
library's own types (maps, derivations, coset tables) that the program
itself does not need: the tests use them as reference values and as
oracles for the faster routines that replace them.  The `_by_collector`
versions evaluate maps and the consistency check on exponent tuples with
the recursive collector, independently of the index tables and index
steps the library uses, with the tuple helpers `elements`, `gens`,
`collect` and `order_of` that the library does not need.
"""

from __future__ import annotations

import functools
import itertools
from itertools import combinations, product
from typing import Dict, List, Optional

import numpy as np

from noninner import fp
from noninner.cocycles import CosetTable, Derivation, coset_exponents, verify_cocycle
from noninner.errors import OrderBoundError
from noninner.maps import GroupMap, _frattini_coords
from noninner.pcgroup import ConsistencyWitness, Element, PcGroup
from noninner.structure import (
    Subgroup,
    center,
    center_of,
    closure,
    normal_closure,
    whole_group,
)


def elements(group: PcGroup) -> list[Element]:
    """All elements as exponent tuples, in index order."""
    return [tuple(v) for v in product(range(group.p), repeat=group.ngens)]


def gens(group: PcGroup) -> list[Element]:
    """The defining generators as exponent tuples."""
    return [group.generator(i) for i in range(1, group.ngens + 1)]


def collect(group: PcGroup, word) -> Element:
    """Normal form of a word of (index, exponent) letters, any integer
    exponents, by the tuple collector."""
    x = group.identity
    for k, e in word:
        x = group.mul(x, group.pow(group.generator(int(k)), int(e)))
    return x


def order_of(group: PcGroup, x: Element) -> int:
    """Order of x, by repeated p-th powers with the tuple collector."""
    n = 1
    while x != group.identity:
        x = group.pow(x, group.p)
        n *= group.p
    return n


def consistency_witness_by_collector(group: PcGroup) -> Optional[ConsistencyWitness]:
    """`PcGroup.consistency_witness` evaluated with the tuple collector:
    the same four overlap families in the same order, the first failure
    returned with its two normal forms."""
    m, p = group.ngens, group.p
    g = group.generator
    for k in range(3, m + 1):
        for j in range(2, k):
            for i in range(1, j):
                u = group._mul_gen(g(j), i, 1)
                lhs = group.mul(g(k), u)
                rhs = group._mul_gen(group._mul_gen(g(k), j, 1), i, 1)
                if lhs != rhs:
                    return ConsistencyWitness("assoc", (k, j, i), lhs, rhs)
    for j in range(2, m + 1):
        for i in range(1, j):
            u = group._mul_gen(g(j), i, 1)
            lhs = group._mul_gen(group._power_value(j), i, 1)
            gj_pm1 = tuple(p - 1 if t == j else 0 for t in range(1, m + 1))
            rhs = group.mul(gj_pm1, u)
            if lhs != rhs:
                return ConsistencyWitness("power_left", (j, i), lhs, rhs)
            lhs = group.mul(g(j), group._power_value(i))
            rhs = group._mul_gen(u, i, p - 1)
            if lhs != rhs:
                return ConsistencyWitness("power_right", (j, i), lhs, rhs)
    for i in range(1, m + 1):
        pi = group._power_value(i)
        lhs = group.mul(g(i), pi)
        rhs = group._mul_gen(pi, i, 1)
        if lhs != rhs:
            return ConsistencyWitness("power_self", (i,), lhs, rhs)
    return None


class TableGroup:
    """A finite group as an explicit multiplication table.

    elements: list of hashable element keys (index 0 must be the
    identity).  mul: dict (key, key) -> key or a callable.
    """

    def __init__(self, elements, mul):
        self.elements = list(elements)
        self.index = {x: i for i, x in enumerate(self.elements)}
        n = len(self.elements)
        table = np.zeros((n, n), dtype=np.int64)
        for i, x in enumerate(self.elements):
            for j, y in enumerate(self.elements):
                table[i, j] = self.index[mul(x, y)]
        self.table = table
        self.n = n
        ident = [i for i in range(n) if np.array_equal(table[i], np.arange(n))]
        assert len(ident) == 1, "exactly one identity expected"
        self.e = ident[0]
        self.inverse = np.argwhere(table == self.e)[:, 1]
        order = np.zeros(n, dtype=np.int64)
        for i in range(n):
            k, acc = 1, i
            while acc != self.e:
                acc = table[acc, i]
                k += 1
            order[i] = k
        self.element_orders = order

    def associativity_holds(self) -> bool:
        t = self.table
        # (xy)z for all triples vs x(yz), fully vectorized
        left = t[t, :]  # left[x, y, z] = t[t[x, y], z]
        right = t[:, t]  # right[x, y, z] = t[x, t[y, z]]
        return bool(np.array_equal(left, right))

    def conj(self, x: int, g: int) -> int:
        return self.table[self.table[self.inverse[g], x], g]

    def comm(self, x: int, y: int) -> int:
        t = self.table
        return t[t[t[self.inverse[x], self.inverse[y]], x], y]

    def closure(self, seeds) -> frozenset:
        out = set(seeds) | {self.e}
        frontier = list(out)
        while frontier:
            new = []
            for x in frontier:
                for s in list(out):
                    for y in (self.table[x, s], self.table[s, x]):
                        if y not in out:
                            out.add(int(y))
                            new.append(int(y))
            frontier = new
        return frozenset(out)

    def center(self) -> frozenset:
        t = self.table
        central = [
            x
            for x in range(self.n)
            if np.array_equal(t[x, :], t[:, x])
        ]
        return frozenset(central)

    def upper_central_series(self) -> list[frozenset]:
        series = [frozenset({self.e})]
        while True:
            prev = series[-1]
            nxt = {
                x
                for x in range(self.n)
                if all(self.comm(x, g) in prev for g in range(self.n))
            }
            if nxt == prev:
                return series
            series.append(frozenset(nxt))

    def lower_central_series(self) -> list[frozenset]:
        whole = frozenset(range(self.n))
        series = [whole]
        while True:
            prev = series[-1]
            comms = {self.comm(x, g) for x in prev for g in range(self.n)}
            nxt = self.closure(comms)
            if nxt == prev:
                return series
            series.append(nxt)

    def derived(self) -> frozenset:
        return self.closure(
            {self.comm(x, y) for x in range(self.n) for y in range(self.n)}
        )

    def frattini(self) -> frozenset:
        """Intersection of all maximal subgroups, by subgroup search.

        In a p-group every maximal subgroup has index p and contains
        every commutator and every p-th power, so all of them lie above
        the closure of those elements.  The subgroups above that base
        form a small lattice; walk it exhaustively by single-element
        extensions (every subgroup above the base is reached this way),
        collect the subgroups of index exactly p, and intersect them.
        """
        p = self._p()
        base = self.closure(
            {self.comm(x, y) for x in range(self.n) for y in range(self.n)}
            | {self._pow(x, p) for x in range(self.n)}
        )
        maximals: list[frozenset] = []
        seen: set[frozenset] = set()
        stack = [base]
        while stack:
            sub = stack.pop()
            if sub in seen:
                continue
            seen.add(sub)
            if len(sub) * p == self.n:
                maximals.append(sub)
                continue
            if len(sub) == self.n:
                continue
            for y in range(self.n):
                if y not in sub:
                    stack.append(self.closure(sub | {y}))
        if not maximals:
            return frozenset(range(self.n))
        out = set(maximals[0])
        for sub in maximals[1:]:
            out &= sub
        return frozenset(out)

    def minimal_generator_count(self) -> int:
        if self.n == 1:
            return 0
        for k in range(1, 10):
            for combo in combinations(range(1, self.n), k):
                if len(self.closure(combo)) == self.n:
                    return k
        raise AssertionError("no generating set found")

    def _p(self) -> int:
        # the unique prime dividing the order
        n = self.n
        for p in (2, 3, 5, 7, 11, 13):
            if n % p == 0:
                return p
        raise AssertionError("not a small p-group")

    def _pow(self, x: int, k: int) -> int:
        acc = self.e
        for _ in range(k):
            acc = int(self.table[acc, x])
        return acc


def heisenberg_matrices(p: int) -> TableGroup:
    """The full upper unitriangular group UT(3, F_p) as matrices."""
    elems = []
    for a, b, c in product(range(p), repeat=3):
        m = ((1, a, b), (0, 1, c), (0, 0, 1))
        elems.append(m)

    def mul(x, y):
        z = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                z[i][j] = sum(x[i][k] * y[k][j] for k in range(3)) % p
        return tuple(tuple(row) for row in z)

    ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    elems.remove(ident)
    elems.insert(0, ident)
    return TableGroup(elems, mul)


def table_group_from_pcgroup(group) -> TableGroup:
    """Wrap a PcGroup's own multiplication into an explicit table.

    The wrapper only trusts `mul`; all structure computed from the
    TableGroup then serves as an oracle for the library's structural
    functions.
    """
    return TableGroup(elements(group), group.mul)


# ---------------------------------------------------------------------------
# maps, derivations and central automorphisms by enumeration


def identity_map(group: PcGroup) -> GroupMap:
    return GroupMap(group, group.gen_indices)


def inner_map(group: PcGroup, g: Element) -> GroupMap:
    """Conjugation x -> g^-1 x g as a GroupMap."""
    return GroupMap(group, [group.idx(group.conj(gen, g)) for gen in gens(group)])


def image_tuples(f: GroupMap) -> list[Element]:
    """The generator images of f as exponent tuples."""
    return [f.group.vec(int(i)) for i in f.image_indices]


def apply_by_collector(f: GroupMap, x: Element) -> Element:
    """f(x) as the product images[1]**e_1 * ... * images[m]**e_m, by the
    tuple collector."""
    G = f.group
    images = image_tuples(f)
    out = G.identity
    for k in range(G.ngens):
        e = x[k]
        if e:
            out = G.mul(out, G.pow(images[k], e))
    return out


def verify_automorphism_by_collector(f: GroupMap) -> Optional[str]:
    """`verify_automorphism` relation by relation on exponent tuples: the
    left-hand sides by the collector's `pow` and `comm`, the right-hand
    sides by `apply_by_collector`; same check order and reasons."""
    G = f.group
    p = G.p
    images = image_tuples(f)
    for k in range(1, G.ngens + 1):
        lhs = G.pow(images[k - 1], p)
        rhs = apply_by_collector(f, G._power_value(k))
        if lhs != rhs:
            return f"power relation for g{k} is not preserved"
    for j in range(2, G.ngens + 1):
        for i in range(1, j):
            lhs = G.comm(images[j - 1], images[i - 1])
            rhs = apply_by_collector(f, collect(G, G.pres.commutator(j, i)))
            if lhs != rhs:
                return f"commutator relation [g{j}, g{i}] is not preserved"
    qc = _frattini_coords(G)
    if fp.rank(qc.coords([G.idx(im) for im in images]), p) != qc.dim:
        return "images do not generate the group"
    return None


def canonical_rep(group: PcGroup, sub: Subgroup, x: Element) -> Element:
    """Index-least element of the coset (sub)*x, by scanning the coset."""
    return min(
        (group.mul(group.vec(int(z)), x) for z in sub.indices), key=group.idx
    )


def value_at(d: Derivation, x: Element) -> Element:
    """The value of d at the coset of x."""
    ct = d.coset_table
    return d.group.vec(int(d.values[ct.rep_pos[ct.min_table[d.group.idx(x)]]]))


def verify_cocycle_by_rows(d: Derivation):
    """`verify_cocycle` one representative g2 at a time: the products in
    Z(N) and the conjugates of Z(N) by every representative come from
    whole-array products, and each g2 checks all g1 with one array
    product; same counterexample of element indices (least g2, then
    least g1)."""
    G = d.group
    ct = d.coset_table
    reps = ct.rep_indices
    zn_idx = d.zn.indices
    nz = len(zn_idx)
    code = np.full(G.element_count, -1, dtype=np.int64)
    code[zn_idx] = np.arange(nz)
    mul_code = code[G.mul_indices(np.repeat(zn_idx, nz), np.tile(zn_idx, nz))].reshape(nz, nz)
    val_code = code[d.values]
    inv_reps = G.inv_table()[reps]
    # conj_code[c, t] codes reps[t]^-1 * z_c * reps[t]
    conj_code = np.array(
        [code[G.mul_indices(G.mul_indices(inv_reps, z), reps)] for z in zn_idx.tolist()]
    )
    for t2, r2 in enumerate(reps.tolist()):
        prods = ct.min_table[G.mul_indices(reps, r2)]
        lhs = val_code[ct.rep_pos[prods]]
        rhs = mul_code[conj_code[val_code, t2], val_code[t2]]
        bad = np.nonzero(lhs != rhs)[0]
        if bad.size:
            t1 = int(bad[0])
            return (int(reps[t1]), r2, int(zn_idx[lhs[t1]]), int(zn_idx[rhs[t1]]))
    return None


def derivation_key(d: Derivation) -> tuple:
    """The values of d as a hashable key; two derivations on the same
    coset table are equal exactly when their keys are."""
    return tuple(d.values.tolist())


def b_exponent_value(ctx, g: Element) -> Element:
    """w^i * [w,b]^(i(i-1)/2) where i is the b-exponent of g, by the
    tuple collector with exact integer exponents."""
    G = ctx.group
    i, j, t = coset_exponents(ctx, G.idx(g))
    return G.mul(G.pow(G.vec(ctx.w), i), G.pow(G.vec(ctx.comm_w_b), (i * (i - 1)) // 2))


def a_exponent_value(ctx, g: Element) -> Element:
    """w^j * [w,b]^(ij + t) where i, j, t are the exponents of g."""
    G = ctx.group
    i, j, t = coset_exponents(ctx, G.idx(g))
    return G.mul(G.pow(G.vec(ctx.w), j), G.pow(G.vec(ctx.comm_w_b), i * j + t))


def combine(d1: Derivation, d2: Derivation) -> Derivation:
    """Pointwise product of two derivations on the same cosets (the
    group operation of the derivation group, since values commute)."""
    if d1.group is not d2.group or d1.n_sub != d2.n_sub:
        raise ValueError("derivations live on different coset spaces")
    values = d1.group.mul_indices(d1.values, d2.values)
    return Derivation(d1.group, d1.n_sub, d1.coset_table, values, d1.zn)


def all_derivations(
    group: PcGroup, n_sub: Subgroup, bound: int = 3**5
) -> List[Derivation]:
    """Every derivation on the cosets of `n_sub` with values in Z(N).

    Enumerates assignments of values to the generator cosets, propagates
    each by breadth-first search along the cocycle identity, and keeps
    the assignments that extend consistently and pass full verification.
    Raises OrderBoundError when the coset count or the assignment count
    exceeds `bound`.
    """
    G = group
    ct = CosetTable(G, n_sub)
    zn = center_of(G, n_sub)
    if ct.count > bound:
        raise OrderBoundError(
            f"coset count {ct.count} exceeds enumeration bound {bound}"
        )
    if zn.order**G.ngens > bound:
        raise OrderBoundError(
            f"{zn.order}^{G.ngens} candidate assignments exceed bound {bound}"
        )
    zn_elems = [G.vec(int(i)) for i in zn.indices]
    gen_perms = [G.right_mult_perm(g) for g in G.gen_indices.tolist()]
    identity_rep = int(ct.min_table[0])
    results: List[Derivation] = []
    seen: set = set()
    for combo in itertools.product(zn_elems, repeat=G.ngens):
        values: Dict[int, Element] = {identity_rep: G.identity}
        ok = True
        queue = [identity_rep]
        while queue and ok:
            r = queue.pop()
            gr = values[r]
            for k in range(G.ngens):
                r2 = int(ct.min_table[gen_perms[k][r]])
                val = G.mul(G.conj(gr, G.generator(k + 1)), combo[k])
                known = values.get(r2)
                if known is None:
                    values[r2] = val
                    queue.append(r2)
                elif known != val:
                    ok = False
                    break
        if not ok or len(values) != ct.count:
            continue
        key = tuple(sorted((r, v) for r, v in values.items()))
        if key in seen:
            continue
        seen.add(key)
        d = Derivation(G, n_sub, ct, [G.idx(values[r]) for r in ct.rep_indices.tolist()], zn)
        if verify_cocycle(d) is None:
            results.append(d)
    return results


def central_automorphisms_by_enumeration(group: PcGroup) -> np.ndarray:
    """All automorphisms sending each generator g to g*z with z central,
    as rows of image indices, found by honest enumeration of |Z|^m
    candidate maps with the collector's relation check."""
    G = group
    z = center(G)
    z_elems = [G.vec(int(i)) for i in z.indices]
    rows = []
    for combo in itertools.product(z_elems, repeat=G.ngens):
        images = [G.idx(G.mul(gen, combo[k])) for k, gen in enumerate(gens(G))]
        if verify_automorphism_by_collector(GroupMap(G, images)) is None:
            rows.append(images)
    return np.array(rows, dtype=np.int64).reshape(-1, G.ngens)


def central_automorphisms_by_unique(group: PcGroup) -> np.ndarray:
    """`central_automorphisms` as it deduplicated the coordinate
    matrices before the rank test: by `np.unique(..., axis=0)` over the
    flattened matrices, a sort of the whole (n, m * dim) array.

    All automorphisms sending each generator g_k to g_k z_k with z_k
    central, as an (n, m) array whose rows are the indices of the m
    generator images, in the order of itertools.product over Z in index
    order.

    As the tails are central, the images satisfy the power relation
    g_k^p = w_k exactly when z_k^p = prod_l z_l^e_l(w_k), and the
    commutator relation [g_j, g_i] = w_ji exactly when
    prod_l z_l^e_l(w_ji) = 1, where e_l(w) is the exponent of g_l in the
    normal word w.  The tail tuples are solved deepest generator first
    (k = m, ..., 1): step k adds every choice of z_k to the tuples
    (z_(k+1), ..., z_m) kept so far, then keeps those that satisfy the
    power relation of g_k and each commutator relation whose word starts
    at g_k.  A solution is an automorphism when its images have full rank
    modulo the Frattini subgroup; the rank is taken once per distinct
    coordinate matrix.

    Raises OrderBoundError when a step would hold more tuples than the
    group's element bound.
    """
    G = group
    p, m = G.p, G.ngens
    z_idx = center(G).indices
    nz = len(z_idx)
    # powers[e][c] is the index of z^e for the c-th element z of Z
    powers = [np.zeros(nz, dtype=np.int64)]
    for _ in range(p):
        powers.append(G.mul_indices(powers[-1], z_idx))
    starting: dict[int, list] = {}
    for word in G.pres.commutators.values():
        starting.setdefault(word[0][0], []).append(word)

    def value(word, pos: np.ndarray, k: int) -> np.ndarray:
        """prod_l z_l^e_l(word) for every tuple, where pos[:, l - k] is
        the position of z_l in Z."""
        out = np.zeros(len(pos), dtype=np.int64)
        for l, e in word:
            out = G.mul_indices(out, powers[e][pos[:, l - k]])
        return out

    # rows[r, t] is the index of z_(k+t) in the r-th tuple kept after step k
    rows = np.zeros((1, 0), dtype=np.int64)
    for k in range(m, 0, -1):
        if len(rows) * nz > G.element_bound:
            raise OrderBoundError(
                f"central automorphisms: {len(rows)} tail tuples times |Z| = {nz} "
                f"exceed the element bound {G.element_bound}"
            )
        rows = np.column_stack(
            [np.repeat(z_idx, len(rows)), np.tile(rows, (nz, 1))]
        )
        pos = np.searchsorted(z_idx, rows)
        keep = powers[p][pos[:, 0]] == value(G.pres.power(k), pos, k)
        for word in starting.get(k, ()):
            keep &= value(word, pos, k) == 0
        rows = rows[keep]
    rows = rows[np.lexsort(rows.T[::-1])]

    qc = _frattini_coords(G)
    mats = (qc.coords(G.gen_indices) + qc.coords(z_idx)[np.searchsorted(z_idx, rows)]) % p
    distinct, which = np.unique(
        mats.reshape(len(rows), -1), axis=0, return_inverse=True
    )
    full = np.array(
        [fp.rank(mat.reshape(m, -1), p) == qc.dim for mat in distinct], dtype=bool
    )
    rows = rows[full[which.reshape(-1)]]
    # z_k is central, so z_k g_k is the image g_k z_k
    return G.mul_indices(rows, np.broadcast_to(G.gen_indices, rows.shape))


# ---------------------------------------------------------------------------
# subgroup scans over exponent tuples, which the index arrays and the
# table of p-th powers replaced


def subgroup_tuples(group: PcGroup, sub: Subgroup) -> list[Element]:
    """The elements of `sub` as exponent tuples, in index order."""
    return [group.vec(i) for i in sub.indices.tolist()]


def coset_min_table_by_elements(group: PcGroup, sub: Subgroup) -> np.ndarray:
    """`coset_min_table` as a running minimum of the right-multiplication
    permutations of every element of `sub`: one whole-group product per
    element, O(|G|) memory."""
    return functools.reduce(np.minimum, (group.right_mult_perm(s) for s in sub.indices.tolist()))


def canonical_basis_by_scan(group: PcGroup, sub: Subgroup) -> tuple[Element, ...]:
    """The canonical basis by scanning every element for each pivot
    candidate: the index-least element with leading coordinate 1 at k,
    reduced deepest pivot first."""
    G = group
    p = G.p
    els = subgroup_tuples(G, sub)
    chosen: dict[int, Element] = {}
    for k in range(1, G.ngens + 1):
        cands = [
            x for x in els if x[k - 1] == 1 and all(x[t] == 0 for t in range(k - 1))
        ]
        if cands:
            chosen[k] = min(cands, key=G.idx)
    pivots = sorted(chosen)
    for k in reversed(pivots):
        b = chosen[k]
        for k2 in pivots:
            if k2 > k:
                e = b[k2 - 1]
                if e:
                    b = G.mul(b, G.pow(chosen[k2], p - e))
        chosen[k] = b
    return tuple(chosen[k] for k in pivots)


# The scans below take `power`, x -> x**p on exponent tuples; the tests
# pass the tuple collector's `pow`, memoised per group, so that a scan
# over a 3^7 group costs at most one `pow` per element.


def omega1_by_pow(group: PcGroup, sub: Subgroup, power) -> Subgroup:
    """Closure of the elements x of `sub` with x**p = 1."""
    seeds = [
        group.idx(x) for x in subgroup_tuples(group, sub) if power(x) == group.identity
    ]
    return closure(group, seeds)


def is_elementary_abelian_by_pairs(group: PcGroup, sub: Subgroup, power) -> bool:
    """Exponent p and commutativity of every pair of elements."""
    els = subgroup_tuples(group, sub)
    if any(power(x) != group.identity for x in els):
        return False
    return all(group.mul(x, y) == group.mul(y, x) for x in els for y in els)


def quotient_is_cyclic_by_scan(
    group: PcGroup, upper: Subgroup, lower: Subgroup, power
) -> bool:
    """Whether some element of `upper` has order |upper/lower| modulo
    `lower`, by repeated p-th powers of each element."""
    quotient_order = upper.order // lower.order
    lower_set = set(subgroup_tuples(group, lower))
    for x in subgroup_tuples(group, upper):
        y = x
        k = 1
        while y not in lower_set:
            y = power(y)
            k *= group.p
        if k == quotient_order:
            return True
    return False


# ---------------------------------------------------------------------------
# whole-group conjugation by element products, which gathers through the
# generator conjugation permutations replaced


def left_mult_perm(group: PcGroup, y: int) -> np.ndarray:
    """Permutation array P with P[i] = idx(vec(y) * vec(i)), through the
    right-multiplication tables by (y x)**-1 = x**-1 y**-1."""
    it = group.inv_table()
    return it[group.right_mult_perm(int(it[y]))[it]]


def lower_central_series_by_elements(group: PcGroup) -> list[Subgroup]:
    """The lower central series with each step the normal closure of the
    commutators [x, g_k] of every element x of the term with every
    defining generator: one product per element and generator."""
    G = group
    inv_t = G.inv_table()
    perms = [G.conj_perm(g) for g in G.gen_indices.tolist()]
    series = [whole_group(G)]
    while series[-1].order > 1:
        x = series[-1].indices
        comms = np.zeros(G.element_count, dtype=bool)
        for perm in perms:
            comms[G.mul_indices(inv_t[x], perm[x])] = True
        comms[0] = False
        series.append(normal_closure(G, np.nonzero(comms)[0]))
    return series


def conj_columns_by_products(group: PcGroup) -> np.ndarray:
    """Rows D[k - 1, i] = idx(vec(i)^-1 g_k vec(i)), each one whole-group
    product of the inverse table with a left-multiplication permutation."""
    inv_t = group.inv_table()
    return np.array([group.mul_indices(inv_t, left_mult_perm(group, g)) for g in group.gen_indices])


def centralizer_by_mult_perms(group: PcGroup, targets) -> Subgroup:
    """Elements x with x t = t x for every target index t, by comparing
    the right- and left-multiplication permutations of t."""
    mask = np.ones(group.element_count, dtype=bool)
    for t in targets:
        mask &= group.right_mult_perm(t) == left_mult_perm(group, t)
    return Subgroup(group, np.nonzero(mask)[0])


# ---------------------------------------------------------------------------
# the generator and inverse tables by whole-group passes, which the
# level builds replaced


def rtables_by_masked_passes(group: PcGroup) -> list:
    """The generator tables, T_k at position k, by collection from the
    left over all elements at once: split x = u t into its prefix u
    (coordinates up to k) and its tail t; then x g_k = (u g_k) t^(g_k),
    with t^(g_k) applied as p - 1 masked passes per letter of t."""
    p, m = group.p, group.ngens
    idx = np.arange(group.element_count, dtype=np.int64)
    tables: list = [None] * (m + 1)
    for k in range(m, 0, -1):
        s = group._stride(k)
        prefix = idx - idx % s
        cur = prefix + s
        top = (idx // s) % p == p - 1
        power = group._word_index(group.pres.power(k))
        cur[top] = prefix[top] - (p - 1) * s + power
        for j in range(k + 1, m + 1):
            conj_word = ((j, 1),) + group.pres.commutator(j, k)
            digit = (idx // group._stride(j)) % p
            for r in range(1, p):
                sel = digit >= r
                part = cur[sel]
                for letter, e in conj_word:
                    for _ in range(e):
                        part = tables[letter][part]
                cur[sel] = part
        tables[k] = cur
    return tables


def inv_table_by_products(group: PcGroup) -> np.ndarray:
    """Inverses by cancelling coordinates left to right over all
    elements at once, one whole-group array product per generator."""
    cur = np.arange(group.element_count, dtype=np.int64)
    out = np.zeros_like(cur)
    for k in range(1, group.ngens + 1):
        s = group._stride(k)
        step = (-(cur // s) % group.p) * s
        out += step
        cur = group.mul_indices(cur, step)
    return out
