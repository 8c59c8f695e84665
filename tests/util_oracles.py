"""Brute-force oracles for the tests.

`TableGroup` works on explicit multiplication tables built from the
group operation alone (no collection, no series shortcuts), so the
library's structural output can be checked against first principles.

`Collector` is the recursive tuple collector, the tests' reference
arithmetic on exponent tuples: it collects from the relation words alone,
independently of the index tables and the index steps the library uses.

The helpers after them are plain constructions and enumerations over the
library's own types (maps, derivations, coset tables) that the program
itself does not need: the tests use them as reference values and as
oracles for the faster routines that replace them.  The `_by_collector`
versions evaluate maps and the consistency check on exponent tuples with
the collector, with the tuple helpers `elements`, `gens`, `collect` and
`order_of` that the library does not need.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from itertools import combinations, product
from typing import Dict, List, Optional

import numpy as np

from noninner import fp
from noninner.cocycles import CosetTable, Derivation, coset_exponents, verify_cocycle
from noninner.errors import OrderBoundError
from noninner.maps import GroupMap, _frattini_coords
from noninner.pcgroup import ConsistencyWitness, Element, PcGroup, PcPresentation
from noninner.structure import (
    Subgroup,
    _conj_gen_perms,
    center,
    center_of,
    closure,
    coset_min_table,
    normal_closure,
    trivial_subgroup,
    whole_group,
)


class Collector:
    """Collection from the relation words on exponent tuples, by
    recursion on the deepest letter (Sims, *Computation with Finitely
    Presented Groups*, 1994, ch. 9): the tests' reference for the
    library's index steps and tables.  Use `collector(group)`, which
    keeps one per group, so the memoised conjugates and powers are
    shared.  It keeps no reference to the group, so that cache lets a
    group go."""

    def __init__(self, group: PcGroup) -> None:
        self.pres, self.p, self.ngens = group.pres, group.p, group.ngens
        self.identity: Element = group.identity
        self._conj_cache: dict[tuple[int, ...], Element] = {}
        self._power_values: dict[int, Element] = {}

    def generator(self, i: int) -> Element:
        return tuple(1 if k == i else 0 for k in range(1, self.ngens + 1))

    def _power_value(self, g: int) -> Element:
        """Normal form of g_g**p, collected from its relation word."""
        val = self._power_values.get(g)
        if val is None:
            val = self._mul_word(self.identity, self.pres.power(g))
            self._power_values[g] = val
        return val

    def _conj_gen_gen(self, h: int, g: int) -> Element:
        """Normal form of g_h conjugated by g_g, for h > g."""
        val = self._conj_cache.get((h, g))
        if val is None:
            # g_h^(g_g) = g_h * [g_h, g_g]
            val = self._mul_word(self.generator(h), self.pres.commutator(h, g))
            self._conj_cache[(h, g)] = val
        return val

    def _conj_elem_by_gen(self, x: Element, g: int) -> Element:
        """Conjugate x by g_g where every letter of x has index > g."""
        out = self.identity
        for k in range(g + 1, self.ngens + 1):
            a = x[k - 1]
            if a:
                z = self._conj_gen_gen(k, g)
                for _ in range(a):
                    out = self.mul(out, z)
        return out

    def _conj_genpow(self, j: int, g: int, e: int) -> Element:
        """Normal form of g_j conjugated by g_g**e, for j > g, 0 <= e < p;
        memoised, as a collection asks for the same conjugates often."""
        z = self._conj_cache.get((j, g, e))
        if z is None:
            z = self.generator(j)
            for _ in range(e):
                z = self._conj_elem_by_gen(z, g)
            self._conj_cache[(j, g, e)] = z
        return z

    def _mul_gen(self, x: Element, g: int, e: int) -> Element:
        """Normal form of x * g_g**e for 0 <= e < p.

        Terminates by descent on (ngens - g, number of nonzero
        coordinates of x at indices beyond g): the blocker branch keeps
        g and strictly shrinks the second component, and every other
        spawned multiplication uses a strictly larger generator index.
        """
        if e == 0:
            return x
        j = 0
        for k in range(self.ngens, g, -1):
            if x[k - 1]:
                j = k
                break
        if j == 0:
            total = x[g - 1] + e
            q, r = divmod(total, self.p)
            y = list(x)
            y[g - 1] = r
            out: Element = tuple(y)
            for _ in range(q):
                out = self.mul(out, self._power_value(g))
            return out
        # x = x' * g_j**a with a the deepest letter beyond g, so
        # x * g_g**e = (x' * g_g**e) * (g_j**(g_g**e))**a
        a = x[j - 1]
        stripped = list(x)
        stripped[j - 1] = 0
        y = self._mul_gen(tuple(stripped), g, e)
        z = self._conj_genpow(j, g, e)
        for _ in range(a):
            y = self.mul(y, z)
        return y

    def _mul_word(self, x: Element, word) -> Element:
        """x times a relation word, whose exponents lie in [1, p)."""
        for k, e in word:
            x = self._mul_gen(x, k, e)
        return x

    def mul(self, x: Element, y: Element) -> Element:
        for k in range(1, self.ngens + 1):
            e = y[k - 1]
            if e:
                x = self._mul_gen(x, k, e)
        return x

    def inv(self, x: Element) -> Element:
        """Inverse, found by cancelling coordinates left to right.

        Right-multiplying by g_k**(p - a) clears coordinate k without
        disturbing earlier ones, and the cancelling letters accumulate
        in ascending order, so they are themselves a normal form.
        """
        cur = x
        out = [0] * self.ngens
        for k in range(1, self.ngens + 1):
            a = cur[k - 1]
            if a:
                t = self.p - a
                cur = self._mul_gen(cur, k, t)
                out[k - 1] = t
        return tuple(out)

    def pow(self, x: Element, e: int) -> Element:
        if e < 0:
            x = self.inv(x)
            e = -e
        out = self.identity
        base = x
        while e:
            if e & 1:
                out = self.mul(out, base)
            e >>= 1
            if e:
                base = self.mul(base, base)
        return out

    def conj(self, x: Element, y: Element) -> Element:
        """x conjugated by y, i.e. y^-1 x y."""
        return self.mul(self.inv(y), self.mul(x, y))

    def comm(self, x: Element, y: Element) -> Element:
        """Commutator x^-1 y^-1 x y."""
        return self.mul(self.inv(self.mul(y, x)), self.mul(x, y))


_COLLECTORS: "weakref.WeakKeyDictionary[PcGroup, Collector]" = weakref.WeakKeyDictionary()


def collector(group: PcGroup) -> Collector:
    """The group's `Collector`, made on first use and kept while the
    group lives."""
    c = _COLLECTORS.get(group)
    if c is None:
        c = _COLLECTORS[group] = Collector(group)
    return c


def elements(group: PcGroup) -> list[Element]:
    """All elements as exponent tuples, in index order."""
    return [tuple(v) for v in product(range(group.p), repeat=group.ngens)]


def gens(group: PcGroup) -> list[Element]:
    """The defining generators as exponent tuples."""
    c = collector(group)
    return [c.generator(i) for i in range(1, group.ngens + 1)]


def collect(group: PcGroup, word) -> Element:
    """Normal form of a word of (index, exponent) letters, any integer
    exponents, by the tuple collector."""
    c = collector(group)
    x = c.identity
    for k, e in word:
        x = c.mul(x, c.pow(c.generator(int(k)), int(e)))
    return x


def order_of(group: PcGroup, x: Element) -> int:
    """Order of x, by repeated p-th powers with the tuple collector."""
    c, n = collector(group), 1
    while x != c.identity:
        x = c.pow(x, c.p)
        n *= c.p
    return n


def consistency_witness_by_collector(group: PcGroup) -> Optional[ConsistencyWitness]:
    """`PcGroup.consistency_witness` evaluated with the tuple collector:
    the same four overlap families in the same order, the first failure
    returned with its two normal forms."""
    c = collector(group)
    m, p = c.ngens, c.p
    g = c.generator
    for k in range(3, m + 1):
        for j in range(2, k):
            for i in range(1, j):
                u = c._mul_gen(g(j), i, 1)
                lhs = c.mul(g(k), u)
                rhs = c._mul_gen(c._mul_gen(g(k), j, 1), i, 1)
                if lhs != rhs:
                    return ConsistencyWitness("assoc", (k, j, i), lhs, rhs)
    for j in range(2, m + 1):
        for i in range(1, j):
            u = c._mul_gen(g(j), i, 1)
            lhs = c._mul_gen(c._power_value(j), i, 1)
            gj_pm1 = tuple(p - 1 if t == j else 0 for t in range(1, m + 1))
            rhs = c.mul(gj_pm1, u)
            if lhs != rhs:
                return ConsistencyWitness("power_left", (j, i), lhs, rhs)
            lhs = c.mul(g(j), c._power_value(i))
            rhs = c._mul_gen(u, i, p - 1)
            if lhs != rhs:
                return ConsistencyWitness("power_right", (j, i), lhs, rhs)
    for i in range(1, m + 1):
        pi = c._power_value(i)
        lhs = c.mul(g(i), pi)
        rhs = c._mul_gen(pi, i, 1)
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
    return TableGroup(elements(group), collector(group).mul)


# ---------------------------------------------------------------------------
# maps, derivations and central automorphisms by enumeration


def identity_map(group: PcGroup) -> GroupMap:
    return GroupMap(group, group.gen_indices)


def inner_map(group: PcGroup, g: Element) -> GroupMap:
    """Conjugation x -> g^-1 x g as a GroupMap."""
    c = collector(group)
    return GroupMap(group, [group.idx(c.conj(gen, g)) for gen in gens(group)])


def image_tuples(f: GroupMap) -> list[Element]:
    """The generator images of f as exponent tuples."""
    return [f.group.vec(int(i)) for i in f.image_indices]


def apply_by_collector(f: GroupMap, x: Element) -> Element:
    """f(x) as the product images[1]**e_1 * ... * images[m]**e_m, by the
    tuple collector."""
    c = collector(f.group)
    images = image_tuples(f)
    out = c.identity
    for k in range(c.ngens):
        e = x[k]
        if e:
            out = c.mul(out, c.pow(images[k], e))
    return out


def verify_automorphism_by_collector(f: GroupMap) -> Optional[str]:
    """`verify_automorphism` relation by relation on exponent tuples: the
    left-hand sides by the collector's `pow` and `comm`, the right-hand
    sides by `apply_by_collector`; same check order and reasons."""
    G = f.group
    c, p = collector(G), G.p
    images = image_tuples(f)
    for k in range(1, G.ngens + 1):
        lhs = c.pow(images[k - 1], p)
        rhs = apply_by_collector(f, c._power_value(k))
        if lhs != rhs:
            return f"power relation for g{k} is not preserved"
    for j in range(2, G.ngens + 1):
        for i in range(1, j):
            lhs = c.comm(images[j - 1], images[i - 1])
            rhs = apply_by_collector(f, collect(G, G.pres.commutator(j, i)))
            if lhs != rhs:
                return f"commutator relation [g{j}, g{i}] is not preserved"
    qc = _frattini_coords(G)
    if fp.rank(qc.coords([G.idx(im) for im in images]), p) != qc.dim:
        return "images do not generate the group"
    return None


def canonical_rep(group: PcGroup, sub: Subgroup, x: Element) -> Element:
    """Index-least element of the coset (sub)*x, by scanning the coset."""
    c = collector(group)
    return min((c.mul(group.vec(int(z)), x) for z in sub.indices), key=group.idx)


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
    G, c = ctx.group, collector(ctx.group)
    i, j, t = coset_exponents(ctx, G.idx(g))
    return c.mul(c.pow(G.vec(ctx.w), i), c.pow(G.vec(ctx.comm_w_b), (i * (i - 1)) // 2))


def a_exponent_value(ctx, g: Element) -> Element:
    """w^j * [w,b]^(ij + t) where i, j, t are the exponents of g."""
    G, c = ctx.group, collector(ctx.group)
    i, j, t = coset_exponents(ctx, G.idx(g))
    return c.mul(c.pow(G.vec(ctx.w), j), c.pow(G.vec(ctx.comm_w_b), i * j + t))


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
    c = collector(G)
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
                val = c.mul(c.conj(gr, c.generator(k + 1)), combo[k])
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
    G, c = group, collector(group)
    z = center(G)
    z_elems = [G.vec(int(i)) for i in z.indices]
    rows = []
    for combo in itertools.product(z_elems, repeat=G.ngens):
        images = [G.idx(c.mul(gen, combo[k])) for k, gen in enumerate(gens(G))]
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
    G, c = group, collector(group)
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
                    b = c.mul(b, c.pow(chosen[k2], p - e))
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
    c = collector(group)
    return all(c.mul(x, y) == c.mul(y, x) for x in els for y in els)


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


def conj_perm(group: PcGroup, y: int) -> np.ndarray:
    """Permutation array P with P[i] = idx(vec(y)**-1 vec(i) vec(y)):
    from x through x**-1 y and its inverse y**-1 x, by the right
    multiplication by y and the inverse table, twice each."""
    it, right = group.inv_table(), group.right_mult_perm(y)
    return right[it[right[it]]]


def lower_central_series_by_elements(group: PcGroup) -> list[Subgroup]:
    """The lower central series with each step the normal closure of the
    commutators [x, g_k] of every element x of the term with every
    defining generator: one product per element and generator."""
    G = group
    inv_t = G.inv_table()
    perms = [conj_perm(G, g) for g in G.gen_indices.tolist()]
    series = [whole_group(G)]
    while series[-1].order > 1:
        x = series[-1].indices
        comms = np.zeros(G.element_count, dtype=bool)
        for perm in perms:
            comms[G.mul_indices(inv_t[x], perm[x])] = True
        comms[0] = False
        series.append(normal_closure(G, np.nonzero(comms)[0]))
    return series


def frattini_by_derived_series(group: PcGroup) -> Subgroup:
    """Phi(G) as the closure of G' (the second term of
    `lower_central_series_by_elements`) with the power relation words:
    modulo G' the group is abelian, so the p-th powers of the defining
    generators generate all p-th powers there."""
    derived = lower_central_series_by_elements(group)[1]
    powers = group.relation_indices[0][1:]
    return closure(group, np.concatenate([derived.indices, powers]))


def random_presentation(rng) -> PcPresentation:
    """A presentation with p in {2, 3, 5, 7}, at most 6 generators, and
    each letter of each relation word present with one of three
    densities; about a third of them are inconsistent."""
    p, m = rng.choice([2, 3, 5, 7]), rng.randint(1, 6)
    density = rng.choice([0.15, 0.3, 0.5])

    def word(floor):
        return [(k, rng.randrange(1, p)) for k in range(floor + 1, m + 1) if rng.random() < density]

    powers = {i: word(i) for i in range(1, m + 1)}
    commutators = {(j, i): word(j) for j in range(2, m + 1) for i in range(1, j)}
    return PcPresentation(p, m, powers, commutators)


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
        cur[top] = prefix[top] - (p - 1) * s + group.relation_indices[0][k]
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


# ---------------------------------------------------------------------------
# index products and powers by unit steps, which the power ladders and
# square-and-multiply replaced


def mul_indices_by_masked_passes(group: PcGroup, a, b) -> np.ndarray:
    """The array product idx(vec(a[i]) * vec(b[i])) with each coordinate
    k of b applied as that many steps through the table of g_k, masked
    to the entries whose coordinate k is at least the step: up to p - 1
    masked passes per coordinate."""
    b = np.asarray(b, dtype=np.int64)
    out = np.array(np.broadcast_to(a, b.shape), dtype=np.int64)
    for k in range(1, group.ngens + 1):
        digit = (b // group._stride(k)) % group.p
        for r in range(1, group.p):
            sel = digit >= r
            if not sel.any():
                break
            out[sel] = group._rtable(k)[out[sel]]
    return out


def pow_indices_by_products(group: PcGroup, x, e: int) -> np.ndarray:
    """Elementwise x**e, e >= 1, by e - 1 array products with x."""
    x = np.asarray(x, dtype=np.int64)
    out = x
    for _ in range(e - 1):
        out = group.mul_indices(out, x)
    return out


# ---------------------------------------------------------------------------
# the upper central series with a fresh coset table per term, and quotient
# coordinates by reducing generators with products, which the running table
# and the digits of the basis replaced


def upper_central_series_by_terms(group: PcGroup) -> tuple[list[Subgroup], list[np.ndarray]]:
    """The upper central series and the coset-minimum tables of its terms
    before G, each table folded afresh from the identity with the term's
    whole basis (`coset_min_table`): Z_(i+1) holds the x with
    M_i[x^(g_k)] = M_i[x] for every defining generator g_k."""
    G = group
    perms = _conj_gen_perms(G)
    series, tables = [trivial_subgroup(G)], []
    while series[-1].order < G.element_count:
        table = coset_min_table(G, series[-1])
        tables.append(table)
        mask = np.ones(G.element_count, dtype=bool)
        for perm in perms:
            mask &= table[perm] == table
        series.append(Subgroup(G, np.nonzero(mask)[0]))
    return series, tables


def quotient_gen_coords_by_products(group: PcGroup, sub: Subgroup) -> np.ndarray:
    """The images of the defining generators in F_p^dim of an elementary
    abelian quotient G/S: each g_k right-multiplied by powers of S's basis
    elements, pivot by pivot in ascending order, until its digits at S's
    pivots vanish (up to p - 1 masked `mul_indices` passes per pivot),
    then its digits at the other pivots."""
    p, m = group.p, group.ngens
    places = group.gen_indices
    reps = places.copy()
    for k, b in zip(sub.pivots, sub.basis):
        steps = -(reps // places[k - 1]) % p
        for r in range(1, p):
            sel = steps >= r
            if not sel.any():
                break
            reps[sel] = group.mul_indices(reps[sel], b)
    added = [k - 1 for k in range(1, m + 1) if k not in sub.pivots]
    return reps.reshape(-1, 1) // places[added] % p


# ---------------------------------------------------------------------------
# Gaussian elimination one matrix and one row at a time, which the stacked
# elimination of `fp` replaced


def row_echelon_by_rows(mat, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form of one matrix over F_p and its pivot
    columns: at each column the first nonzero row at or below the next
    pivot row is swapped up, scaled to 1 and subtracted from every other
    row, a Python loop over the rows."""
    a = np.array(mat, dtype=np.int64) % p
    if a.ndim == 1:
        a = a.reshape(1, -1)
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for rr in range(r, rows):
            if a[rr, c] % p:
                pivot_row = rr
                break
        if pivot_row is None:
            continue
        a[[r, pivot_row]] = a[[pivot_row, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = (a[r] * inv) % p
        for rr in range(rows):
            if rr != r and a[rr, c]:
                a[rr] = (a[rr] - a[rr, c] * a[r]) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


# ---------------------------------------------------------------------------
# reduced row-echelon forms over F_p from `fp`'s stacked elimination, and a
# linear solve read from them: no program path needs either, as the program
# asks `fp` only for ranks; the tests use them to check the elimination, and
# tools/source_corpus.py reads its tail kernels from `row_echelon`


def row_echelon(mat, p: int) -> tuple[np.ndarray, list]:
    """Reduced row-echelon form of `mat` over F_p and its pivot columns (for
    a stack, the forms and a list per matrix): `fp._eliminate`'s rows times
    x^(p-2) = x^-1 for their leading entries x, sorted by leading column."""
    a = np.atleast_2d(np.asarray(mat, dtype=np.int64) % p)
    ech = fp._eliminate(a, p)[0]
    # a row's leading zeros count its pivot column, c for a zero row
    lead = np.cumprod(ech == 0, axis=2).sum(axis=2)
    x = (ech * (np.arange(a.shape[-1]) == lead[:, :, None])).sum(axis=2, keepdims=True)
    ech = ech * np.frompyfunc(lambda v: pow(int(v), p - 2, p), 1, 1)(x).astype(np.int64) % p
    ech = np.take_along_axis(ech, lead.argsort(axis=1)[:, :, None], axis=1)
    pivots = [row[row < a.shape[-1]].tolist() for row in np.sort(lead, axis=1)]
    return (ech[0], pivots[0]) if a.ndim == 2 else (ech, pivots)


def solve_by_row_echelon(mat, rhs, p: int) -> Optional[np.ndarray]:
    """One solution x of mat @ x = rhs over F_p (free variables 0), read
    from `row_echelon` of the augmented matrix, or None when the
    system is inconsistent (the right-hand column is a pivot)."""
    a = np.atleast_2d(np.asarray(mat, dtype=np.int64) % p)
    b = np.array(rhs, dtype=np.int64).reshape(-1) % p
    if a.shape[0] != b.shape[0]:
        raise ValueError("matrix and right-hand side have mismatched rows")
    ech, pivots = row_echelon(np.hstack([a, b.reshape(-1, 1)]), p)
    n = a.shape[1]
    if n in pivots:
        return None
    x = np.zeros(n, dtype=np.int64)
    x[pivots] = ech[: len(pivots), n]
    return x
