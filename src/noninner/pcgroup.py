"""Weighted power-commutator presentations and the collection engine.

A presentation on generators g_1, ..., g_m over an odd-or-even prime p
consists of power relations g_i**p = w_i (w_i a normal word over
generators of index strictly greater than i) and commutator relations
[g_j, g_i] = w_ji for j > i (w_ji over indices strictly greater than j).
Missing relations default to the trivial word.  Conventions:

    [x, y] = x^-1 y^-1 x y        x^y = y^-1 x y        xy = yx[x,y]

Elements are kept in normal form as exponent tuples (e_1, ..., e_m) with
0 <= e_k < p, representing g_1**e_1 * ... * g_m**e_m.  The index of an
element is its mixed-radix value with the first coordinate most
significant, so lexicographic order on tuples equals numeric order on
indices.

A presentation with these shape constraints always yields a terminating
collection procedure; it defines a group of order p**m exactly when the
four families of overlap tests pass (`consistency_witness` returns None).

The program computes on indices only: the overlap tests by memoised
single-index steps, and everything else through generator tables built
from the relations.  The recursive tuple collector (`_mul_gen`, `mul`,
`inv`, ...) is the tests' independent reference and is on no program
path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import InconsistentPresentationError, OrderBoundError, PresentationError

Element = tuple[int, ...]
Word = tuple[tuple[int, int], ...]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _normalize_word(word: Iterable[Sequence[int]]) -> Word:
    out = []
    for letter in word:
        k, e = letter
        out.append((int(k), int(e)))
    return tuple(out)


def _push(tables: list, idx: np.ndarray, word: Iterable[tuple[int, int]]) -> np.ndarray:
    """idx right-multiplied entrywise by a normal word of (k, e)
    letters, one gather through T_k per unit of e."""
    for k, e in word:
        for _ in range(e):
            idx = tables[k][idx]
    return idx


class PcPresentation:
    """Validated power-commutator data for a finite p-group.

    Parameters
    ----------
    p:
        The prime.  Every generator has relative order p.
    ngens:
        Number of generators m; the presented group has order p**m
        when consistent.
    powers:
        Mapping i -> word for the relation g_i**p = word.  Words are
        sequences of (index, exponent) letters with strictly ascending
        indices, exponents in [1, p-1], and every index > i.
    commutators:
        Mapping (j, i) with j > i -> word for [g_j, g_i] = word, with
        every index in the word > j.
    """

    __slots__ = ("p", "ngens", "powers", "commutators")

    def __init__(
        self,
        p: int,
        ngens: int,
        powers: Optional[Mapping[int, Iterable[Sequence[int]]]] = None,
        commutators: Optional[Mapping[tuple[int, int], Iterable[Sequence[int]]]] = None,
    ) -> None:
        if not _is_prime(p):
            raise PresentationError(f"p must be prime, got {p}")
        if ngens < 1:
            raise PresentationError(f"ngens must be >= 1, got {ngens}")
        self.p = p
        self.ngens = ngens
        pw: dict[int, Word] = {}
        for i, word in (powers or {}).items():
            i = int(i)
            if not 1 <= i <= ngens:
                raise PresentationError(f"power relation index {i} out of range")
            w = _normalize_word(word)
            self._check_word(w, floor=i, context=f"power relation for generator {i}")
            if w:
                pw[i] = w
        cm: dict[tuple[int, int], Word] = {}
        for key, word in (commutators or {}).items():
            j, i = int(key[0]), int(key[1])
            if not (1 <= i < j <= ngens):
                raise PresentationError(
                    f"commutator relation key ({j}, {i}) must satisfy ngens >= j > i >= 1"
                )
            w = _normalize_word(word)
            self._check_word(w, floor=j, context=f"commutator relation [{j}, {i}]")
            if w:
                cm[(j, i)] = w
        self.powers = pw
        self.commutators = cm

    def _check_word(self, word: Word, floor: int, context: str) -> None:
        prev = floor
        for k, e in word:
            if not floor < k <= self.ngens:
                raise PresentationError(
                    f"{context}: generator index {k} must lie in ({floor}, {self.ngens}]"
                )
            if k <= prev:
                raise PresentationError(f"{context}: indices must be strictly ascending")
            if not 1 <= e <= self.p - 1:
                raise PresentationError(
                    f"{context}: exponent {e} must lie in [1, {self.p - 1}]"
                )
            prev = k

    def power(self, i: int) -> Word:
        """Relation word for g_i**p (empty tuple if trivial)."""
        return self.powers.get(i, ())

    def commutator(self, j: int, i: int) -> Word:
        """Relation word for [g_j, g_i], j > i (empty tuple if trivial)."""
        return self.commutators.get((j, i), ())

    @property
    def order(self) -> int:
        return self.p**self.ngens

    def canonical_key(self) -> tuple:
        return (
            self.p,
            self.ngens,
            tuple(sorted(self.powers.items())),
            tuple(sorted(self.commutators.items())),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PcPresentation):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def __repr__(self) -> str:
        return (
            f"PcPresentation(p={self.p}, ngens={self.ngens}, "
            f"{len(self.powers)} power and {len(self.commutators)} commutator relations)"
        )


@dataclass(frozen=True)
class ConsistencyWitness:
    """A failed overlap test: `kind` names the family, `gens` the
    generator indices involved, and lhs/rhs the two distinct normal
    forms obtained for the same product."""

    kind: str
    gens: tuple[int, ...]
    lhs: Element
    rhs: Element

    def describe(self) -> str:
        names = ", ".join(f"g{k}" for k in self.gens)
        return f"overlap test '{self.kind}' on ({names}) gives {self.lhs} != {self.rhs}"


class PcGroup:
    """Collection engine over a power-commutator presentation.

    Construction checks consistency by default and raises
    InconsistentPresentationError (with a witness) when the presented
    group is smaller than p**ngens.
    """

    def __init__(
        self,
        pres: PcPresentation,
        validate: bool = True,
        element_bound: int = 100_000,
    ) -> None:
        self.pres = pres
        self.p = pres.p
        self.ngens = pres.ngens
        self.element_bound = element_bound
        self.identity: Element = (0,) * pres.ngens
        self._conj_cache: dict[tuple[int, int], Element] = {}
        self._power_values: dict[int, Element] = {}
        self._rtables: list = []
        self._inv_table: Optional[np.ndarray] = None
        self._cache: dict = {}
        self._steps: list[dict[int, int]] = [{} for _ in range(pres.ngens + 1)]
        if validate:
            witness = self.consistency_witness()
            if witness is not None:
                raise InconsistentPresentationError(
                    f"presentation does not define a group of order "
                    f"{pres.p}**{pres.ngens}: {witness.describe()}",
                    witness,
                )

    # ------------------------------------------------------------------
    # collection core

    def generator(self, i: int) -> Element:
        if not 1 <= i <= self.ngens:
            raise ValueError(f"generator index {i} out of range")
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

    def _mul_word(self, x: Element, word: Word) -> Element:
        """x times a relation word, whose exponents lie in [1, p)."""
        for k, e in word:
            x = self._mul_gen(x, k, e)
        return x

    # ------------------------------------------------------------------
    # tuple arithmetic: the tests' reference arithmetic; the program calls
    # none of these, and perfbench/tracer.py counts them by name

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

    # ------------------------------------------------------------------
    # consistency

    def consistency_witness(self) -> Optional[ConsistencyWitness]:
        """Run all overlap tests; return the first failure, else None.

        The tests compare two collection orders for each critical word:
        g_k(g_j g_i) vs (g_k g_j)g_i for k > j > i, the two power
        overlaps g_j**p with g_i and g_j with g_i**p for j > i, and
        g_i * g_i**p vs g_i**p * g_i.  All pass exactly when normal
        forms are unique, i.e. the group has order p**ngens.

        Both sides are evaluated on indices by `_index_steps`, which needs
        no table, so the check runs above `element_bound`.  Every step is
        a sequence of rule applications: equal sides join the critical
        pair, and unequal sides are two irreducible forms of one word.
        """
        m, p = self.ngens, self.p
        step, times = self._index_steps()
        s = [self._stride(k) for k in range(m + 1)]
        power = [self._word_index(self.pres.power(k)) for k in range(m + 1)]

        def witness(kind, gens, lhs, rhs):
            return ConsistencyWitness(kind, gens, self.vec(lhs), self.vec(rhs))

        for k in range(3, m + 1):
            for j in range(2, k):
                for i in range(1, j):
                    lhs = times(s[k], step(s[j], i, 1))
                    rhs = step(step(s[k], j, 1), i, 1)
                    if lhs != rhs:
                        return witness("assoc", (k, j, i), lhs, rhs)
        for j in range(2, m + 1):
            for i in range(1, j):
                u = step(s[j], i, 1)
                lhs = step(power[j], i, 1)
                rhs = times((p - 1) * s[j], u)
                if lhs != rhs:
                    return witness("power_left", (j, i), lhs, rhs)
                lhs = times(s[j], power[i])
                rhs = step(u, i, p - 1)
                if lhs != rhs:
                    return witness("power_right", (j, i), lhs, rhs)
        for i in range(1, m + 1):
            lhs = times(s[i], power[i])
            rhs = step(power[i], i, 1)
            if lhs != rhs:
                return witness("power_self", (i,), lhs, rhs)
        return None

    def _index_steps(self):
        """The collector's rewriting on single indices, as two functions:
        `step(x, k, e)` = idx(vec(x) * g_k**e) for 1 <= e < p, and
        `times(x, y)` = idx(vec(x) * vec(y)), one step per letter of y.

        G_k = <g_k, ..., g_m> is normal, so a step leaves the coordinates
        of x before k alone, and it is memoised in `_steps[k]` on the tail
        t = x mod p s_k (s_k the stride of g_k) and e, under the key
        t p + e.  With t = g_k^d v, v in G_(k+1),
        t g_k^e = g_k^(d+e) v^(g_k^e): the digit d + e is reduced mod p, a
        carry appending the power word of g_k, and each letter g_l of v is
        then pushed as its conjugate by g_k^e, found by e rounds of
        replacing each letter g_n with g_n [g_n, g_k].  Every push is a
        step at a deeper generator, so the recursion is at most m deep.
        These are the tuple collector's rules in its order, so on an
        inconsistent presentation both reach the same normal forms.
        """
        p, m = self.p, self.ngens
        strides = [self._stride(k) for k in range(m + 1)]
        power = [self._word_index(self.pres.power(k)) for k in range(m + 1)]
        commutator = self.pres.commutator
        memos = self._steps
        conjugates: dict[tuple[int, int, int], list] = {}

        def letters(x):
            out = []
            k = m
            while x:
                x, e = divmod(x, p)
                if e:
                    out.append((k, e))
                k -= 1
            out.reverse()
            return out

        def step(x, k, e):
            s = strides[k]
            t = x % (p * s)
            memo = memos[k]
            y = memo.get(t * p + e)
            if y is None:
                d, v = divmod(t, s)
                carry, d = divmod(d + e, p)
                y = d * s + carry * power[k]
                for l, a in letters(v):
                    z = conjugate(l, k, e)
                    for _ in range(a):
                        for n, c in z:
                            y = step(y, n, c)
                memo[t * p + e] = y
            return x - t + y

        def conjugate(l, k, e):
            z = conjugates.get((l, k, e))
            if z is None:
                z = [(l, 1)]
                for _ in range(e):
                    y = 0
                    for n, a in z:
                        for _ in range(a):
                            y = step(y, n, 1)
                            for n2, c in commutator(n, k):
                                y = step(y, n2, c)
                    z = letters(y)
                conjugates[(l, k, e)] = z
            return z

        def times(x, y):
            for k, e in letters(y):
                x = step(x, k, e)
            return x

        return step, times

    # ------------------------------------------------------------------
    # indexed view

    @property
    def element_count(self) -> int:
        return self.p**self.ngens

    def _check_bound(self) -> None:
        if self.element_count > self.element_bound:
            raise OrderBoundError(
                f"group order {self.element_count} exceeds the element bound "
                f"{self.element_bound}"
            )

    def idx(self, x: Element) -> int:
        n = 0
        for e in x:
            n = n * self.p + e
        return n

    def vec(self, n: int) -> Element:
        out = [0] * self.ngens
        for k in range(self.ngens - 1, -1, -1):
            n, out[k] = divmod(n, self.p)
        return tuple(out)

    # ------------------------------------------------------------------
    # index-table arithmetic
    #
    # Arithmetic over many elements at once works on index arrays through
    # the m generator tables T_k[i] = idx(vec(i) * g_k), and single
    # elements are indices too.  The tables are built from the relations
    # alone, without the tuple collector.

    def _stride(self, k: int) -> int:
        """Index of g_k, the place value of coordinate k."""
        return self.p ** (self.ngens - k)

    def _word_index(self, word: Word) -> int:
        """Index of a relation word; its letters ascend with exponents in
        [1, p), so the word is already a normal form."""
        return sum(e * self._stride(k) for k, e in word)

    @property
    def gen_indices(self) -> np.ndarray:
        """Indices of g_1, ..., g_m."""
        return self.p ** np.arange(self.ngens - 1, -1, -1, dtype=np.int64)

    def _last_letter_levels(self):
        """Yield (k, ys, parents), one level per last nonzero coordinate k
        of y and its value: parents = ys - stride_k peel the letter g_k
        off, and each lies in an earlier level or is the identity."""
        self._check_bound()
        for k in range(1, self.ngens + 1):
            s = self._stride(k)
            heads = np.arange(self.p ** (k - 1), dtype=np.int64) * self.p * s
            for e in range(1, self.p):
                ys = heads + e * s
                yield k, ys, ys - s

    def _tables(self) -> list:
        """The generator tables, T_k at position k, built by last-letter
        levels, deepest generator first.  Where x has no letter beyond
        g_k, x g_k raises coordinate k of x or, where that would reach p,
        clears it and appends the power word of g_k.  Otherwise x = x' g_l
        with last letter l > k, and x g_k = (x' g_k) g_l^(g_k), where
        g_l^(g_k) = g_l [g_l, g_k] is a normal word beyond k: the entry of
        the parent x', an earlier level, pushed through its letters' tables.
        """
        if not self._rtables:
            p, m = self.p, self.ngens
            levels = list(self._last_letter_levels())
            tables: list = [None] * (m + 1)
            for k in range(m, 0, -1):
                s = self._stride(k)
                cur = np.empty(self.element_count, dtype=np.int64)
                cur[::s] = np.arange(s, self.element_count + s, s)
                cur[(p - 1) * s :: p * s] += self._word_index(self.pres.power(k)) - p * s
                for last, ys, parents in levels:
                    if last > k:
                        conj_word = ((last, 1),) + self.pres.commutator(last, k)
                        cur[ys] = _push(tables, cur[parents], conj_word)
                tables[k] = cur
            self._rtables = tables
        return self._rtables

    def _rtable(self, g: int) -> np.ndarray:
        """Index table for right multiplication by g_g."""
        return self._tables()[g]

    def mul_indices(self, a, b) -> np.ndarray:
        """Elementwise product of index arrays, idx(vec(a[i]) * vec(b[i])).

        `b` may also be a single index, which then multiplies every entry
        of `a`.  Each coordinate k of b is applied as that many steps
        through the table of g_k, masked to the entries whose coordinate
        k is at least the step.
        """
        b = np.asarray(b, dtype=np.int64)
        if b.ndim == 0:
            word = enumerate(self.vec(int(b)), start=1)
            return _push(self._tables(), np.array(a, dtype=np.int64), word)
        out = np.array(np.broadcast_to(a, b.shape), dtype=np.int64)
        for k in range(1, self.ngens + 1):
            digit = (b // self._stride(k)) % self.p
            for r in range(1, self.p):
                sel = digit >= r
                if not sel.any():
                    break
                out[sel] = self._rtable(k)[out[sel]]
        return out

    def comm_indices(self, x, y) -> np.ndarray:
        """Elementwise commutator [x, y] = (y x)^-1 (x y) of index arrays
        or single indices."""
        return self.mul_indices(self.inv_table()[self.mul_indices(y, x)], self.mul_indices(x, y))

    def right_mult_perm(self, y: int) -> np.ndarray:
        """Permutation array P with P[i] = idx(vec(i) * vec(y))."""
        self._check_bound()
        return self.mul_indices(np.arange(self.element_count, dtype=np.int64), y)

    def mul_idx(self, i: int, j: int) -> int:
        return int(self.mul_indices(i, j))

    def inv_table(self) -> np.ndarray:
        """Array T with T[i] = idx(vec(i)**-1), built by first-letter
        levels, deepest first.  The elements whose first nonzero
        coordinate is k, with value e, are the block [e s_k, (e + 1) s_k)
        of x = g_k^e v, v = x - e s_k (s_k the stride of g_k), and
        x^-1 = v^-1 g_k^(p - e) (g_k^p)^-1: v and the power word g_k^p are
        deeper, so their inverses are already in the table.
        """
        if self._inv_table is None:
            tables = self._tables()
            out = np.zeros(self.element_count, dtype=np.int64)
            for k in range(self.ngens, 0, -1):
                s = self._stride(k)
                power_inv = out[self._word_index(self.pres.power(k))]
                word = list(enumerate(self.vec(int(power_inv)), start=1))
                cur = out[:s]
                for e in range(self.p - 1, 0, -1):
                    cur = tables[k][cur]
                    out[e * s : (e + 1) * s] = _push(tables, cur, word)
            self._inv_table = out
        return self._inv_table

    def conj_perm(self, y: int) -> np.ndarray:
        """Permutation array P with P[i] = idx(vec(y)**-1 vec(i) vec(y)):
        from x through x**-1 y and its inverse y**-1 x, by the right
        multiplication by y and the inverse table, twice each."""
        it, right = self.inv_table(), self.right_mult_perm(y)
        return right[it[right[it]]]
