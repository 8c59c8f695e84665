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
four families of overlap tests (`overlaps`) all pass, that is when
`consistency_witness` returns None.

The program computes on indices only, through the generators' power
ladders, built from the relations.  Each overlap test is the
associativity of one triple of indices; within `element_bound` the
check is four array products over all the triples at once, and the
memoised single-index steps, which need no table, run only above the
bound and to name the first failing test.  The tuple methods `mul`,
`inv`, `pow`, `conj` and `comm` answer through the same single-index
steps and are on no program path; the tests' independent reference, a
recursive tuple collector, lives with the other oracles in
`tests/util_oracles.py`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import InconsistentPresentationError, OrderBoundError, PresentationError

Element = tuple[int, ...]
Word = tuple[tuple[int, int], ...]


# Miller-Rabin to the prime bases up to 41 is exact below the least strong
# pseudoprime to all of them, 3 317 044 064 679 887 385 961 981 (Sorenson and
# Webster, Math. Comp. 86, 2017); the bases up to 37 alone stop at 3.2e23.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _prime_error(n: int) -> Optional[str]:
    """None when n is prime, else why it is refused as p: not prime, or
    too large for the deterministic test."""
    if n >= _PRIME_BOUND:
        return f"p = {n} is not below {_PRIME_BOUND}, the bound of the primality test"
    if n < 2 or any(n % b == 0 for b in _PRIME_BASES):
        return None if n in _PRIME_BASES else f"p must be prime, got {n}"
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in _PRIME_BASES:
        # n passes base b when b^d = 1 or b^(d 2^i) = -1 for some i < r
        x = pow(b, d, n)
        if x != 1 and n - 1 not in (pow(x, 2**i, n) for i in range(r)):
            return f"p must be prime, got {n}"
    return None


def _normalize_word(word: Iterable[Sequence[int]]) -> Word:
    return tuple((int(k), int(e)) for k, e in word)


# Radix of the power ladders (see `PcGroup._tables`).  Every prime p <= 7
# is a single base-8 digit, so there (every eligible group, every corpus
# group) a product gathers once per coordinate.  A larger p takes one gather
# per base-8 place, ceil(log_8 p) of them, through at most 8 ceil(log_8 p)
# blocks per generator: at p = 313 that is 3 gathers over 19 blocks, where
# radix 4 would take 5 gathers over 14 blocks and radix 16 the same 3 gathers
# over 32 blocks.
_RADIX = 8


def per_group(build):
    """Memoise `build(group)` in `group._cache`, keyed on `build`: computed
    on first use, then returned as is.

    The one rule of the cache: a cached value must not refer back to the
    group.  The group would otherwise sit in a reference cycle, and it
    and all its tables would stay alive until the next full garbage
    collection.  Subgroups qualify, as they keep the presentation, not
    the group."""

    @functools.wraps(build)
    def cached(group):
        value = group._cache.get(build)
        if value is None:
            value = group._cache[build] = build(group)
        return value

    return cached


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
        problem = _prime_error(p)
        if problem:
            raise PresentationError(problem, "prime")
        if ngens < 1:
            raise PresentationError(f"ngens must be >= 1, got {ngens}", "ngens")
        self.p = p
        self.ngens = ngens
        pw: dict[int, Word] = {}
        for i, word in (powers or {}).items():
            i = int(i)
            if not 1 <= i <= ngens:
                raise PresentationError(f"generator index {i} out of range", "pow", i)
            w = _normalize_word(word)
            self._check_word(w, floor=i, field="pow", key=i)
            if w:
                pw[i] = w
        cm: dict[tuple[int, int], Word] = {}
        for key, word in (commutators or {}).items():
            j, i = key = int(key[0]), int(key[1])
            if not 1 <= i < j <= ngens:
                raise PresentationError(
                    f"comm indices need ngens >= j > i >= 1, got {j} {i}", "comm", key
                )
            w = _normalize_word(word)
            self._check_word(w, floor=j, field="comm", key=key)
            if w:
                cm[key] = w
        self.powers = pw
        self.commutators = cm

    def _check_word(self, word: Word, floor: int, field: str, key) -> None:
        prev = floor
        for pos, (k, e) in enumerate(word):
            if not 1 <= k <= self.ngens:
                problem = f"generator index {k} out of range"
            elif k <= floor:
                problem = f"generator index {k} not above {floor}"
            elif k <= prev:
                problem = "generator indices must be strictly ascending"
            elif not 1 <= e <= self.p - 1:
                problem = f"exponent {e} outside [1, {self.p - 1}]"
            else:
                prev = k
                continue
            raise PresentationError(problem, field, key, pos)

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
        self._rtables: list = []
        self._ladders: list = []
        self._offsets: list = []
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
    # tuple arithmetic through the index steps; the program calls none of
    # these, and perfbench/tracer.py counts them by name

    def mul(self, x: Element, y: Element) -> Element:
        return self.vec(self._index_steps()[1](self.idx(x), self.idx(y)))

    def inv(self, x: Element) -> Element:
        """Inverse, found by cancelling coordinates left to right:
        right-multiplying by g_k**(p - a) clears coordinate k without
        disturbing earlier ones, and the cancelling letters accumulate in
        ascending order, so they are themselves a normal form."""
        step, p = self._index_steps()[0], self.p
        cur, out = self.idx(x), 0
        for k in range(1, self.ngens + 1):
            a = cur // self._stride(k) % p
            if a:
                cur = step(cur, k, p - a)
                out += (p - a) * self._stride(k)
        return self.vec(out)

    def pow(self, x: Element, e: int) -> Element:
        if e < 0:
            x, e = self.inv(x), -e
        out, base = self.identity, x
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

    def _overlap_triples(self):
        """Every overlap test as (kind, gens, x, y, z): the word
        vec(x) vec(y) vec(z) of three normal forms, whose two products
        (x y) z and x (y z) must agree.  In the order of `overlaps`:

            assoc        (k, j, i), k > j > i   (g_k, g_j, g_i)
            power_left   (j, i), j > i          (g_j**(p-1), g_j, g_i)
            power_right  (j, i), j > i          (g_j, g_i, g_i**(p-1))
            power_self   (i,)                   (g_i, g_i**(p-1), g_i)

        At 3^7 there are 84 of them.  They are generated one at a time, as
        there are about m**3 / 6."""
        m, p = self.ngens, self.p
        s = [self._stride(k) for k in range(m + 1)]
        for k in range(3, m + 1):
            for j in range(2, k):
                for i in range(1, j):
                    yield "assoc", (k, j, i), s[k], s[j], s[i]
        for j in range(2, m + 1):
            for i in range(1, j):
                yield "power_left", (j, i), (p - 1) * s[j], s[j], s[i]
                yield "power_right", (j, i), s[j], s[i], (p - 1) * s[i]
        for i in range(1, m + 1):
            yield "power_self", (i,), s[i], (p - 1) * s[i], s[i]

    def overlaps(self):
        """Yield (kind, gens, lhs, rhs) for every overlap test of
        `_overlap_triples`, the two sides as indices: lhs is x (y z) and
        rhs (x y) z, except that `power_left` reports (x y) z, the carry
        g_j**p g_i, as its lhs.  All pairs are equal exactly when normal
        forms are unique, i.e. the group has order p**ngens.

        Both sides are evaluated by `_index_steps`, which needs no table,
        so this is the check above `element_bound`, and it names the
        failing test below it.  Every step is a sequence of rule
        applications: equal sides join the critical pair, and unequal
        sides are two irreducible forms of one word.  The tests are
        evaluated lazily, one pair per `next`.
        """
        times = self._index_steps()[1]
        for kind, gens, x, y, z in self._overlap_triples():
            lhs, rhs = times(x, times(y, z)), times(times(x, y), z)
            if kind == "power_left":
                lhs, rhs = rhs, lhs
            yield kind, gens, lhs, rhs

    def consistency_witness(self) -> Optional[ConsistencyWitness]:
        """The first unequal pair of `overlaps`, as exponent tuples, or
        None when the presentation is consistent.

        Within `element_bound` the verdict comes first from the generator
        tables: four `mul_indices` calls compare (X Y) Z with X (Y Z)
        over the arrays of all the triples.  This is sound because every
        ladder entry, like every index step, is a sequence of rule
        applications on the word x g_k: the digit step and the power carry
        g_k**p -> w_k, and x' g_l g_k -> x' g_k g_l [g_l, g_k] for a last
        letter l > k.  So the two table sides of a test are irreducible
        reducts of the same overlap word, one through each branch of its
        critical pair.  On a consistent presentation every word has one
        normal form, and both sides are it; on an inconsistent one some
        critical pair does not join, and no reduction of its two branches
        meets (Sims, *Computation with finitely presented groups*, 1994,
        ch. 9; Holt, Eick and O'Brien, *Handbook of Computational Group
        Theory*, 2005, ch. 9).  The verdict does not depend on the order
        of the rewriting, but the unequal forms do: when the tables find a
        failure, the witness is still the first unequal pair of the steps,
        the collector's normal forms.
        """
        if self.element_count <= self.element_bound:
            _, _, x, y, z = zip(*self._overlap_triples())
            mul = self.mul_indices
            if np.array_equal(mul(mul(x, y), z), mul(x, mul(y, z))):
                return None
        for kind, gens, lhs, rhs in self.overlaps():
            if lhs != rhs:
                return ConsistencyWitness(kind, gens, self.vec(lhs), self.vec(rhs))
        return None

    @per_group
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
        These are the rules of the tests' recursive tuple collector in its
        order, so on an inconsistent presentation both reach the same
        normal forms.  The pair is built once per group, and with it the
        memos of the conjugates and of the spelling of an index as
        letters; its closures refer to no group.
        """
        p, m = self.p, self.ngens
        strides = [self._stride(k) for k in range(m + 1)]
        power = self.relation_indices[0]
        commutator = self.pres.commutator
        memos = self._steps
        conjugates: dict[tuple[int, int, int], list] = {}

        @functools.cache
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
    # Arithmetic over many elements at once works on index arrays, and
    # single elements are indices too.  Every product reads the power
    # ladders of the generators: the ladder of g_k holds, one block of |G|
    # entries each, the tables of x -> x g_k**(e 8**j) for every base-8
    # place j of the exponents below p and every digit e, and beside it one
    # offset table per place maps each index i to the start of the block
    # of the place-j digit of coordinate k of i.  Block 1 is the generator
    # table T_k[i] = idx(vec(i) * g_k).  The ladders are built from the
    # relations alone, without the tuple collector.

    def _stride(self, k: int) -> int:
        """Index of g_k, the place value of coordinate k."""
        return self.p ** (self.ngens - k)

    @functools.cached_property
    def relation_indices(self) -> tuple[list[int], list[list[int]]]:
        """Indices of the relation words, computed once per group:
        `power[k]` of g_k**p, and `comm[j][i]` of [g_j, g_i] for j > i (0
        elsewhere).  A word's letters ascend with exponents in [1, p), so
        it is already a normal form and its index is its value."""
        m = self.ngens
        strides = [self._stride(k) for k in range(m + 1)]
        power, comm = [0] * (m + 1), [[0] * (m + 1) for _ in range(m + 1)]
        for k, word in self.pres.powers.items():
            power[k] = sum(e * strides[l] for l, e in word)
        for (j, i), word in self.pres.commutators.items():
            comm[j][i] = sum(e * strides[l] for l, e in word)
        return power, comm

    @property
    def gen_indices(self) -> np.ndarray:
        """Indices of g_1, ..., g_m."""
        return self.p ** np.arange(self.ngens - 1, -1, -1, dtype=np.int64)

    def _last_letter_levels(self):
        """Yield (k, ys, parents), one level per last nonzero coordinate k
        of y and its value e: as the coordinates before k vary in steps of
        p s_k (s_k the stride of g_k), ys is the slice(e s_k, |G|, p s_k),
        a view rather than a gather.  Its parents ys - s_k peel g_k off and
        lie in an earlier level or are the identity."""
        self._check_bound()
        p, n = self.p, self.element_count
        for k in range(1, self.ngens + 1):
            s = self._stride(k)
            for e in range(1, p):
                yield k, slice(e * s, n, p * s), slice((e - 1) * s, n, p * s)

    def _tables(self) -> list:
        """The generator tables, T_k at position k, built by last-letter
        levels, deepest generator first.  Where x has no letter beyond
        g_k, x g_k raises coordinate k of x or, where that would reach p,
        clears it and appends the power word of g_k.  Otherwise x = x' g_l
        with last letter l > k, and x g_k = (x' g_k) g_l^(g_k), where
        g_l^(g_k) = g_l [g_l, g_k] is a normal word beyond k: the entry of
        the parent x', an earlier level, pushed through its letters'
        ladders.

        T_k is built in place as block 1 of the ladder of g_k, and the
        ladder is completed before the next generator: within a place,
        block e is T_k**(8**j) applied to block e - 1, and the first block
        of a place, g_k**(8**j) = g_k**(8**(j-1)) g_k**(7 * 8**(j-1)), is
        the previous place's first block applied to its last.  The layout
        is read from Python ints: place j has its first block and one
        block per nonzero digit, and starts[d] is the start of the block
        of the place-j digit of d (0, the identity block, for digit 0).
        The offset tables of a place, one per generator, are the rows of
        one gather of its starts by the digit matrix of all coordinates.
        """
        if not self._rtables:
            p, m, n = self.p, self.ngens, self.element_count
            power, comm = self.relation_indices
            levels = list(self._last_letter_levels())
            places, starts, first, weight = [], [], 1, 1
            while weight < p:
                count = min(_RADIX - 1, (p - 1) // weight)
                row = []
                for start in [0, *range(first * n, (first + count) * n, n)]:
                    row += [start] * weight
                places.append((first, count))
                # row holds one period, 8**(j+1), of the place-j digits, or all d < p
                starts.append((row * -(-p // len(row)))[:p])
                first, weight = first + count, weight * _RADIX
            blocks, dtype = first, np.min_scalar_type(first * n)
            # digits[k - 1] holds coordinate k of every index
            digits = np.arange(n) // self.gen_indices[:, None] % p
            offsets = [np.array(row, dtype=dtype).take(digits) for row in starts]
            self._ladders = [None] * (m + 1)
            self._offsets = [None] + [[place[k] for place in offsets] for k in range(m)]
            tables: list = [None] * (m + 1)
            for k in range(m, 0, -1):
                s = self._stride(k)
                ladder = np.empty(blocks * n, dtype=np.int64)
                block = [ladder[b * n : (b + 1) * n] for b in range(blocks)]
                block[0][:] = np.arange(n)
                cur = block[1]
                cur[::s] = np.arange(s, n + s, s)
                cur[(p - 1) * s :: p * s] += power[k] - p * s
                for last, ys, parents in levels:
                    if last > k:
                        cur[ys] = self._push(cur[parents], self._stride(last) + comm[last][k], last)
                # the gathered entries are indices below n, so "clip" never
                # acts; the default "raise" would copy each block through a
                # buffer, about a third of the probe's table build
                for j, (first, count) in enumerate(places):
                    if j:
                        prev = places[j - 1][0]
                        np.take(block[prev], block[first - 1], out=block[first], mode="clip")
                    for b in range(first + 1, first + count):
                        np.take(block[first], block[b - 1], out=block[b], mode="clip")
                self._ladders[k] = ladder
                tables[k] = cur
            self._rtables = tables
        return self._rtables

    def _rtable(self, g: int) -> np.ndarray:
        """Index table for right multiplication by g_g."""
        return self._tables()[g]

    def _push(self, idx: np.ndarray, y: int, first: int) -> np.ndarray:
        """idx right-multiplied entrywise by the element of index y, whose
        coordinates before `first` are 0: one gather per nonzero base-8
        digit of each later coordinate, through that digit's block."""
        n = self.element_count
        for k in range(first, self.ngens + 1):
            ladder = self._ladders[k]
            for offsets in self._offsets[k]:
                start = int(offsets[y])
                if start:
                    idx = ladder[start : start + n].take(idx)
        return idx

    def mul_indices(self, a, b) -> np.ndarray:
        """Elementwise product of index arrays, idx(vec(a[i]) * vec(b[i])).

        `b` may also be a single index, which then multiplies every entry
        of `a`.  Coordinate k of b is applied through the power ladder of
        g_k, one gather per base-8 place: an array b picks each entry's
        block by the offset table, and a single b gathers only through the
        blocks of its nonzero digits.  At p <= 7 that is one gather per
        coordinate.
        """
        self._tables()
        b = np.asarray(b, dtype=np.int64)
        if b.ndim == 0:
            return self._push(np.array(a, dtype=np.int64), int(b), 1)
        out = np.asarray(a, dtype=np.int64)
        for ladder, places in zip(self._ladders[1:], self._offsets[1:]):
            for offsets in places:
                out = ladder.take(offsets.take(b) + out)
        return out

    def pow_indices(self, x, e: int) -> np.ndarray:
        """Elementwise power x**e, e >= 0, of an index array or a single
        index, by square and multiply: bit_length(e) - 1 squarings and
        popcount(e) - 1 products."""
        base = np.array(x, dtype=np.int64)
        out = None
        while e:
            if e & 1:
                out = base if out is None else self.mul_indices(out, base)
            e >>= 1
            if e:
                base = self.mul_indices(base, base)
        return np.zeros_like(base) if out is None else out

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

    @per_group
    def inv_table(self) -> np.ndarray:
        """Array T with T[i] = idx(vec(i)**-1), built by first-letter
        levels, deepest first.  The elements whose first nonzero
        coordinate is k, with value e, are the block [e s_k, (e + 1) s_k)
        of x = g_k^e v, v = x - e s_k (s_k the stride of g_k), and
        x^-1 = v^-1 g_k^(p - e) (g_k^p)^-1: v and the power word g_k^p are
        deeper, so their inverses are already in the table.
        """
        tables, power = self._tables(), self.relation_indices[0]
        out = np.zeros(self.element_count, dtype=np.int64)
        for k in range(self.ngens, 0, -1):
            s = self._stride(k)
            power_inv = int(out[power[k]])
            cur = out[:s]
            for e in range(self.p - 1, 0, -1):
                cur = tables[k][cur]
                out[e * s : (e + 1) * s] = self._push(cur, power_inv, k + 1)
        return out
