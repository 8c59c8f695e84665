"""Independent checker for the outputs of `noninner`.

This module imports nothing from `noninner`.  It reads a `.pcp` file with
its own small parser, builds the right-multiplication table of every
defining generator by collection from the left, and from those the full
Cayley table of the group.  Every check is then a gather over that table:

    x * g_k = (u * g_k) * t^(g_k)

where x = u * t splits x into its prefix u (coordinates up to k) and its
tail t (coordinates beyond k).  u * g_k is read off the power relation of
g_k, and t^(g_k) is the product of the conjugates g_j^(g_k) = g_j [g_j, g_k]
taken from the commutator relations, so building the table of g_k needs
only the tables of the deeper generators.  Conventions match the `.pcp`
format: [x, y] = x^-1 y^-1 x y and x^y = y^-1 x y.

The Cayley table has |G|^2 entries, so the checker is meant for the
desk-scale groups of the corpus (orders up to 3^7 here).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Presentation:
    p: int
    m: int
    powers: dict  # i -> [(k, e), ...], the word for g_i^p
    comms: dict  # (j, i) with j > i -> [(k, e), ...], the word for [g_j, g_i]


def parse_pcp(text: str) -> Presentation:
    """Header and relation lines of a `.pcp` file.  The files this reads
    are already validated by `noninner`, so only the shape is checked."""
    p = m = None
    powers: dict = {}
    comms: dict = {}
    for line in text.splitlines():
        toks = line.split("#", 1)[0].split()
        if not toks:
            continue
        if toks[0] == "prime":
            p = int(toks[1])
        elif toks[0] == "ngens":
            m = int(toks[1])
        elif toks[0] == "pow":
            powers[int(toks[1])] = _word(toks[3:])
        elif toks[0] == "comm":
            comms[(int(toks[1]), int(toks[2]))] = _word(toks[4:])
        elif toks != ["pcp", "1"]:
            raise ValueError(f"unexpected line {line!r}")
    if p is None or m is None:
        raise ValueError("missing 'prime' or 'ngens' header line")
    return Presentation(p, m, powers, comms)


def _word(toks) -> list:
    if toks == ["1"]:
        return []
    return [tuple(int(v) for v in t.split("^")) for t in toks]


class Group:
    """Cayley table and subgroup arithmetic of a presented p-group.

    Elements are indices 0 .. p^m - 1, the mixed-radix value of the
    exponent vector with g_1 most significant; index 0 is the identity.
    """

    def __init__(self, pres: Presentation):
        p, m = pres.p, pres.m
        n = p**m
        self.pres = pres
        self.p, self.m, self.n = p, m, n
        self.strides = np.array([p ** (m - k) for k in range(1, m + 1)], dtype=np.int64)
        idx = np.arange(n, dtype=np.int64)
        self.digits = (idx[:, None] // self.strides[None, :]) % p
        self.gens = [int(s) for s in self.strides]
        gen_tables = self._generator_tables()
        self.table = self._cayley(gen_tables)
        # the row of x holds the identity exactly at x^-1
        self.inv = np.argmin(self.table, axis=1)

    # -- construction ----------------------------------------------------

    def word_index(self, word) -> int:
        """Index of a normal word (ascending generators, exponents < p)."""
        return sum(e * self.gens[k - 1] for k, e in word)

    def _generator_tables(self) -> list:
        """T[k][x] = x * g_k for k = 1 .. m (T[0] unused), deepest first."""
        p, m, digits, strides = self.p, self.m, self.digits, self.strides
        tables: list = [None] * (m + 1)
        idx = np.arange(self.n, dtype=np.int64)
        for k in range(m, 0, -1):
            tail = digits[:, k:] @ strides[k:]
            prefix = idx - tail
            step = self.word_index(self.pres.powers.get(k, [])) - (p - 1) * self.gens[k - 1]
            cur = np.where(digits[:, k - 1] < p - 1, prefix + self.gens[k - 1], prefix + step)
            for j in range(k + 1, m + 1):
                conj_word = [(j, 1)] + list(self.pres.comms.get((j, k), []))
                for r in range(1, p):
                    sel = digits[:, j - 1] >= r
                    part = cur[sel]
                    for letter, e in conj_word:
                        for _ in range(e):
                            part = tables[letter][part]
                    cur[sel] = part
            tables[k] = cur
        return tables

    def _levels(self):
        """Groups of elements y != 1 with the index of y' where y = y' g_k
        and k is the last nonzero coordinate of y; parents come first."""
        p, m, digits = self.p, self.m, self.digits
        last = m - 1 - np.argmax(digits[:, ::-1] != 0, axis=1)
        for k in range(m):
            for e in range(1, p):
                ys = np.nonzero((last == k) & (digits[:, k] == e))[0]
                yield k, ys, ys - self.gens[k]

    def _cayley(self, gen_tables) -> np.ndarray:
        n = self.n
        table = np.empty((n, n), dtype=np.int32)
        table[:, 0] = np.arange(n)
        for k, ys, parents in self._levels():
            table[:, ys] = gen_tables[k + 1][table[:, parents]]
        return table

    # -- arithmetic ------------------------------------------------------

    def mul(self, x, y):
        return self.table[x, y]

    def comm(self, x, y):
        t = self.table
        return t[t[t[self.inv[x], self.inv[y]], x], y]

    def power(self, x, e: int):
        out = np.zeros_like(np.asarray(x))
        for _ in range(e):
            out = self.table[out, x]
        return out

    def evaluate(self, word, images):
        """Product of images[k - 1]^e over the letters (k, e) of `word`;
        images may be index arrays, evaluated elementwise."""
        out = np.zeros_like(np.asarray(images[0]))
        for k, e in word:
            for _ in range(e):
                out = self.table[out, images[k - 1]]
        return out

    def vector(self, x: int) -> list:
        return [int(v) for v in self.digits[x]]

    def index(self, vec) -> int:
        return int(np.dot(vec, self.strides))

    # -- subgroups (boolean masks) ---------------------------------------

    def closure(self, seeds) -> np.ndarray:
        mask = np.zeros(self.n, dtype=bool)
        mask[0] = True
        mask[np.asarray(seeds, dtype=np.int64)] = True
        while True:
            s = np.nonzero(mask)[0]
            grown = mask.copy()
            grown[self.table[np.ix_(s, s)].ravel()] = True
            if (grown == mask).all():
                return mask
            mask = grown

    def commuting_with(self, elems) -> np.ndarray:
        """Elements commuting with every element of `elems`."""
        elems = np.asarray(elems, dtype=np.int64)
        t = self.table
        return (t[:, elems] == t[elems, :].T).all(axis=1)

    def center(self) -> np.ndarray:
        return self.commuting_with(self.gens)

    def upper_central_series(self) -> list:
        series = [np.arange(self.n) == 0]
        all_x = np.arange(self.n)
        while not series[-1].all():
            nxt = np.ones(self.n, dtype=bool)
            for g in self.gens:
                nxt &= series[-1][self.comm(all_x, g)]
            if nxt.sum() <= series[-1].sum():
                raise ValueError("upper central series stalled; group not nilpotent")
            series.append(nxt)
        return series

    def lower_central_series(self) -> list:
        series = [np.ones(self.n, dtype=bool)]
        all_x = np.arange(self.n)
        while series[-1].sum() > 1:
            cur = np.nonzero(series[-1])[0]
            comms = np.unique(self.comm(cur[:, None], all_x[None, :]))
            nxt = self.closure(comms)
            if nxt.sum() >= cur.size:
                raise ValueError("lower central series stalled; group not nilpotent")
            series.append(nxt)
        return series

    def derived(self) -> np.ndarray:
        """G' as the subgroup generated by the [x, g_k] for all x and every
        generator: it is normal, since [x, g]^y = [xy, g] [y, g]^-1, and
        every g_k is central modulo it."""
        all_x = np.arange(self.n)
        return self.closure(np.unique([self.comm(all_x, g) for g in self.gens]))

    def frattini(self) -> np.ndarray:
        powers = self.power(np.arange(self.n), self.p)
        return self.closure(np.concatenate([np.nonzero(self.derived())[0], powers]))

    # -- maps ------------------------------------------------------------

    def map_tables(self, images: np.ndarray) -> np.ndarray:
        """Row c: the map x -> prod images[k, c]^(x_k) on every element,
        for images of shape (m, candidates)."""
        images = np.asarray(images, dtype=np.int64)
        out = np.zeros((images.shape[1], self.n), dtype=np.int64)
        for k, ys, parents in self._levels():
            out[:, ys] = self.table[out[:, parents], images[k][:, None]]
        return out

    def failed_relations(self, images: np.ndarray) -> list:
        """Per candidate column of `images` (shape (m, candidates)), the
        first defining relation the images break, or None."""
        images = np.asarray(images, dtype=np.int64)
        failed = [None] * images.shape[1]
        checks = []
        for k in range(1, self.m + 1):
            lhs = self.power(images[k - 1], self.p)
            rhs = self.evaluate(self.pres.powers.get(k, []), images)
            checks.append((f"power relation of g{k}", lhs != rhs))
        for j in range(2, self.m + 1):
            for i in range(1, j):
                lhs = self.comm(images[j - 1], images[i - 1])
                rhs = self.evaluate(self.pres.comms.get((j, i), []), images)
                checks.append((f"commutator relation [g{j}, g{i}]", lhs != rhs))
        for name, bad in checks:
            for c in np.nonzero(bad)[0]:
                if failed[c] is None:
                    failed[c] = name
        return failed


def load(path) -> Group:
    with open(path) as fh:
        return Group(parse_pcp(fh.read()))


def check_automorphism(group: Group, image_vectors) -> list:
    """Reasons the generator images fail to give a noninner, noncentral
    automorphism of order p; an empty list accepts them.

    The relations are checked first; when one fails the images define
    no homomorphism and nothing else is checked.
    """
    if len(image_vectors) != group.m:
        return [f"expected {group.m} images, got {len(image_vectors)}"]
    if any(len(v) != group.m or not all(0 <= e < group.p for e in v) for v in image_vectors):
        return ["an image is not an exponent vector of the group"]
    images = np.array([group.index(v) for v in image_vectors], dtype=np.int64)
    broken = group.failed_relations(images[:, None])[0]
    if broken is not None:
        return [f"{broken} does not hold on the images"]
    failures = []
    phi = group.map_tables(images[:, None])[0]
    if np.unique(phi).size != group.n:
        failures.append("the images do not generate G")
    ident = np.arange(group.n)
    power = ident
    for _ in range(group.p):
        power = phi[power]
    if (phi == ident).all() or not (power == ident).all():
        failures.append(f"the map does not have order {group.p}")
    center = group.center()
    shifts = [group.mul(group.inv[g], im) for g, im in zip(group.gens, images)]
    if all(center[s] for s in shifts):
        failures.append("the map is central")
    # phi is conjugation by y exactly when g_k y = y phi(g_k) for every k
    conj = np.ones(group.n, dtype=bool)
    for g, im in zip(group.gens, images):
        conj &= group.table[g, :] == group.table[:, im]
    if conj.any():
        y = int(np.nonzero(conj)[0][0])
        failures.append(f"the map is inner: conjugation by {group.vector(y)}")
    return failures


def central_automorphism_count(group: Group) -> int:
    """Automorphisms g_k -> g_k z_k with every z_k central, counted by
    enumerating all |Z|^m choices of (z_1, ..., z_m)."""
    z = np.nonzero(group.center())[0]
    combos = np.array(list(itertools.product(z, repeat=group.m)), dtype=np.int64).T
    images = group.table[np.array(group.gens)[:, None], combos]
    ok = np.array([r is None for r in group.failed_relations(images)], dtype=bool)
    tables = np.sort(group.map_tables(images[:, ok]), axis=1)
    bijective = (np.diff(tables, axis=1) != 0).all(axis=1)
    return int(bijective.sum())


def diagnostics(group: Group) -> dict:
    """The three facts `noninner conditions` reports, recomputed."""
    derived = group.derived()
    center = group.center()
    phi = group.frattini()
    phi_elems = np.nonzero(phi)[0]
    z_phi = phi & group.commuting_with(phi_elems)
    cent = group.commuting_with(np.nonzero(z_phi)[0])
    return {
        "purely_nonabelian_sufficient": bool((derived | ~center).all()),
        "central_aut_count": central_automorphism_count(group),
        "ds_condition": bool((cent != phi).any()),
    }


def fingerprint(group: Group) -> dict:
    """Order histogram, series orders and class count, in the manifest's
    format."""
    orders = np.ones(group.n, dtype=np.int64)
    cur = np.arange(group.n)
    while (cur != 0).any():
        orders[cur != 0] *= group.p
        cur = group.power(cur, group.p)
    hist = Counter(int(o) for o in orders)
    t = group.table
    # Burnside: the class count is the number of commuting pairs over |G|
    classes = int((t == t.T).sum()) // group.n
    return {
        "order_histogram": {str(k): v for k, v in sorted(hist.items())},
        "upper_series_orders": [int(s.sum()) for s in group.upper_central_series()],
        "lower_series_orders": [int(s.sum()) for s in group.lower_central_series()],
        "conjugacy_classes": classes,
    }
