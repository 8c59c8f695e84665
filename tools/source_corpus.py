#!/usr/bin/env python3
"""Build the shipped .pcp corpus.

Sources of groups:
  * hand-written presentations for the small fixtures (Heisenberg for
    p in {3, 5}, the order-81 wreath product C3 wr C3, Heisenberg x C3,
    the dihedral group of order 8);
  * the Sylow 3-subgroup of SL(2, Z/27), given by explicit matrices and
    converted to a power-commutator presentation (the Z_2/Z-cyclic
    rejection-route example);
  * a parametrized family of order-3^7 presentations scanned for
    consistency (the eligible examples); see family_scan for the
    construction and the solved central tails;
  * the maximal-class group of order 3^6 (Eisenstein integers modulo
    L^5 extended by a cube root of unity) extended by a near-central
    element (the three-generator rejection-route example).

Each concrete group is converted to a weighted power-commutator
presentation by refining its upper central series to a chief chain
(every step is central and of index p, so the weighting rules hold by
construction), then reading off power and commutator words by peeling
along the chain.  The presented group surjects onto the source group
and consistency forces order p^m, so the two are isomorphic; the tool
still cross-checks the element-order histograms.

Run from the repository root:

    python3 tools/source_corpus.py --out corpus

Runtime is dominated by the family scan (roughly three minutes).  The
output directory receives one .pcp file per kept group plus
manifest.json recording ids, routes, sources and fingerprints.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from collections import Counter, deque
from pathlib import Path

import numpy as np

from noninner.eligibility import Route, decide_route
from noninner.pcgroup import PcGroup, PcPresentation
from noninner.pcpfile import parse_pcp, serialize_pcp
from noninner.structure import (
    lower_central_series,
    power_table,
    upper_central_series,
)

# ---------------------------------------------------------------------------
# concrete group models


class MatModel:
    """Square matrices over Z/q under multiplication."""

    def __init__(self, q: int, dim: int):
        self.q = q
        self.dim = dim

    def op(self, x, y):
        return (x @ y) % self.q

    def identity(self):
        return np.eye(self.dim, dtype=np.int64)

    def key(self, x) -> bytes:
        return x.tobytes()


class ConcreteGroup:
    def __init__(self, model, gens, cap: int = 3**8):
        self.model = model
        self.gens = list(gens)
        self.idkey = model.key(model.identity())
        elems = [model.identity()]
        pos = {self.idkey: 0}
        queue = deque(elems)
        self.too_big = False
        while queue:
            x = queue.popleft()
            for g in self.gens:
                y = model.op(x, g)
                k = model.key(y)
                if k not in pos:
                    if len(elems) >= cap:
                        self.too_big = True
                        queue.clear()
                        break
                    pos[k] = len(elems)
                    elems.append(y)
                    queue.append(y)
        self.elems = elems
        self.pos = pos
        self._inv: dict = {}
        self._comm_cache: dict = {}

    @property
    def order(self) -> int:
        return len(self.elems)

    def element_order(self, x) -> int:
        m = self.model
        y = x
        o = 1
        while m.key(y) != self.idkey:
            y = m.op(y, x)
            o += 1
        return o

    def inv(self, x):
        m = self.model
        k = m.key(x)
        got = self._inv.get(k)
        if got is None:
            y = x
            prev = m.identity()
            while m.key(y) != self.idkey:
                prev = y
                y = m.op(y, x)
            got = prev
            self._inv[k] = got
        return got

    def comm(self, x, y):
        m = self.model
        return m.op(m.op(m.op(self.inv(x), self.inv(y)), x), y)

    def conj(self, x, y):
        m = self.model
        return m.op(m.op(self.inv(y), x), y)

    def _gen_comm_keys(self):
        """comm_keys[i][j] = key of [elems[i], gens[j]] (cached)."""
        got = self._comm_cache.get("gen_comm")
        if got is None:
            got = [
                [self.model.key(self.comm(x, g)) for g in self.gens]
                for x in self.elems
            ]
            self._comm_cache["gen_comm"] = got
        return got

    def subgroup_closure(self, seeds):
        """Key-set and element list of the subgroup generated by seeds."""
        m = self.model
        seeds = [s for s in seeds if m.key(s) != self.idkey]
        elems = [m.identity()]
        keys = {self.idkey}
        queue = deque(elems)
        while queue:
            x = queue.popleft()
            for s in seeds:
                y = m.op(x, s)
                k = m.key(y)
                if k not in keys:
                    keys.add(k)
                    elems.append(y)
                    queue.append(y)
        return keys, elems

    def normal_closure(self, seeds):
        keys, elems = self.subgroup_closure(seeds)
        while True:
            extra = []
            for x in elems:
                for g in self.gens:
                    y = self.conj(x, g)
                    if self.model.key(y) not in keys:
                        extra.append(y)
            if not extra:
                return keys, elems
            keys, elems = self.subgroup_closure(elems + extra)

    def upper_series(self):
        """Key-sets 1 = Z_0 < Z_1 < ... < Z_c = G."""
        comm_keys = self._gen_comm_keys()
        levels = [{self.idkey}]
        cur = levels[0]
        while len(cur) < self.order:
            nxt = {
                self.model.key(x)
                for i, x in enumerate(self.elems)
                if all(ck in cur for ck in comm_keys[i])
            }
            if len(nxt) == len(cur):
                raise RuntimeError("upper central series stalled")
            levels.append(nxt)
            cur = nxt
        return levels

    def nilpotency_class(self) -> int:
        cur_elems = self.elems
        cls = 0
        while len(cur_elems) > 1:
            seeds = []
            seen = set()
            for x in cur_elems:
                for g in self.gens:
                    c = self.comm(x, g)
                    k = self.model.key(c)
                    if k != self.idkey and k not in seen:
                        seen.add(k)
                        seeds.append(c)
            keys, elems = self.normal_closure(seeds) if seeds else ({self.idkey}, [self.model.identity()])
            if len(elems) == len(cur_elems):
                raise RuntimeError("lower central series stalled")
            cur_elems = elems
            cls += 1
        return cls

    def order_histogram(self):
        return Counter(self.element_order(x) for x in self.elems)


# ---------------------------------------------------------------------------
# chain refinement and presentation extraction


def refine_chain(cg: ConcreteGroup, p: int):
    """Elements x_1, ..., x_m (bottom up) refining the upper central
    series into an index-p chain with every step central in G, plus the
    key-sets of the partial subgroups 1 = S_0 < S_1 < ... < S_m = G."""
    m_model = cg.model
    levels = cg.upper_series()
    bottom_up = []
    s_elems = [m_model.identity()]
    s_keys = {cg.idkey}
    s_levels = [set(s_keys)]
    for w in range(len(levels) - 1):
        target = levels[w + 1]
        target_elems = [x for x in cg.elems if m_model.key(x) in target]
        while len(s_keys) < len(target):
            chosen = None
            for x in target_elems:
                kx = m_model.key(x)
                if kx in s_keys:
                    continue
                xp = x
                for _ in range(p - 1):
                    xp = m_model.op(xp, x)
                if m_model.key(xp) in s_keys:
                    chosen = x
                    break
            if chosen is None:
                raise RuntimeError("no central refinement step found")
            bottom_up.append(chosen)
            new_elems = list(s_elems)
            xe = chosen
            for _ in range(p - 1):
                new_elems.extend(m_model.op(s, xe) for s in s_elems)
                xe = m_model.op(xe, chosen)
            s_elems = new_elems
            s_keys = {m_model.key(s) for s in s_elems}
            s_levels.append(set(s_keys))
    return bottom_up, s_levels


def extract_presentation(cg: ConcreteGroup, p: int) -> PcPresentation:
    """Weighted power-commutator presentation on the refined chain."""
    n = cg.order
    m = 0
    while p**m < n:
        m += 1
    if p**m != n:
        raise ValueError(f"group order {n} is not a power of {p}")
    bottom_up, s_levels = refine_chain(cg, p)
    assert len(bottom_up) == m
    gens = [bottom_up[m - k] for k in range(1, m + 1)]  # g_1 ... g_m

    # H_k = <g_k, ..., g_m> = S_{m-k+1}; H_{m+1} = 1.
    def h_keys(k: int):
        return s_levels[m - k + 1] if k <= m else s_levels[0]

    inv_pows = []  # inv_pows[t-1][e] = g_t^(-e)
    for g in gens:
        gi = cg.inv(g)
        row = [cg.model.identity()]
        for _ in range(p - 1):
            row.append(cg.model.op(row[-1], gi))
        inv_pows.append(row)

    def peel(mat, start: int):
        word = []
        cur = mat
        for t in range(start, m + 1):
            target = h_keys(t + 1)
            e_found = None
            for e in range(p):
                cand = cg.model.op(inv_pows[t - 1][e], cur)
                if cg.model.key(cand) in target:
                    e_found = e
                    cur = cand
                    break
            if e_found is None:
                raise RuntimeError(f"peeling failed at level {t}")
            if e_found:
                word.append((t, e_found))
        if cg.model.key(cur) != cg.idkey:
            raise RuntimeError("peeling did not terminate at the identity")
        return word

    powers = {}
    commutators = {}
    for k in range(1, m + 1):
        xp = gens[k - 1]
        for _ in range(p - 1):
            xp = cg.model.op(xp, gens[k - 1])
        word = peel(xp, k + 1)
        if word:
            powers[k] = word
    for j in range(2, m + 1):
        for i in range(1, j):
            c = cg.comm(gens[j - 1], gens[i - 1])
            word = peel(c, j + 1)
            if word:
                commutators[(j, i)] = word
    return PcPresentation(p, m, powers=powers, commutators=commutators)


def convert_and_check(cg: ConcreteGroup, p: int) -> PcGroup:
    """Extract the presentation, validate consistency, and cross-check
    the element-order histogram against the concrete group."""
    pres = extract_presentation(cg, p)
    group = PcGroup(pres, validate=True)
    if group.element_count != cg.order:
        raise RuntimeError("order mismatch after conversion")
    if order_histogram(group) != cg.order_histogram():
        raise RuntimeError("element-order histogram mismatch after conversion")
    return group


# ---------------------------------------------------------------------------
# fingerprints (isomorphism separation for the kept groups)


def order_histogram(group: PcGroup) -> Counter:
    """Element orders, by repeated p-th powers through the power table."""
    powers = power_table(group)
    orders = np.ones(group.element_count, dtype=np.int64)
    y = np.arange(group.element_count, dtype=np.int64)
    while y.any():
        orders[y != 0] *= group.p
        y = powers[y]
    return Counter(orders.tolist())


def fingerprint(group: PcGroup) -> dict:
    hist = order_histogram(group)
    ucs = [s.order for s in upper_central_series(group)]
    lcs = [s.order for s in lower_central_series(group)]
    # conjugacy class count: orbits under conjugation by generators
    n = group.element_count
    perms = [group.conj_perm(g) for g in group.gen_indices.tolist()]
    seen = np.zeros(n, dtype=bool)
    classes = 0
    for i in range(n):
        if seen[i]:
            continue
        classes += 1
        stack = [i]
        seen[i] = True
        while stack:
            j = stack.pop()
            for perm in perms:
                k = int(perm[j])
                if not seen[k]:
                    seen[k] = True
                    stack.append(k)
    return {
        "order_histogram": {str(k): v for k, v in sorted(hist.items())},
        "upper_series_orders": ucs,
        "lower_series_orders": lcs,
        "conjugacy_classes": classes,
    }


# ---------------------------------------------------------------------------
# candidate constructions


def mat(entries, q):
    return np.array(entries, dtype=np.int64) % q


def _overlap_diffs(group):
    """All overlap-test pairs (lhs, rhs) in a fixed order, no early exit.

    Same four families as PcGroup.consistency_witness: associativity
    g_k(g_j g_i) vs (g_k g_j)g_i, the two power overlaps, and the
    power-self tests.
    """
    m, p = group.ngens, group.p
    out = []
    for k in range(3, m + 1):
        for j in range(2, k):
            for i in range(1, j):
                u = group._mul_gen(group.generator(j), i, 1)
                lhs = group.mul(group.generator(k), u)
                v = group._mul_gen(group.generator(k), j, 1)
                rhs = group._mul_gen(v, i, 1)
                out.append((lhs, rhs))
    for j in range(2, m + 1):
        for i in range(1, j):
            pj = group._power_value(j)
            lhs = group._mul_gen(pj, i, 1)
            u = group._mul_gen(group.generator(j), i, 1)
            gj_pm1 = tuple(p - 1 if t == j else 0 for t in range(1, m + 1))
            rhs = group.mul(gj_pm1, u)
            out.append((lhs, rhs))
            pi = group._power_value(i)
            lhs2 = group.mul(group.generator(j), pi)
            rhs2 = group._mul_gen(u, i, p - 1)
            out.append((lhs2, rhs2))
    for i in range(1, m + 1):
        pi = group._power_value(i)
        lhs = group.mul(group.generator(i), pi)
        rhs = group._mul_gen(pi, i, 1)
        out.append((lhs, rhs))
    return out


# Relations of the order-3^7 family that carry a free central tail
# (a g7-component solved for by linear algebra): five powers and five
# commutators, in this order.
_TAIL_SLOTS = (
    ("pow", 2),
    ("pow", 3),
    ("pow", 4),
    ("pow", 5),
    ("pow", 6),
    ("comm", (3, 2)),
    ("comm", (4, 2)),
    ("comm", (5, 2)),
    ("comm", (5, 4)),
    ("comm", (6, 2)),
)


def _family_presentation(struct, tails, extra_comms=None):
    """Member of the order-3^7 candidate family.

    Chain: g3 = g1^3, g4 = [g2,g1], g5 = [g4,g1], g6 = [g5,g1],
    g7 = [g6,g1] (central).  The lower central series is
    G > <g4..g7> > <g5,g6,g7> > <g6,g7> > <g7> > 1 and G/gamma_2 is
    C9 x C3 (g1 has order 9 or 27); this is the only layer profile
    compatible with a noncyclic second-center quotient at this order.
    The target upper central series is <g7> < <g3,g6,g7> < ..., so the
    relations [g4,g3], [g5,g3], [g6,g3], [g6,g4], [g6,g5] are all
    trivial (forcing Z_2 inside the centre of the Frattini subgroup)
    and [g3,g2], [g6,g2], g3^3, g6^3 only carry central tails.

    struct: dict of non-central exponents
        p2_4, p2_5, p2_6 : g2^3 = g4^. g5^. g6^. (times tail)
        p4_5, p4_6       : g4^3 = g5^. g6^.
        p5_6             : g5^3 = g6^.
        c42_5, c42_6     : [g4,g2] = g5^. g6^.
        c52_6            : [g5,g2] = g6^.
        c54_6            : [g5,g4] = g6^.
    tails: sequence of ten g7-exponents, one per _TAIL_SLOTS entry.
    extra_comms: optional extra commutator words merged in on top (used
    to force, e.g., [g6,g4] != 1 when hunting rejection-route examples).
    """
    t = {slot: int(e) % 3 for slot, e in zip(_TAIL_SLOTS, tails)}

    def word(*pairs):
        return [(g, e % 3) for g, e in pairs if e % 3]

    powers = {
        1: [(3, 1)],
        2: word(
            (4, struct["p2_4"]),
            (5, struct["p2_5"]),
            (6, struct["p2_6"]),
            (7, t[("pow", 2)]),
        ),
        3: word((7, t[("pow", 3)])),
        4: word((5, struct["p4_5"]), (6, struct["p4_6"]), (7, t[("pow", 4)])),
        5: word((6, struct["p5_6"]), (7, t[("pow", 5)])),
        6: word((7, t[("pow", 6)])),
    }
    comms = {
        (2, 1): [(4, 1)],
        (3, 2): word((7, t[("comm", (3, 2))])),
        (4, 1): [(5, 1)],
        (4, 2): word(
            (5, struct["c42_5"]),
            (6, struct["c42_6"]),
            (7, t[("comm", (4, 2))]),
        ),
        (5, 1): [(6, 1)],
        (5, 2): word((6, struct["c52_6"]), (7, t[("comm", (5, 2))])),
        (5, 4): word((6, struct["c54_6"]), (7, t[("comm", (5, 4))])),
        (6, 1): [(7, 1)],
        (6, 2): word((7, t[("comm", (6, 2))])),
    }
    if extra_comms:
        for key, word in extra_comms.items():
            if isinstance(key, tuple):
                comms[key] = list(word)
            else:
                powers[key] = list(word)
    return PcPresentation(
        3,
        7,
        powers={i: w for i, w in powers.items() if w},
        commutators={k: w for k, w in comms.items() if w},
    )


_STRUCT_KEYS = (
    "p2_4",
    "p2_5",
    "p2_6",
    "p4_5",
    "p4_6",
    "p5_6",
    "c42_5",
    "c42_6",
    "c52_6",
    "c54_6",
)


class FamilyMember:
    """A consistent member of the order-3^7 family.

    Records the structural exponents, the solved central tails, and a
    basis of the tail-solution kernel (directions in which the tails
    may be shifted while preserving consistency).
    """

    def __init__(self, struct, tails, kernel, presentation):
        self.struct = dict(struct)
        self.tails = tuple(int(t) % 3 for t in tails)
        self.kernel = tuple(tuple(int(v) % 3 for v in vec) for vec in kernel)
        self.presentation = presentation

    def tail_variant(self, coeffs, extra_comms=None):
        """Presentation with tails shifted by sum(c * kernel vector).

        Stays inside the solution space of the consistency equations,
        so the result is consistent whenever the member is; the caller
        still re-validates.
        """
        if len(coeffs) != len(self.kernel):
            raise ValueError("one coefficient per kernel vector required")
        tails = list(self.tails)
        for c, vec in zip(coeffs, self.kernel):
            for k, v in enumerate(vec):
                tails[k] = (tails[k] + c * v) % 3
        return _family_presentation(self.struct, tails, extra_comms)


def family_scan(extra_comms=None, progress=None):
    """Yield every consistent member of the order-3^7 candidate family.

    For each assignment of the ten non-central structural exponents,
    the ten free central (g7) tails enter every overlap test linearly:
    multiplying a relation by the central g7^d shifts each collected
    side by exactly d in the g7 coordinate and nowhere else.  So a
    structural assignment extends to a consistent presentation exactly
    when (a) the tail-free member has overlap discrepancies confined
    to the g7 coordinate and (b) the resulting linear system over F_3
    is solvable.  Solving it (one probe per tail slot plus one base
    run) replaces a 3^10-fold enumeration of the tails.
    """
    from noninner import fp

    n_slots = len(_TAIL_SLOTS)
    zero = [0] * n_slots
    total = 3 ** len(_STRUCT_KEYS)
    combos = itertools.product(range(3), repeat=len(_STRUCT_KEYS))
    for count, combo in enumerate(combos):
        if progress and count % 4096 == 0:
            progress(count, total)
        struct = dict(zip(_STRUCT_KEYS, combo))
        base = PcGroup(
            _family_presentation(struct, zero, extra_comms), validate=False
        )
        pairs = _overlap_diffs(base)
        ok = True
        base_diff = []
        for lhs, rhs in pairs:
            if lhs[:6] != rhs[:6]:
                ok = False
                break
            base_diff.append((lhs[6] - rhs[6]) % 3)
        if not ok:
            continue
        cols = []
        for slot in range(n_slots):
            probe_tails = list(zero)
            probe_tails[slot] = 1
            probe = PcGroup(
                _family_presentation(struct, probe_tails, extra_comms),
                validate=False,
            )
            col = []
            for (lhs, rhs), b in zip(_overlap_diffs(probe), base_diff):
                col.append((lhs[6] - rhs[6] - b) % 3)
            cols.append(col)
        matrix = [
            [cols[s][row] for s in range(n_slots)]
            for row in range(len(base_diff))
        ]
        rhs_vec = [(-b) % 3 for b in base_diff]
        sol = fp.solve(matrix, rhs_vec, 3)
        if sol is None:
            continue
        ech, pivots = fp.row_echelon(matrix, 3)
        kernel = []
        for free_col in (c for c in range(n_slots) if c not in pivots):
            vec = [0] * n_slots
            vec[free_col] = 1
            for r, c in enumerate(pivots):
                vec[c] = int(-ech[r, free_col]) % 3
            kernel.append(vec)
        tails = [int(v) for v in sol]
        pres = _family_presentation(struct, tails, extra_comms)
        group = PcGroup(pres, validate=False)
        if group.consistency_witness() is not None:
            continue
        yield FamilyMember(struct, tails, kernel, pres)


def maximal_class_3_6():
    """The maximal-class group (Z[w]/L^5) x| C3 of order 3^6.

    Classical 3-adic construction: w a primitive cube root of unity,
    R = Z[w] the Eisenstein integers, L = 1 - w the ramified prime over
    3.  Multiplication by w fixes each quotient L^k R / L^(k+1) R (each
    of order 3), so the split extension M = (R / L^5 R) x| <w> has
    lower central series M > LR > L^2 R > ... > L^4 R > 1: order 3^6,
    class 5, maximal class.  Z(M) = L^4 R / L^5 R is spanned by the
    last pc generator, as near_central_extension expects.

    Pc chain: g1 = the action of w, g_{k+2} = translation by L^k for
    k = 0..4.  The relation words are L-adic digit expansions, using
    w = 1 - L:  [t_u, g1] = t_{(w^2 - 1) u} with w^2 - 1 = L w^2 and
    L^k w^2 = L^k + L^(k+1) + ... (all digits 1), while t_u^3 = t_{3u}
    with 3 = 2 L^2 + 2 L^3 + O(L^5).
    """
    pres = PcPresentation(
        3,
        6,
        powers={
            2: [(4, 2), (5, 2)],
            3: [(5, 2), (6, 2)],
            4: [(6, 2)],
        },
        commutators={
            (2, 1): [(3, 1), (4, 1), (5, 1), (6, 1)],
            (3, 1): [(4, 1), (5, 1), (6, 1)],
            (4, 1): [(5, 1), (6, 1)],
            (5, 1): [(6, 1)],
        },
    )
    group = PcGroup(pres)  # raises if the digit arithmetic were wrong
    lcs = lower_central_series(group)
    if group.element_count != 3**6 or len(lcs) - 1 != 5:
        raise RuntimeError("maximal-class construction failed")
    return pres, (
        "maximal-class group of order 3^6: Eisenstein integers Z[w] "
        "modulo L^5 (L = 1 - w the prime over 3) extended by "
        "multiplication by w; pc chain g1 = action of w, g_{k+2} = "
        "translation by L^k, relation words the L-adic digit expansions"
    )


def near_central_extension(pres: PcPresentation, twist: int = 1) -> PcPresentation:
    """Extend a 2-generated group M by a near-central element c.

    c becomes the third pc generator, has order p, commutes with every
    generator except g_twist (twist is 1 or 2), and [c, g_twist] is the
    last pc generator of M (which spans Z(M) when the chain refines the
    upper central series).  The result is the semidirect product of M
    by the central automorphism g_twist -> g_twist z (other generator
    fixed), realized on the chain g1, g2, c, (old g3), ..., (old g_m).

    On a maximal-class M of order 3^6 this produces an order-3^7 group
    of class 5 and coclass 2 with Z_2/Z noncyclic but d(G) = 3: an
    example of the Z2_NOT_IN_ZPHI_OR_D_NOT_2 rejection route.  The
    centre stays of order 3 only when the untwisted top generator
    moves Z_2(M), so the right twist depends on M; the caller tries
    both and keeps the one the route decision accepts.
    """
    m = pres.ngens

    def shift_word(word):
        return [(g + 1 if g >= 3 else g, e) for g, e in word]

    powers = {}
    for i, word in pres.powers.items():
        powers[i + 1 if i >= 3 else i] = shift_word(word)
    comms = {}
    for (j, i), word in pres.commutators.items():
        j2 = j + 1 if j >= 3 else j
        i2 = i + 1 if i >= 3 else i
        comms[(j2, i2)] = shift_word(word)
    comms[(3, twist)] = [(m + 1, 1)]
    return PcPresentation(pres.p, m + 1, powers=powers, commutators=comms)


# ---------------------------------------------------------------------------
# hand-written fixtures


HAND_WRITTEN = [
    (
        "heisenberg_3",
        PcPresentation(3, 3, commutators={(2, 1): [(3, 1)]}),
        "Heisenberg group of order 27: unitriangular 3x3 matrices over F_3",
    ),
    (
        "heisenberg_5",
        PcPresentation(5, 3, commutators={(2, 1): [(3, 1)]}),
        "Heisenberg group of order 125: unitriangular 3x3 matrices over F_5",
    ),
    (
        "wreath_81",
        PcPresentation(3, 4, commutators={(2, 1): [(3, 1)], (3, 1): [(4, 1)]}),
        "C3 wr C3, the maximal-class group of order 81 (Sylow 3-subgroup of S_9)",
    ),
    (
        "heis_x_c3",
        PcPresentation(3, 4, commutators={(2, 1): [(3, 1)]}),
        "direct product of the Heisenberg group of order 27 with C3",
    ),
    (
        "dihedral_8",
        PcPresentation(2, 3, powers={2: [(3, 1)]}, commutators={(2, 1): [(3, 1)]}),
        "dihedral group of order 8",
    ),
]


# ---------------------------------------------------------------------------
# main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="corpus", help="output directory")
    ap.add_argument(
        "--eligible-target", type=int, default=4,
        help="how many eligible order-3^7 groups to keep",
    )
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    kept: list[dict] = []  # manifest entries (with presentation attached)
    notes: list[str] = []

    def keep(group_id, pres, route, source, fp=None):
        kept.append(
            {
                "id": group_id,
                "pres": pres,
                "route": route.value,
                "source": source,
                "fingerprint": fp,
            }
        )

    for group_id, pres, source in HAND_WRITTEN:
        group = PcGroup(pres)
        route = decide_route(group).route
        print(f"[hand] {group_id}: order {group.element_count}, route {route.value}")
        keep(group_id, pres, route, source)

    # -- cyclic-route example: the Sylow 3-subgroup of SL(2, Z/27) --------
    print("[matrix] converting the Sylow 3-subgroup of SL(2, Z/27)...")
    m272 = MatModel(27, 2)
    sl2_gens = [mat([[1, 1], [0, 1]], 27), mat([[1, 0], [3, 1]], 27)]
    cg = ConcreteGroup(m272, sl2_gens, cap=3 ** 8)
    group = convert_and_check(cg, 3)
    route = decide_route(group).route
    print(f"  order {group.element_count}, route {route.value}")
    if route is not Route.Z2_OVER_Z_CYCLIC:
        raise RuntimeError("expected the cyclic route for the SL(2, Z/27) Sylow")
    keep(
        "g2187_zcyc",
        group.pres,
        route,
        "Sylow 3-subgroup of SL(2, Z/27): upper and lower unitriangular "
        "generators [[1,1],[0,1]] and [[1,0],[3,1]]",
        fingerprint(group),
    )

    # -- eligible examples from the presentation family -------------------
    print("[family] scanning the order-3^7 presentation family "
          "(about three minutes)...")

    def progress(done, total):
        if done % 16384 == 0:
            print(f"  {done}/{total} structural assignments", flush=True)

    members = list(family_scan(progress=progress))
    print(f"  {len(members)} consistent members")

    eligible: list[dict] = []
    eligible_fps: list[dict] = []

    def consider(pres, source):
        group = PcGroup(pres)  # validated
        route = decide_route(group).route
        if route is not Route.ELIGIBLE:
            print(f"    route {route.value}; skipping")
            return
        fp_ = fingerprint(group)
        if fp_ in eligible_fps:
            print("    duplicate fingerprint; skipping")
            return
        eligible_fps.append(fp_)
        entry_id = f"g2187_{chr(ord('a') + len(eligible))}"
        eligible.append({"id": entry_id})
        keep(entry_id, pres, Route.ELIGIBLE, source, fp_)
        print(f"    kept as {entry_id}")

    def describe_member(member, coeffs=None):
        parts = [f"{k}={v}" for k, v in member.struct.items() if v]
        tail = (
            " with kernel shift " + "+".join(map(str, coeffs))
            if coeffs and any(coeffs)
            else ""
        )
        return (
            "order-3^7 presentation family (chain g3=g1^3, g4=[g2,g1], "
            "g5=[g4,g1], g6=[g5,g1], g7=[g6,g1]); structural exponents "
            + (", ".join(parts) if parts else "all zero")
            + "; central tails solved from the consistency equations"
            + tail
        )

    for member in members:
        if len(eligible) >= args.eligible_target:
            break
        nonzero = {k: v for k, v in member.struct.items() if v}
        print(f"  [family member] struct {nonzero}")
        consider(member.presentation, describe_member(member))
        if len(eligible) >= args.eligible_target:
            break
        # kernel shift in the g1^9 direction: same structural exponents
        # but g3^3 = g7, so g1 has order 27 and Z_2 becomes C9 x C3
        for slot_index, slot in enumerate(_TAIL_SLOTS):
            if slot != ("pow", 3):
                continue
            for vec_index, vec in enumerate(member.kernel):
                if vec[slot_index] % 3 == 0:
                    continue
                coeffs = [0] * len(member.kernel)
                coeffs[vec_index] = 1
                pres = member.tail_variant(coeffs)
                if PcGroup(pres, validate=False).consistency_witness():
                    continue
                print("  [family member, g1^9 = g7 variant]")
                consider(pres, describe_member(member, coeffs))
                break

    # -- rejection-route example: three generators ------------------------
    # Extend the maximal-class group of order 3^6 by a near-central
    # element.  One twist direction keeps the centre small and bumps the
    # generator rank to 3, landing on the remaining rejection route; the
    # other enlarges the centre and lands on the Z_2/Z-cyclic route, so
    # try both and keep the right one.
    print("[extension] maximal-class 3^6 extended by a near-central element")
    m_pres, m_source = maximal_class_3_6()
    zphi_found = False
    for twist in (2, 1):
        pres7 = near_central_extension(m_pres, twist)
        group = PcGroup(pres7)
        route = decide_route(group).route
        print(f"  twist {twist}: route {route.value}")
        if route is Route.Z2_NOT_IN_ZPHI_OR_D_NOT_2:
            keep(
                "g2187_zphi",
                pres7,
                route,
                f"near-central extension (twist {twist}) of the {m_source}",
                fingerprint(group),
            )
            zphi_found = True
            break
    if not zphi_found:
        notes.append(
            "no coclass-2 order-3^7 group on the Z2_NOT_IN_ZPHI_OR_D_NOT_2 "
            "route was found"
        )

    if len(eligible) < 3:
        notes.append(
            f"family scan yielded only {len(eligible)} eligible groups "
            "of order 3^7"
        )

    manifest: dict = {
        "format": 1,
        "generated_by": "tools/source_corpus.py",
        "groups": {},
        "notes": notes,
    }
    for entry in kept:
        text = serialize_pcp(entry["pres"], entry["id"])
        # round-trip check before shipping
        doc = parse_pcp(text)
        assert doc.presentation == entry["pres"] and doc.group_id == entry["id"]
        (out / f"{entry['id']}.pcp").write_text(text)
        manifest["groups"][entry["id"]] = {
            "file": f"{entry['id']}.pcp",
            "p": entry["pres"].p,
            "ngens": entry["pres"].ngens,
            "order": entry["pres"].p ** entry["pres"].ngens,
            "route": entry["route"],
            "source": entry["source"],
            **({"fingerprint": entry["fingerprint"]} if entry["fingerprint"] else {}),
        }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {len(kept)} groups to {out}/ (notes: {notes or 'none'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
