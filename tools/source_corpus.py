#!/usr/bin/env python3
"""Build the shipped .pcp corpus.

Sources of groups:
  * hand-written presentations for the small fixtures (Heisenberg for
    p in {3, 5}, the order-81 wreath product C3 wr C3, Heisenberg x C3,
    the dihedral group of order 8);
  * the Sylow 3-subgroup of SL(2, Z/27), given by explicit matrices and
    converted to a power-commutator presentation (the Z_2/Z-cyclic
    rejection-route example);
  * one central step over three coclass-2 parents of order 3^6 (the
    eligible examples): `central_step` solves the consistency equations
    of the central tails, and each group is its parent extended by a
    fixed combination of the kernel vectors;
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

It takes about a second.  The output directory receives one .pcp file
per kept group plus manifest.json recording ids, routes, sources and
fingerprints.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter, deque
from pathlib import Path

import numpy as np

from noninner.eligibility import Route, decide_route
from noninner.pcgroup import PcGroup, PcPresentation
from noninner.pcpfile import parse_pcp, serialize_pcp
from noninner.structure import (
    _conj_gen_perms,
    lower_central_series,
    power_table,
    upper_central_series,
)

# the reduced row-echelon form over F_p lives with the tests' oracles, as
# the program itself asks only for ranks
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from util_oracles import row_echelon  # noqa: E402

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
        while queue:
            x = queue.popleft()
            for g in self.gens:
                y = model.op(x, g)
                k = model.key(y)
                if k not in pos:
                    if len(elems) >= cap:
                        raise RuntimeError(f"the group has more than {cap} elements")
                    pos[k] = len(elems)
                    elems.append(y)
                    queue.append(y)
        self.elems = elems
        self._inv: dict = {}

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

    def upper_series(self):
        """Key-sets 1 = Z_0 < Z_1 < ... < Z_c = G."""
        comm_keys = [[self.model.key(self.comm(x, g)) for g in self.gens] for x in self.elems]
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
    perms = _conj_gen_perms(group)
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
# constructions


def mat(entries, q):
    return np.array(entries, dtype=np.int64) % q


def tail_slots(m: int) -> list:
    """The relations of an m-generator presentation that `central_step`
    gives a tail: ("pow", i) for i = 1..m, then ("comm", (j, i)) for
    j = 2..m and i < j."""
    return [("pow", i) for i in range(1, m + 1)] + [
        ("comm", (j, i)) for j in range(2, m + 1) for i in range(1, j)
    ]


def with_tails(pres: PcPresentation, tails) -> PcPresentation:
    """pres with a new last generator g_(m+1) of order p and central,
    each relation of `tail_slots(m)` times g_(m+1)^t for its tail t."""
    p, m = pres.p, pres.ngens
    relations = {"pow": dict(pres.powers), "comm": dict(pres.commutators)}
    for (kind, key), t in zip(tail_slots(m), tails):
        if int(t) % p:
            words = relations[kind]
            words[key] = [*words.get(key, ()), (m + 1, int(t) % p)]
    return PcPresentation(p, m + 1, powers=relations["pow"], commutators=relations["comm"])


def central_step(pres: PcPresentation):
    """The consistent central extensions of pres by one generator of
    order p: (slots, kernel), where `with_tails(pres, t)` is consistent
    exactly when t is an F_p combination of the kernel basis.

    This is the tails-and-consistency step of the p-quotient algorithm
    (Holt, Eick and O'Brien, Handbook of Computational Group Theory,
    2005, ch. 9).  g_(m+1) is central of order p, so collection modulo
    it is collection in pres, and each overlap test of the extension
    differs from pres's only in its last digit, which is linear in the
    tails over F_p.  Zero tails give pres x C_p, which is consistent, so
    there is no constant term, and one run per slot gives the matrix.
    Raises ValueError when pres itself is inconsistent.
    """
    p = pres.p
    slots = tail_slots(pres.ngens)
    columns = []
    for tails in np.eye(len(slots), dtype=np.int64):
        column = []
        for kind, gens, lhs, rhs in PcGroup(with_tails(pres, tails), validate=False).overlaps():
            if lhs // p != rhs // p:
                raise ValueError(f"the parent fails the overlap test {kind} on {gens}")
            column.append((lhs - rhs) % p)
        columns.append(column)
    ech, pivots = row_echelon(np.array(columns).T, p)
    kernel = []
    for free in (c for c in range(len(slots)) if c not in pivots):
        vec = np.zeros(len(slots), dtype=np.int64)
        vec[free] = 1
        vec[pivots] = -ech[: len(pivots), free] % p
        kernel.append(vec)
    return slots, kernel


def kernel_member(pres: PcPresentation, coeffs) -> PcPresentation:
    """The central extension of pres whose tails are sum(c * v) over
    `central_step`'s kernel basis."""
    slots, kernel = central_step(pres)
    if len(coeffs) != len(kernel):
        raise ValueError(f"{len(kernel)} kernel coefficients required, got {len(coeffs)}")
    zero = np.zeros(len(slots), dtype=np.int64)
    return with_tails(pres, sum((c * v for c, v in zip(coeffs, kernel)), zero))


def relations_text(pres: PcPresentation) -> str:
    """pres as <g1..gm | relations>, trivial relations left out."""

    def word(w):
        return " ".join(f"g{k}" if e == 1 else f"g{k}^{e}" for k, e in w)

    rels = [f"g{i}^{pres.p} = {word(w)}" for i, w in sorted(pres.powers.items())]
    rels += [f"[g{j},g{i}] = {word(w)}" for (j, i), w in sorted(pres.commutators.items())]
    return f"<g1..g{pres.ngens} | {', '.join(rels)}>"


def _parent_3_6(powers, commutators) -> PcPresentation:
    """A coclass-2 parent of order 3^6 on the chain g3 = g1^3,
    g4 = [g2,g1], g5 = [g4,g1], g6 = [g5,g1]."""
    return PcPresentation(
        3,
        6,
        powers={1: [(3, 1)], **powers},
        commutators={(2, 1): [(4, 1)], (4, 1): [(5, 1)], (5, 1): [(6, 1)], **commutators},
    )


# The ELIGIBLE examples: id, parent of order 3^6 and kernel coefficients of
# its central step.  Each parent is the group's quotient by g7, and
# g2187_a and g2187_b share theirs.
_PARENT_AB = _parent_3_6({4: [(6, 2)]}, {(4, 2): [(5, 1), (6, 1)], (5, 2): [(6, 1)]})
ELIGIBLE_STEPS = [
    ("g2187_a", _PARENT_AB, (0, 0, 0, 0, 0, 0, 1, 1)),
    ("g2187_b", _PARENT_AB, (0, 0, 1, 0, 0, 0, 1, 1)),
    (
        "g2187_c",
        _parent_3_6({4: [(6, 2)]}, {(4, 2): [(5, 2)], (5, 2): [(6, 2)]}),
        (0, 0, 1, 0, 0, 0, 0, 2),
    ),
    ("g2187_d", _parent_3_6({2: [(5, 2)], 4: [(6, 2)]}, {}), (0, 0, 0, 0, 0, 0, 0, 1)),
]


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
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    kept: list[dict] = []  # manifest entries (with presentation attached)
    notes: list[str] = []

    def keep(group_id, pres, route, source, fprint=None):
        kept.append(
            {
                "id": group_id,
                "pres": pres,
                "route": route.value,
                "source": source,
                "fingerprint": fprint,
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

    # -- eligible examples: one central step over order-3^6 parents -------
    eligible_fps: list[dict] = []
    for group_id, parent, coeffs in ELIGIBLE_STEPS:
        pres = kernel_member(parent, coeffs)
        group = PcGroup(pres)  # validated
        route = decide_route(group).route
        print(f"[central step] {group_id}: route {route.value}")
        if route is not Route.ELIGIBLE:
            raise RuntimeError(f"{group_id} routes {route.value}, expected ELIGIBLE")
        fprint = fingerprint(group)
        if fprint in eligible_fps:
            raise RuntimeError(f"{group_id} repeats the fingerprint of an earlier group")
        eligible_fps.append(fprint)
        keep(
            group_id,
            pres,
            route,
            f"central step over the order-3^6 parent {relations_text(parent)}: "
            "the tails of g7 on its 21 relations combine the 8 kernel vectors "
            f"with coefficients {list(coeffs)}",
            fprint,
        )

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
