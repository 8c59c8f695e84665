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

from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .eligibility import SelectionContext
from .errors import CertificationError
from .maps import GroupMap
from .pcgroup import PcGroup
from .structure import (
    Subgroup,
    _conj_gen_perms,
    coset_min_table,
    intersection,
    is_normal,
)


class CosetTable:
    """Canonical representatives for the cosets of a normal subgroup:
    each element maps to the index-least member of its coset, and
    `rep_pos` gives each representative's position in `rep_indices`."""

    __slots__ = ("min_table", "rep_indices", "rep_pos", "_frame")

    def __init__(self, group: PcGroup, sub: Subgroup):
        if not is_normal(group, sub):
            raise ValueError("coset tables require a normal subgroup")
        self.min_table = coset_min_table(group, sub)
        idx = np.arange(group.element_count, dtype=np.int64)
        self.rep_indices = np.nonzero(self.min_table == idx)[0]
        pos = np.full(group.element_count, -1, dtype=np.int64)
        pos[self.rep_indices] = np.arange(len(self.rep_indices))
        self.rep_pos = pos
        self._frame: Optional[_CocycleFrame] = None

    @property
    def count(self) -> int:
        return len(self.rep_indices)


class Derivation:
    """A map on N-cosets with values in Z(N): `values[t]` is the index
    of the value at the coset of `coset_table.rep_indices[t]`."""

    __slots__ = ("group", "n_sub", "coset_table", "values", "zn", "_verified")

    def __init__(
        self,
        group: PcGroup,
        n_sub: Subgroup,
        coset_table: CosetTable,
        values: Sequence[int] | np.ndarray,
        zn: Subgroup,
    ):
        self.group = group
        self.n_sub = n_sub
        self.coset_table = coset_table
        self.zn = zn
        values = np.array(values, dtype=np.int64)
        if values.shape != (coset_table.count,):
            raise ValueError("values must be given at exactly the canonical reps")
        if not zn.mask[values].all():
            raise ValueError("derivation value outside Z(N)")
        self.values = values
        self._verified: Optional[bool] = None

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
        self.group = ctx.group
        inv = ctx.group.inv_table()
        self.stages = (
            (int(inv[ctx.b]), ctx.centralizer_n.mask, "b"),
            (int(inv[ctx.a]), ctx.phi.mask, "a"),
            (int(inv[ctx.comm_a_b]), ctx.z_deep.mask, "[a, b]"),
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
                    raise CertificationError(
                        f"factorization failed: no power of {what} reaches the target"
                    )
                x[outside] = G.mul_indices(x[outside], inv)
                e[outside] += 1
            out.append(e)
        return out


def coset_exponents(ctx: SelectionContext, g: int) -> Tuple[int, int, int]:
    """(i, j, t) with g = x * [a,b]^t * a^j * b^i, x in Z_{m-4},
    exponents in [0, p), for the element with index g."""
    i, j, t = _Decomposer(ctx).exponents([g])
    return int(i[0]), int(j[0]), int(t[0])


def _powers(group: PcGroup, x: int) -> np.ndarray:
    """Indices of x^0, ..., x^(p-1)."""
    out = [0]
    for _ in range(group.p - 1):
        out.append(int(group.mul_indices(out[-1], x)))
    return np.array(out, dtype=np.int64)


class _Setup(NamedTuple):
    """What both derivations of one selection share: N's coset table,
    Z(N) = C_G(N) meet N, the exponents (i, j, t) of the coset
    representatives, and the indices of the powers of w and [w,b]."""

    coset_table: CosetTable
    zn: Subgroup
    exponents: Tuple[np.ndarray, np.ndarray, np.ndarray]
    w_pow: np.ndarray
    c_pow: np.ndarray


def _setup(ctx: SelectionContext) -> _Setup:
    """The shared set-up of `ctx`, built on first use."""
    setup = getattr(ctx, "_setup", None)
    if setup is None:
        G = ctx.group
        ct = CosetTable(G, ctx.n_sub)
        setup = ctx._setup = _Setup(
            ct,
            intersection(ctx.centralizer_n, ctx.n_sub),
            tuple(_Decomposer(ctx).exponents(ct.rep_indices)),
            _powers(G, ctx.w),
            _powers(G, ctx.comm_w_b),
        )
    return setup


def _build(ctx: SelectionContext, exponents) -> Derivation:
    """The derivation with value w^e * [w,b]^f at each coset
    representative, where (e, f) = exponents(i, j, t) on the arrays of
    the representatives' exponents.  w and [w,b] have order p (checked
    by select_generators), so e and f are read modulo p."""
    G = ctx.group
    s = _setup(ctx)
    e, f = exponents(*s.exponents)
    values = G.mul_indices(s.w_pow[e % G.p], s.c_pow[f % G.p])
    return Derivation(G, ctx.n_sub, s.coset_table, values, s.zn)


def derivation_from_b_exponent(ctx: SelectionContext) -> Derivation:
    """Value w^i * [w,b]^(i(i-1)/2); i(i-1) is even, so the exponent is
    an exact integer before any reduction."""
    return _build(ctx, lambda i, j, t: (i, i * (i - 1) // 2))


def derivation_from_a_exponent(ctx: SelectionContext) -> Derivation:
    """Value w^j * [w,b]^(ij + t)."""
    return _build(ctx, lambda i, j, t: (j, i * j + t))


class _CocycleFrame:
    """The part of the cocycle check that does not depend on the values,
    built once per coset table and Z(N): the rows of the check and, per
    row g2, where each coset goes under g2 and how g2 acts on Z(N).

    The rows are g2 = 1 and g2 = g_k for every k that is not a pivot of
    N, in ascending index order (1, g_m, g_(m-1), ...).  They decide all
    R^2 pairs, R = |G/N|:

    - If the identity holds at (g1, x) and at (g1, g_k) for every g1,
      it holds at (g1, x g_k) for every g1:
      d(g1 x g_k) = (d(g1)^x d(x))^(g_k) d(g_k) = d(g1)^(x g_k) d(x g_k).
    - The representatives are exactly the elements whose digits at N's
      pivots vanish (the least element of a coset clears each pivot
      digit in turn; checked here).  So a representative g2 != 1 whose
      last nonzero digit is at k is parent * g_k, where parent =
      g2 - stride_k and g_k = stride_k are representatives below g2.
    - Hence the least g2 at which the identity fails for some g1 is a
      row: were it not, both its factors would pass every g1, and so
      would it.  The identity row fails exactly when d(1) != 1.

    `rows` holds the rows' positions among the representatives,
    `quot[r, t]` the position of the coset of reps[t] * g2 for row r,
    and `conj[r, c]` the position in Z(N) of g2^-1 * z_c * g2, from the
    conjugation permutations of the generators.
    """

    __slots__ = ("zn", "rows", "quot", "conj")

    def __init__(self, group: PcGroup, n_sub: Subgroup, ct: CosetTable, zn: Subgroup):
        G = group
        p = G.p
        reps = ct.rep_indices
        if ct.count != p ** (G.ngens - n_sub.log_order) or any(
            (reps // G._stride(k) % p).any() for k in n_sub.pivots
        ):
            raise CertificationError(
                "coset representatives are not the elements with zero digits at N's pivots"
            )
        pivots = set(n_sub.pivots)
        gens = [k for k in range(G.ngens, 0, -1) if k not in pivots]
        cperms = _conj_gen_perms(G)
        zn_idx = zn.indices
        conj = np.array([zn_idx] + [cperms[k - 1][zn_idx] for k in gens])
        if not zn.mask[conj].all():
            raise CertificationError("Z(N) is not normal: a conjugate leaves it")
        self.zn = zn
        self.rows = ct.rep_pos[[0] + [G._stride(k) for k in gens]]
        self.quot = np.array(
            [np.arange(ct.count)]
            + [ct.rep_pos[ct.min_table[G._rtable(k)[reps]]] for k in gens]
        )
        self.conj = np.searchsorted(zn_idx, conj)


def verify_cocycle(d: Derivation):
    """None if the cocycle identity holds for every pair of cosets, else
    a counterexample (g1, g2, lhs, rhs) of element indices, with the
    least g2 and, for it, the least g1 (both coset representatives)."""
    return verify_cocycles([d])[0]


def verify_cocycles(derivations: Sequence[Derivation]) -> List[Optional[tuple]]:
    """`verify_cocycle` of each derivation, checked on the rows of
    `_CocycleFrame`; all of them must share one coset table and one Z(N).

    Values are coded by their position in Z(N), and one product of
    arrays gives the |Z(N)|^2 products of Z(N).  Each derivation then
    compares the two sides of the identity on a (rows x R) array, R =
    |G/N|.  The rows ascend, so the first failure in row-major order
    has the least failing row g2 and, for it, the least g1; by the
    frame's lemma that g2 is the least failing one over all R^2 pairs,
    which is the counterexample a sweep over every pair would report.
    """
    d0 = derivations[0]
    G, ct, zn = d0.group, d0.coset_table, d0.zn
    if any(d.coset_table is not ct or d.zn != zn for d in derivations):
        raise ValueError("derivations checked together must share one coset table and Z(N)")
    frame = ct._frame
    if frame is None or frame.zn != zn:
        frame = ct._frame = _CocycleFrame(G, d0.n_sub, ct, zn)
    zn_idx = zn.indices
    nz = len(zn_idx)
    # prod[c, u] codes z_c * z_u
    prod = np.searchsorted(
        zn_idx, G.mul_indices(np.repeat(zn_idx, nz), np.tile(zn_idx, nz))
    ).reshape(nz, nz)
    reps = ct.rep_indices
    out = []
    for d in derivations:
        val = np.searchsorted(zn_idx, d.values)
        lhs = val.take(frame.quot)  # d(g1 g2)
        rhs = prod[frame.conj[:, val], val[frame.rows, np.newaxis]]  # d(g1)^g2 d(g2)
        bad = np.flatnonzero(lhs != rhs)
        d._verified = not bad.size
        if bad.size:
            r, t = divmod(int(bad[0]), ct.count)
            g1, g2 = reps[t], reps[frame.rows[r]]
            out.append(tuple(int(x) for x in (g1, g2, zn_idx[lhs[r, t]], zn_idx[rhs[r, t]])))
        else:
            out.append(None)
    return out


def lift_to_automorphism(d: Derivation) -> GroupMap:
    """The map g -> g * d(Ng) as a GroupMap, verified to be a
    well-formed lift: it must agree with that formula on every element,
    fix N elementwise, and act trivially on G/N."""
    if d._verified is None:
        verify_cocycle(d)
    if not d._verified:
        raise ValueError("derivation failed cocycle verification; not lifting")
    G = d.group
    ct = d.coset_table
    mt = ct.min_table
    value = d.values[ct.rep_pos[mt]]  # index of d(Ng) at every index g
    gens = G.gen_indices
    f = GroupMap(G, G.mul_indices(gens, value[gens]))
    table = f.apply_table()
    idx = np.arange(G.element_count, dtype=np.int64)
    if not (table == G.mul_indices(idx, value)).all():
        raise CertificationError("lift does not equal g * d(Ng) on some element")
    n_idx = d.n_sub.indices
    if not (table[n_idx] == n_idx).all():
        raise CertificationError("lift does not fix N elementwise")
    if not (mt[table] == mt).all():
        raise CertificationError("lift does not preserve every N-coset")
    return f
