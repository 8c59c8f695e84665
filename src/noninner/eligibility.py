"""Structural gate: which groups the certificate construction applies to.

The construction targets finite p-groups with p odd, coclass 2 and order
at least p^7 whose center has order p, whose second center Z_2 satisfies
Z_2/Z noncyclic and Z_2 <= Z(Phi(G)), and which need exactly two
generators.  Groups failing a check are routed to the first failing
condition; for each rejection route the report cites the literature that
settles (or scopes out) that case, since those groups need no
certificate from this tool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import OrderBoundError, SelectionError
from .maps import _frattini_coords, generates
from .pcgroup import PcGroup
from .structure import (
    Subgroup,
    center,
    center_of,
    centralizer,
    coclass,
    derived_subgroup,
    frattini,
    is_normal,
    minimal_generator_count,
    omega1,
    power_table,
    quotient_exponent_is_p,
    quotient_is_cyclic,
    upper_central_series,
)


class Route(str, Enum):
    """Outcome of the structural gate, checked in this order."""

    NOT_ODD_P = "NOT_ODD_P"
    NOT_COCLASS_2 = "NOT_COCLASS_2"
    ORDER_BELOW_P7 = "ORDER_BELOW_P7"
    Z2_OVER_Z_CYCLIC = "Z2_OVER_Z_CYCLIC"
    Z2_NOT_IN_ZPHI_OR_D_NOT_2 = "Z2_NOT_IN_ZPHI_OR_D_NOT_2"
    ELIGIBLE = "ELIGIBLE"


CITATIONS: dict[Route, tuple[str, ...]] = {
    Route.NOT_ODD_P: (
        "p = 2 is outside the scope of this construction; the derivation "
        "formulas used here require p odd.",
        "For 2-groups the existence of noninner automorphisms of order 2 "
        "is known in several classes but open in general; see e.g. "
        "H. Liebeck, Outer automorphisms in nilpotent p-groups of class 2, "
        "J. London Math. Soc. 40 (1965) 268-275.",
    ),
    Route.NOT_COCLASS_2: (
        "Nilpotency class 2: A. Abdollahi, Finite p-groups of class 2 have "
        "noninner automorphisms of order p, J. Algebra 312 (2007) 876-879.",
        "Nilpotency class 3: A. Abdollahi, M. Ghoraishi, B. Wilkens, Finite "
        "p-groups of class 3 have noninner automorphisms of order p, "
        "Beitr. Algebra Geom. 54 (2013) 363-381.",
        "Maximal class (coclass 1): M. Shabani Attar, On a conjecture about "
        "automorphisms of finite p-groups, Arch. Math. 93 (2009) 399-403.",
    ),
    Route.ORDER_BELOW_P7: (
        "Coclass-2 groups of order below p^7 are settled by prior "
        "verification work on small p-groups, including exhaustive computer "
        "checks (GAP small-groups library) for p = 3.",
    ),
    Route.Z2_OVER_Z_CYCLIC: (
        "M. Shabani Attar, Existence of noninner automorphisms of order p "
        "in some finite p-groups: a p-group of coclass 2 with p odd and "
        "Z_2(G)/Z(G) cyclic has a noninner automorphism of order p.",
    ),
    Route.Z2_NOT_IN_ZPHI_OR_D_NOT_2: (
        "M. Shabani Attar, Existence of noninner automorphisms of order p "
        "in some finite p-groups: a p-group of coclass 2 with p odd, "
        "Z_2(G)/Z(G) noncyclic, and Z_2(G) not contained in Z(Phi(G)) or "
        "d(G) != 2 has a noninner automorphism of order p.",
        "When C_G(Z(Phi(G))) != Phi(G): M. Deaconescu, G. Silberberg, "
        "Noninner automorphisms of order p of finite p-groups, J. Algebra "
        "250 (2002) 283-287.",
    ),
    Route.ELIGIBLE: (),
}


@dataclass(frozen=True)
class RouteDecision:
    route: Route
    citations: tuple[str, ...]

    def describe(self) -> str:
        lines = [f"route: {self.route.value}"]
        for c in self.citations:
            lines.append(f"  - {c}")
        return "\n".join(lines)


def decide_route(group: PcGroup) -> RouteDecision:
    """First failing structural condition, in the fixed check order:
    odd p, coclass 2, order >= p^7, Z_2/Z noncyclic, then
    (Z_2 <= Z(Phi) and d = 2)."""

    def decided(route: Route) -> RouteDecision:
        return RouteDecision(route, CITATIONS[route])

    if group.p == 2:
        return decided(Route.NOT_ODD_P)
    if coclass(group) != 2:
        return decided(Route.NOT_COCLASS_2)
    if group.ngens < 7:
        return decided(Route.ORDER_BELOW_P7)
    series = upper_central_series(group)
    z1, z2 = series[1], series[2]
    if quotient_is_cyclic(group, z2, z1):
        return decided(Route.Z2_OVER_Z_CYCLIC)
    phi = frattini(group)
    z_phi = center_of(group, phi)
    if not (z2 <= z_phi and minimal_generator_count(group) == 2):
        return decided(Route.Z2_NOT_IN_ZPHI_OR_D_NOT_2)
    return decided(Route.ELIGIBLE)


def _is_elementary_abelian(group: PcGroup, sub: Subgroup) -> bool:
    """Exponent p from the power table, and pairwise commuting basis
    elements, which generate `sub`."""
    if power_table(group)[sub.indices].any():
        return False
    basis = np.array(sub.basis, dtype=np.int64)
    x, y = (basis[i] for i in np.triu_indices(len(basis), 1))
    return bool((group.mul_indices(x, y) == group.mul_indices(y, x)).all())


def select_n(group: PcGroup) -> Subgroup:
    """Deterministic choice of the normal subgroup N with
    Z < N < Z_2, N of rank 2 and exponent p, and C_G(N) maximal.

    If Z_2 is elementary abelian (rank 3) the candidates are the p+1
    subgroups generated by Z and one element x of Z_2 outside Z, each
    built as the p cosets Z x^e; ties break to the candidate with the
    least sorted element-index tuple.  If Z_2 has an element of order
    p^2 the choice is forced: N = Omega_1(Z_2).
    """
    return _select_n(group)[0]


def _select_n(group: PcGroup) -> tuple[Subgroup, Subgroup]:
    """`select_n`'s N and C_G(N), which it checks maximal and on which
    `select_generators` builds the frame."""
    p = group.p
    series = upper_central_series(group)
    z1, z2 = series[1], series[2]
    if z1.order != p:
        raise SelectionError(f"center has order {z1.order}, expected {p}")
    if z2.order != p**3:
        raise SelectionError(
            f"second center has order {z2.order}, expected {p**3}"
        )
    if not power_table(group)[z2.indices].any():
        # Z_2 has exponent p and Z is central of order p, so <Z, x> is
        # elementary abelian of order p^2, the union of the cosets Z x^e,
        # and is the candidate of each of its elements outside Z
        candidates: list[np.ndarray] = []
        covered = z1.mask.copy()
        for x in z2.indices.tolist():
            if covered[x]:
                continue
            cosets = [z1.indices]
            for _ in range(p - 1):
                cosets.append(group.mul_indices(cosets[-1], x))
            # np.sort, as np.unique would import numpy.ma (about 1.7 MB)
            cand = np.sort(np.concatenate(cosets))
            if (cand[1:] == cand[:-1]).any():
                raise SelectionError("cosets of Z in <Z, x> are not disjoint")
            covered[cand] = True
            candidates.append(cand)
        n_sub = Subgroup(group, min(candidates, key=lambda c: c.tolist()))
    else:
        n_sub = omega1(group, z2)
    # Verification of everything the construction relies on.
    if n_sub.order != p * p or not _is_elementary_abelian(group, n_sub):
        raise SelectionError("selected subgroup is not elementary abelian of rank 2")
    if not (z1 < n_sub and n_sub < z2):
        raise SelectionError("selected subgroup does not sit strictly between Z and Z_2")
    if not is_normal(group, n_sub):
        raise SelectionError("selected subgroup is not normal")
    cent = centralizer(group, n_sub.basis)
    if cent.order * p != group.element_count:
        raise SelectionError(
            "centralizer of the selected subgroup is not maximal "
            f"(index {group.element_count // cent.order})"
        )
    return n_sub, cent


@dataclass
class SelectionContext:
    """Everything the derivation builders need, with invariants verified.
    The frame elements are element indices."""

    group: PcGroup
    n_sub: Subgroup
    centralizer_n: Subgroup
    a: int
    b: int
    w: int
    comm_a_b: int
    comm_w_b: int
    phi: Subgroup
    series: list[Subgroup] = field(repr=False)

    @property
    def z1(self) -> Subgroup:
        return self.series[1]

    @property
    def z_deep(self) -> Subgroup:
        """Z_{m-4}, the fixed subgroup of the a-shift automorphism."""
        return self.series[self.group.ngens - 4]

    def summary(self) -> dict:
        """The frame as exponent lists."""
        vec = self.group.vec
        return {
            "N_basis": [list(vec(x)) for x in self.n_sub.basis],
            "a": list(vec(self.a)),
            "b": list(vec(self.b)),
            "w": list(vec(self.w)),
            "comm_a_b": list(vec(self.comm_a_b)),
            "comm_w_b": list(vec(self.comm_w_b)),
        }


def select_generators(group: PcGroup) -> SelectionContext:
    """Deterministic choice of N (`select_n`) and the frame (a, b, w).

    b: index-least element outside C_G(N); a: index-least element of
    C_G(N) outside Phi; w: index-least element of N outside Z with
    [w, b] != 1.  All structural facts the construction uses are checked
    here; any failure raises SelectionError.  That a and b generate G is
    checked modulo Phi (`generates`), without building <a, b>.
    """
    p = group.p
    m = group.ngens
    series = upper_central_series(group)
    z1 = series[1]
    phi = frattini(group)
    n_sub, cent = _select_n(group)

    # Structural layout around the frame (checked, not assumed):
    # series steps |Z_i| = p^(i+1) for 2 <= i <= m-3, Z_{m-3} = Phi,
    # and G/Z_{m-4} has exponent p.
    if len(series) - 1 != m - 2:
        raise SelectionError(
            f"upper central series has length {len(series) - 1}, expected {m - 2}"
        )
    for i in range(2, m - 2):
        if series[i].order != p ** (i + 1):
            raise SelectionError(
                f"|Z_{i}| = {series[i].order}, expected p^{i + 1}"
            )
    if series[m - 3] != phi:
        raise SelectionError("Z_{m-3} is not the Frattini subgroup")
    if not quotient_exponent_is_p(group, series[m - 4]):
        raise SelectionError("G/Z_{m-4} does not have exponent p")
    if not phi <= cent:
        raise SelectionError("Frattini subgroup does not centralize N")

    outside = np.nonzero(~cent.mask)[0]
    if not outside.size:
        raise SelectionError("no element outside C_G(N); N is central")
    b = int(outside[0])
    outside = cent.indices[~phi.mask[cent.indices]]
    if not outside.size:
        raise SelectionError("C_G(N) has no element outside Phi")
    a = int(outside[0])
    cands = n_sub.indices[~z1.mask[n_sub.indices]]
    moved = np.nonzero(group.comm_indices(cands, b))[0]
    if not moved.size:
        raise SelectionError("no element of N outside Z moved by b")
    w = int(cands[moved[0]])

    comm_a_b = int(group.comm_indices(a, b))
    comm_w_b = int(group.comm_indices(w, b))

    if not generates(group, [a, b]):
        raise SelectionError("a and b do not generate the group")
    z_deep = series[m - 4]
    if not phi.mask[comm_a_b] or z_deep.mask[comm_a_b]:
        raise SelectionError("[a, b] does not lie in Phi minus Z_{m-4}")
    if comm_w_b == 0 or not z1.mask[comm_w_b]:
        raise SelectionError("[w, b] does not lie in Z minus 1")
    # order p: not the identity, with p-th power the identity
    powers = power_table(group)
    if w == 0 or powers[w] or powers[comm_w_b]:
        raise SelectionError("w or [w, b] does not have order p")
    if not n_sub <= series[m - 4]:
        raise SelectionError("N is not contained in Z_{m-4}")
    if not n_sub <= phi:
        raise SelectionError("N is not contained in Phi")

    return SelectionContext(
        group=group,
        n_sub=n_sub,
        centralizer_n=cent,
        a=a,
        b=b,
        w=w,
        comm_a_b=comm_a_b,
        comm_w_b=comm_w_b,
        phi=phi,
        series=series,
    )


def central_automorphisms(group: PcGroup) -> np.ndarray:
    """All automorphisms sending each generator g_k to g_k z_k with z_k
    central, as an (n, m) array whose rows are the indices of the m
    generator images, in the order of itertools.product over Z in index
    order.

    As the tails are central, the images satisfy the power relation
    g_k^p = w_k exactly when z_k^p = prod_l z_l^e_l(w_k), and the
    commutator relation [g_j, g_i] = w_ji exactly when
    prod_l z_l^e_l(w_ji) = 1, where e_l(w) is the exponent of g_l in the
    normal word w.  The tail tuples, as positions in Z, are solved deepest
    generator first (k = m, ..., 1): step k puts each z_k, in index order,
    before all the tuples (z_(k+1), ..., z_m) kept so far, in their order,
    and keeps those that satisfy the power relation of g_k and each
    commutator relation whose word starts at g_k; so the tuples stay in
    product order, with no sort.  The image g_k z_k = z_k g_k is read from
    the generator table T_k at Z.  A solution is an automorphism exactly
    when its images generate G, that is when their coordinate matrix mod
    Phi has full rank (Burnside): when Z <= Phi it is the generators' own
    matrix, so every solution is one; otherwise one `generates` call
    decides one tuple per distinct matrix.

    Raises OrderBoundError when a step would hold more tuples than the
    group's element bound.
    """
    G = group
    p, m = G.p, G.ngens
    z_idx = center(G).indices
    nz = len(z_idx)
    starting: dict[int, list] = {}
    for word in G.pres.commutators.values():
        starting.setdefault(word[0][0], []).append(word)
    # powers[e][c] is the index of z^e for the c-th element z of Z, for p
    # and each exponent of a relation word
    words = [*G.pres.powers.values(), *G.pres.commutators.values()]
    exponents = {p} | {e for word in words for _, e in word}
    powers = {e: G.pow_indices(z_idx, e) for e in sorted(exponents)}

    def value(word, pos: np.ndarray, k: int) -> np.ndarray:
        """prod_l z_l^e_l(word) for every tuple, where pos[:, l - k] is
        the position of z_l in Z."""
        out = None
        for l, e in word:
            z = powers[e][pos[:, l - k]]
            out = z if out is None else G.mul_indices(out, z)
        return np.zeros(len(pos), dtype=np.int64) if out is None else out

    # pos[r, t] is the position in Z of z_(k+t) in the r-th tuple after step k
    pos = np.zeros((1, 0), dtype=np.int64)
    for k in range(m, 0, -1):
        if len(pos) * nz > G.element_bound:
            raise OrderBoundError(
                f"central automorphisms: {len(pos)} tail tuples times |Z| = {nz} "
                f"exceed the element bound {G.element_bound}"
            )
        grown = np.empty((nz, len(pos), pos.shape[1] + 1), dtype=np.int64)
        grown[:, :, 0] = np.arange(nz)[:, None]
        grown[:, :, 1:] = pos
        pos = grown.reshape(-1, grown.shape[2])
        keep = powers[p][pos[:, 0]] == value(G.pres.power(k), pos, k)
        for word in starting.get(k, ()):
            keep &= value(word, pos, k) == 0
        pos = pos[keep]
    gen_at_z = np.stack([G._rtable(k)[z_idx] for k in range(1, m + 1)], axis=1)
    images = gen_at_z[pos, np.arange(m)]
    if frattini(G).mask[z_idx].all():
        return images

    qc = _frattini_coords(G)
    # row k of a tuple's coordinate matrix is coords(g_k) + coords(z_k), so
    # the codes of the z_k (coordinate rows read base p) fix the matrix;
    # the all-identity tuple always solves, so there is a first code row
    codes = (qc.coords(z_idx) @ p ** np.arange(qc.dim, dtype=np.int64))[pos]
    order = np.lexsort(codes.T[::-1])
    first = np.r_[True, (codes[order[1:]] != codes[order[:-1]]).any(axis=1)]
    full = generates(G, images[order[first]])[np.cumsum(first) - 1]
    return images[np.sort(order[full])]


def diagnostics(group: PcGroup) -> dict:
    """Secondary structural facts reported alongside the route:

    - purely_nonabelian_sufficient: Z(G) <= G' (so G has no nontrivial
      abelian direct factor and central-automorphism counting applies);
    - central_aut_count: number of central automorphisms, by the tail
      solve of central_automorphisms (OrderBoundError past the element
      bound);
    - ds_condition: C_G(Z(Phi(G))) != Phi(G), the hypothesis under which
      Deaconescu-Silberberg already provide a noninner automorphism of
      order p fixing Phi(G) elementwise.
    """
    derived = derived_subgroup(group)
    z1 = center(group)
    phi = frattini(group)
    z_phi = center_of(group, phi)
    cent_z_phi = centralizer(group, z_phi.basis)
    return {
        "purely_nonabelian_sufficient": z1 <= derived,
        "central_aut_count": len(central_automorphisms(group)),
        "ds_condition": cent_z_phi != phi,
    }
