"""Route decisions, subgroup/generator selection, central automorphisms."""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from noninner.eligibility import (
    Route,
    central_automorphisms,
    decide_route,
    diagnostics,
    select_generators,
    select_n,
)
from noninner.errors import SelectionError
from noninner.maps import GroupMap, generates, map_order, verify_automorphism
from noninner.pcgroup import PcGroup, PcPresentation
from noninner.pcpfile import parse_pcp_file
from noninner.structure import (
    center,
    centralizer,
    closure,
    coclass,
    frattini,
    is_normal,
    nilpotency_class,
    upper_central_series,
    whole_group,
)
from util_oracles import (
    central_automorphisms_by_enumeration,
    central_automorphisms_by_unique,
    collector,
    inv_table_by_products,
    lower_central_series_by_elements,
    order_of,
    rtables_by_masked_passes,
    verify_automorphism_by_collector,
)

# Frozen expected route per corpus group.  dihedral_8 also has coclass 1,
# so it doubles as a precedence check: the parity gate must fire first.
EXPECTED_ROUTES = {
    "dihedral_8": Route.NOT_ODD_P,
    "heisenberg_3": Route.NOT_COCLASS_2,
    "heisenberg_5": Route.NOT_COCLASS_2,
    "wreath_81": Route.NOT_COCLASS_2,
    "heis_x_c3": Route.ORDER_BELOW_P7,
    "g2187_zcyc": Route.Z2_OVER_Z_CYCLIC,
    "g2187_zphi": Route.Z2_NOT_IN_ZPHI_OR_D_NOT_2,
    "g2187_a": Route.ELIGIBLE,
    "g2187_b": Route.ELIGIBLE,
    "g2187_c": Route.ELIGIBLE,
    "g2187_d": Route.ELIGIBLE,
}

# Each rejection route cites specific prior literature.
CITATION_FRAGMENTS = {
    Route.NOT_ODD_P: "Liebeck",
    Route.NOT_COCLASS_2: "Abdollahi",
    Route.ORDER_BELOW_P7: "GAP",
    Route.Z2_OVER_Z_CYCLIC: "Shabani Attar",
    Route.Z2_NOT_IN_ZPHI_OR_D_NOT_2: "Deaconescu",
}


@pytest.mark.parametrize("gid", sorted(EXPECTED_ROUTES))
def test_route_decision_per_corpus_group(gid, corpus_dir):
    from noninner.pcgroup import PcGroup
    from noninner.pcpfile import parse_pcp_file

    group = PcGroup(parse_pcp_file(corpus_dir / f"{gid}.pcp").presentation)
    decision = decide_route(group)
    assert decision.route is EXPECTED_ROUTES[gid]
    text = decision.describe()
    assert f"route: {decision.route.value}" in text
    if decision.route is Route.ELIGIBLE:
        assert decision.citations == ()
    else:
        assert decision.citations
        assert CITATION_FRAGMENTS[decision.route] in " ".join(decision.citations)


def test_5_7_probe_routes_z2_over_z_cyclic(probe_5_7):
    assert decide_route(probe_5_7).route == Route.Z2_OVER_Z_CYCLIC


def test_coclass_3_jordan_group():
    """C5^6 x| C5 with g1 acting by Jordan blocks of sizes 4 and 2, kept
    out of the corpus: class 4 and coclass 3, as the element-by-element
    lower central series has them too, and the diagnostics.  Its route's
    citations are not pinned."""
    path = Path(__file__).resolve().parent / "data" / "jordan_5_4_2.pcp"
    G = PcGroup(parse_pcp_file(path).presentation)
    assert (nilpotency_class(G), coclass(G)) == (4, 3)
    oracle_class = len(lower_central_series_by_elements(G)) - 1
    assert (oracle_class, G.ngens - oracle_class) == (4, 3)
    d = diagnostics(G)
    assert d["ds_condition"] is True
    assert d["central_aut_count"] == 15_625


def test_route_enum_values_are_stable():
    assert [r.value for r in Route] == [
        "NOT_ODD_P",
        "NOT_COCLASS_2",
        "ORDER_BELOW_P7",
        "Z2_OVER_Z_CYCLIC",
        "Z2_NOT_IN_ZPHI_OR_D_NOT_2",
        "ELIGIBLE",
    ]


# ---------------------------------------------------------------------------
# select_n


def test_select_n_postconditions_and_determinism(eligible_groups):
    for gid, G in eligible_groups.items():
        C = collector(G)
        n_sub = select_n(G)
        p = G.p
        series = upper_central_series(G)
        z1, z2 = series[1], series[2]
        assert n_sub.order == p * p
        assert z1 < n_sub < z2
        assert is_normal(G, n_sub)
        assert all(C.pow(G.vec(i), p) == G.identity for i in n_sub.indices.tolist())
        cent = centralizer(G, n_sub.basis)
        assert cent.order * p == G.element_count
        assert select_n(G) == n_sub  # deterministic


def test_select_n_independent_of_route_gate(heis3):
    # Heisenberg of order 27 has |Z| = 3 and |Z_2| = 27, so the selection
    # works even though the group is on a rejection route.
    n_sub = select_n(heis3)
    assert n_sub.order == 9
    assert center(heis3) < n_sub


def test_select_n_rejects_overlapping_cosets(corpus_dir, monkeypatch):
    """The candidates <Z, x> are built as the p cosets Z x^e; should the
    products ever give overlapping cosets, selection fails with
    SelectionError rather than building a smaller set."""
    from noninner.pcpfile import parse_pcp_file
    from noninner.structure import power_table

    G = PcGroup(parse_pcp_file(corpus_dir / "g2187_a.pcp").presentation)
    # Z_2 has exponent p (the coset branch), and the series and power
    # table are built before the products are broken
    assert not power_table(G)[upper_central_series(G)[2].indices].any()
    monkeypatch.setattr(PcGroup, "mul_indices", lambda self, a, b: a)
    with pytest.raises(SelectionError, match="not disjoint"):
        select_n(G)


def test_select_n_rejects_wrong_layer_sizes(corpus_wreath, corpus_dihedral):
    with pytest.raises(SelectionError, match="second center"):
        select_n(corpus_wreath)
    with pytest.raises(SelectionError):
        select_n(corpus_dihedral)


# ---------------------------------------------------------------------------
# select_generators


def test_select_generators_frame(eligible_groups):
    for gid, G in eligible_groups.items():
        C = collector(G)
        ctx = select_generators(G)
        p, m = G.p, G.ngens
        a, b, w = G.vec(ctx.a), G.vec(ctx.b), G.vec(ctx.w)
        assert closure(G, [ctx.a, ctx.b]).order == G.element_count
        assert generates(G, [ctx.a, ctx.b])
        assert ctx.centralizer_n.mask[ctx.a]
        assert not ctx.centralizer_n.mask[ctx.b]
        assert not ctx.phi.mask[ctx.a]
        assert ctx.n_sub.mask[ctx.w] and not ctx.z1.mask[ctx.w]
        assert G.vec(ctx.comm_w_b) == C.comm(w, b) != G.identity
        assert ctx.z1.mask[ctx.comm_w_b]
        assert order_of(G, w) == order_of(G, G.vec(ctx.comm_w_b)) == p
        assert G.vec(ctx.comm_a_b) == C.comm(a, b)
        assert ctx.phi.mask[ctx.comm_a_b]
        assert not ctx.z_deep.mask[ctx.comm_a_b]
        assert ctx.z_deep == upper_central_series(G)[m - 4]
        summary = ctx.summary()
        assert set(summary) == {"N_basis", "a", "b", "w", "comm_a_b", "comm_w_b"}
        assert summary["a"] == list(a)
        assert summary["N_basis"] == [list(G.vec(x)) for x in ctx.n_sub.basis]


def test_select_generators_rejects_wrong_shape(heis3):
    with pytest.raises(SelectionError, match="upper central series"):
        select_generators(heis3)


# ---------------------------------------------------------------------------
# central automorphisms and diagnostics


def test_central_automorphisms_of_heisenberg(heis3):
    auts = central_automorphisms(heis3)
    # maps g1 -> g1 z^a, g2 -> g2 z^b lift to automorphisms; the image of
    # g3 = [g2, g1] is forced, so exactly 3^2 maps survive
    assert len(auts) == 9
    assert len({tuple(row) for row in auts.tolist()}) == 9
    identity_count = 0
    for row in auts:
        f = GroupMap(heis3, row)
        assert verify_automorphism(f) is None
        assert f.image_indices[2] == heis3.gen_indices[2]  # g3 image forced
        if f.is_identity():
            identity_count += 1
        else:
            assert map_order(f) == 3
    assert identity_count == 1


def test_diagnostics_heisenberg(heis3):
    d = diagnostics(heis3)
    assert d == {
        "purely_nonabelian_sufficient": True,
        "central_aut_count": 9,
        "ds_condition": True,
    }


def test_diagnostics_detects_abelian_direct_factor(corpus_heis_x_c3):
    d = diagnostics(corpus_heis_x_c3)
    # Heisenberg x C3 has an abelian direct factor: Z(G) is not inside G'
    assert d["purely_nonabelian_sufficient"] is False
    assert d["central_aut_count"] == 486


def test_frattini_contains_n(eligible_groups):
    for gid, G in eligible_groups.items():
        assert select_n(G) <= frattini(G)
        assert whole_group(G).order == 3**7


def test_central_automorphisms_match_enumeration_on_corpus(corpus_groups):
    checked = 0
    for gid, G in corpus_groups.items():
        if center(G).order ** G.ngens > 2187:
            continue
        expected = central_automorphisms_by_enumeration(G)
        assert np.array_equal(central_automorphisms(G), expected), gid
        checked += 1
    assert checked >= 9


def test_central_automorphisms_of_cyclic_9():
    # Z = G, and g1 -> g1 z1 forces z2 = z1^3; g1 z1 generates unless
    # z1 lies in the coset g1^-1 Phi, which leaves 6 of the 9 choices
    G = PcGroup(PcPresentation(3, 2, powers={1: [(2, 1)]}))
    auts = central_automorphisms(G)
    assert len(auts) == 6
    assert np.array_equal(auts, central_automorphisms_by_enumeration(G))


@pytest.mark.parametrize("p, n, order", [(3, 2, 48), (5, 2, 480), (3, 3, 11_232), (2, 4, 20_160)])
def test_central_automorphisms_of_elementary_abelian_groups(p, n, order):
    """Z = C_p^n is the whole group, so the central automorphisms are all
    of GL_n(p), of order prod (p^n - p^i).  At (3, 3) and (2, 4) every
    tuple has its own coordinate matrix: stacks of 19 683 and 65 536."""
    assert math.prod(p**n - p**i for i in range(n)) == order
    assert len(central_automorphisms(PcGroup(PcPresentation(p, n)))) == order


def test_central_automorphisms_make_one_rank_call(corpus_groups, monkeypatch):
    """When Z <= Phi every tail solution keeps the generators' own matrix
    mod Phi, so no rank is taken; heis_x_c3 is the one corpus group with
    Z not in Phi, and there generation is decided for one tuple per
    distinct coordinate matrix in a single stacked `fp.rank` call (one
    stack of 27 matrices)."""
    import noninner.fp as fp

    shapes = []
    original = fp.rank

    def counted(mat, p):
        shapes.append(np.shape(mat))
        return original(mat, p)

    monkeypatch.setattr(fp, "rank", counted)
    for gid, G in corpus_groups.items():
        shapes.clear()
        central_automorphisms(G)
        expected = [(27, 4, 3)] if gid == "heis_x_c3" else []
        assert shapes == expected, (gid, shapes)


def _factor(kind: str, tails: tuple) -> tuple:
    """(ngens, powers, commutators) of one factor over p = 3, numbered
    from 1.  The Heisenberg factor may carry power tails on g1 and g2
    (the exponent-9 extraspecial group when either is nonzero)."""
    if kind == "heisenberg_3":
        a, b, c = tails
        powers = {i: [(3, e)] for i, e in ((1, a), (2, b)) if e}
        return 3, powers, {(2, 1): [(3, c)]}
    if kind == "C9":
        return 2, {1: [(2, tails[2])]}, {}
    return 1, {}, {}


# factor kinds with (number of generators, order of the center)
FACTOR_KINDS = {"heisenberg_3": (3, 3), "C3": (1, 3), "C9": (2, 9)}

# the products with at most 729 candidate maps |Z|^m
SMALL_PRODUCTS = [
    kinds
    for n in (1, 2, 3)
    for kinds in itertools.product(sorted(FACTOR_KINDS), repeat=n)
    if math.prod(FACTOR_KINDS[k][1] for k in kinds)
    ** sum(FACTOR_KINDS[k][0] for k in kinds)
    <= 729
]


@st.composite
def small_direct_products(draw) -> PcPresentation:
    kinds = draw(st.sampled_from(SMALL_PRODUCTS))
    ngens, powers, comms = 0, {}, {}
    for kind in kinds:
        tails = draw(
            st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(1, 2))
        )
        n, pw, cm = _factor(kind, tails)
        for i, word in pw.items():
            powers[i + ngens] = [(k + ngens, e) for k, e in word]
        for (j, i), word in cm.items():
            comms[(j + ngens, i + ngens)] = [(k + ngens, e) for k, e in word]
        ngens += n
    return PcPresentation(3, ngens, powers=powers, commutators=comms)


@settings(deadline=None, max_examples=40)
@given(small_direct_products())
def test_central_automorphisms_match_enumeration_on_products(pres):
    G = PcGroup(pres)
    assert np.array_equal(central_automorphisms(G), central_automorphisms_by_enumeration(G))


@settings(deadline=None, max_examples=20)
@given(small_direct_products())
@example(PcPresentation(3, 2, powers={1: [(2, 1)]}))
def test_verify_automorphism_matches_collector_on_central_tails(pres):
    """Every map g_k -> g_k z_k over Z^m, homomorphisms that are not onto
    included, gets the same verdict and reason from the table check
    (onto when the table is a permutation) as from the collector oracle
    (onto when the images have full rank mod Phi).  On these products a
    homomorphism that is not onto occurs exactly when Z is not inside
    Phi, as with the example C9."""
    G = PcGroup(pres)
    z_idx = center(G).indices
    reasons = set()
    for tails in itertools.product(z_idx, repeat=G.ngens):
        f = GroupMap(G, G.mul_indices(np.array(tails), G.gen_indices))
        reason = verify_automorphism(f)
        assert reason == verify_automorphism_by_collector(f), (tails, reason)
        reasons.add(reason)
    onto_only = "images do not generate the group" not in reasons
    assert onto_only == bool(frattini(G).mask[z_idx].all()), reasons


@settings(deadline=None, max_examples=40)
@given(small_direct_products())
def test_tables_match_whole_group_pass_builds_on_products(pres):
    G = PcGroup(pres)
    expected = rtables_by_masked_passes(G)
    for k in range(1, G.ngens + 1):
        assert np.array_equal(G._rtable(k), expected[k]), k
    assert np.array_equal(G.inv_table(), inv_table_by_products(G))


def test_central_automorphisms_collector_call_budget(corpus_dir, monkeypatch):
    """The tails are solved on index arrays and the Frattini coordinates
    are read from the digits of the indices, with no product, so past the
    route decision `PcGroup.mul` is never called.  The solutions
    are index rows, which diagnostics only counts, so hardly any index
    becomes a tuple (`vec`)."""
    from noninner.pcpfile import parse_pcp_file

    pres = parse_pcp_file(corpus_dir / "heis_x_c3.pcp").presentation
    G, fresh = PcGroup(pres), PcGroup(pres)
    decide_route(G)
    decide_route(fresh)
    calls = {"mul": 0, "vec": 0}
    original_mul, original_vec = PcGroup.mul, PcGroup.vec

    def counted_mul(self, x, y):
        calls["mul"] += 1
        return original_mul(self, x, y)

    def counted_vec(self, n):
        calls["vec"] += 1
        return original_vec(self, n)

    monkeypatch.setattr(PcGroup, "mul", counted_mul)
    monkeypatch.setattr(PcGroup, "vec", counted_vec)
    assert len(central_automorphisms(G)) == 486
    assert calls["mul"] == 0, calls
    calls.update(mul=0, vec=0)
    assert diagnostics(fresh)["central_aut_count"] == 486
    assert calls["mul"] == 0, calls
    assert calls["vec"] <= 100, calls


COLLECTOR = ("mul", "inv", "pow", "conj", "comm")


def test_route_and_diagnostics_make_no_collector_calls(
    corpus_dir, manifest, probe_5_7_path, monkeypatch
):
    """Routing and diagnostics work on index tables alone: once the
    presentation is checked, no tuple method of `PcGroup` runs."""
    from noninner.pcpfile import parse_pcp_file

    paths = [corpus_dir / entry["file"] for entry in manifest["groups"].values()]
    groups = {path.name: PcGroup(parse_pcp_file(path).presentation) for path in sorted(paths)}
    groups["probe_5_7"] = PcGroup(parse_pcp_file(probe_5_7_path).presentation)
    calls = dict.fromkeys(COLLECTOR, 0)
    for name in COLLECTOR:
        original = getattr(PcGroup, name)

        def counted(self, *args, name=name, original=original):
            calls[name] += 1
            return original(self, *args)

        monkeypatch.setattr(PcGroup, name, counted)
    for gid, G in groups.items():
        decide_route(G)
        diagnostics(G)
        assert not any(calls.values()), (gid, calls)


def test_route_and_diagnostics_build_no_lower_central_series(corpus_dir, manifest, monkeypatch):
    """The class comes from the upper central series and G' and Phi
    from the relation words, so routing and diagnostics never build the
    lower central series."""
    import sys

    import noninner.structure as structure
    from noninner.pcpfile import parse_pcp_file

    original = structure.lower_central_series
    calls = {"lower_central_series": 0}

    def counted(group):
        calls["lower_central_series"] += 1
        return original(group)

    for name, module in list(sys.modules.items()):
        if name.startswith("noninner") and getattr(module, "lower_central_series", None) is original:
            monkeypatch.setattr(module, "lower_central_series", counted)
    for gid, entry in sorted(manifest["groups"].items()):
        G = PcGroup(parse_pcp_file(corpus_dir / entry["file"]).presentation)
        decide_route(G)
        diagnostics(G)
        assert calls["lower_central_series"] == 0, gid


def test_central_automorphisms_match_unique_dedup(corpus_groups, probe_5_7):
    """The rank test once per distinct code row keeps exactly the rows
    the `np.unique` deduplication of the coordinate matrices kept."""
    cases = dict(corpus_groups, probe_5_7=probe_5_7)
    for gid, G in cases.items():
        expected = central_automorphisms_by_unique(G)
        assert np.array_equal(central_automorphisms(G), expected), gid


def test_large_prime_conditions_array_product_budget(tmp_path, monkeypatch, capsys):
    """On C313 x C313 (97 969 elements) routing and diagnostics make at
    most 20 array products (13 made) before the tail solve stops at the
    element bound: the powers of Z are taken only for p and the exponents
    of relation words, by square and multiply (p array products over Z
    before, and one masked pass per unit of each coordinate in each)."""
    from noninner import cli
    from noninner.errors import OrderBoundError
    from noninner.pcpfile import parse_pcp_file

    path = tmp_path / "c313_squared.pcp"
    path.write_text("pcp 1\nprime 313\nngens 2\n")
    calls = {"array": 0}
    original = PcGroup.mul_indices

    def counted(self, a, b):
        calls["array"] += np.ndim(b) > 0
        return original(self, a, b)

    monkeypatch.setattr(PcGroup, "mul_indices", counted)
    G = PcGroup(parse_pcp_file(path).presentation, validate=False)
    assert decide_route(G).route is Route.NOT_COCLASS_2
    message = (
        "central automorphisms: 97969 tail tuples times |Z| = 97969 "
        "exceed the element bound 100000"
    )
    with pytest.raises(OrderBoundError) as exc:
        diagnostics(G)
    assert str(exc.value) == message
    assert calls["array"] <= 20, calls
    assert cli.main(["conditions", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
