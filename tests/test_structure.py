"""Structural computations checked against brute-force table oracles."""

import functools
from pathlib import Path

import numpy as np
import pytest

from noninner.eligibility import _is_elementary_abelian
from noninner.errors import OrderBoundError
from noninner.pcgroup import PcGroup, PcPresentation
from noninner.structure import (
    Subgroup,
    _conj_gen_perms,
    _frattini_rows,
    burnside_basis,
    center,
    center_of,
    centralizer,
    closure,
    coclass,
    coset_min_table,
    derived_subgroup,
    frattini,
    frattini_coords,
    intersection,
    is_normal,
    lower_central_series,
    minimal_generator_count,
    nilpotency_class,
    normal_closure,
    omega1,
    power_table,
    quotient_exponent_is_p,
    quotient_is_cyclic,
    trivial_subgroup,
    upper_central_series,
    whole_group,
)

from util_oracles import (
    canonical_basis_by_scan,
    centralizer_by_mult_perms,
    collector,
    conj_perm,
    coset_min_table_by_elements,
    elements,
    frattini_by_derived_series,
    is_elementary_abelian_by_pairs,
    lower_central_series_by_elements,
    omega1_by_pow,
    order_of,
    quotient_gen_coords_by_products,
    quotient_is_cyclic_by_scan,
    random_presentation,
    row_echelon_by_rows,
    subgroup_tuples,
    table_group_from_pcgroup,
    upper_central_series_by_terms,
)


def as_set(sub: Subgroup) -> frozenset:
    return frozenset(int(i) for i in sub.indices)


# frozen structural profiles: (|Z|, ucs orders, lcs orders, |Phi|, d, class)
PROFILES = {
    "corpus_dihedral": (2, [1, 2, 8], [8, 2, 1], 2, 2, 2),
    "heis3": (3, [1, 3, 27], [27, 3, 1], 3, 2, 2),
    "corpus_wreath": (3, [1, 3, 9, 81], [81, 9, 3, 1], 9, 2, 3),
    "corpus_heis_x_c3": (9, [1, 9, 81], [81, 3, 1], 3, 3, 2),
}


@pytest.fixture(params=sorted(PROFILES))
def profiled(request):
    group = request.getfixturevalue(request.param)
    return group, PROFILES[request.param]


def test_series_against_oracle_and_frozen_profile(profiled):
    group, (z_order, ucs_orders, lcs_orders, phi_order, d, cls) = profiled
    oracle = table_group_from_pcgroup(group)
    assert oracle.associativity_holds()

    z = center(group)
    assert as_set(z) == oracle.center()
    assert z.order == z_order

    ucs = upper_central_series(group)
    oracle_ucs = oracle.upper_central_series()
    assert [s.order for s in ucs] == ucs_orders
    assert [as_set(s) for s in ucs] == oracle_ucs

    lcs = lower_central_series(group)
    oracle_lcs = oracle.lower_central_series()
    assert [s.order for s in lcs] == lcs_orders
    assert [as_set(s) for s in lcs] == oracle_lcs

    phi = frattini(group)
    assert as_set(phi) == oracle.frattini()
    assert phi.order == phi_order

    assert as_set(lcs[1]) == oracle.derived()
    assert minimal_generator_count(group) == oracle.minimal_generator_count() == d
    assert nilpotency_class(group) == cls
    assert coclass(group) == group.ngens - cls


def test_element_orders_against_oracle(heis5):
    oracle = table_group_from_pcgroup(heis5)
    for i in range(heis5.element_count):
        assert order_of(heis5, heis5.vec(i)) == int(oracle.element_orders[i])


# ---------------------------------------------------------------------------
# subgroup helpers


def test_closure_and_normality_in_dihedral(corpus_dihedral):
    G = corpus_dihedral
    oracle = table_group_from_pcgroup(G)
    g1 = collector(G).generator(1)
    tiny = closure(G, [G.idx(g1)])
    assert tiny.order == 2
    assert as_set(tiny) == oracle.closure({G.idx(g1)})
    assert not is_normal(G, tiny)
    big = normal_closure(G, [G.idx(g1)])
    assert big.order == 4
    assert is_normal(G, big)
    assert big.mask[G.idx(g1)]
    assert tiny < big and tiny <= big and not big <= tiny

    cent = centralizer(G, [G.idx(g1)])
    oracle_cent = frozenset(
        x for x in range(oracle.n) if oracle.conj(G.idx(g1), x) == G.idx(g1)
    )
    assert as_set(cent) == oracle_cent
    assert cent.order == 4


def test_centralizer_of_everything_is_center(corpus_wreath):
    G = corpus_wreath
    assert centralizer(G, G.gen_indices) == center(G)
    assert centralizer(G, []) == whole_group(G)


def _named_subgroups(G) -> list:
    """Every term of both central series, Phi, Z and Z(Phi)."""
    phi = frattini(G)
    return (
        upper_central_series(G)
        + lower_central_series(G)
        + [phi, center(G), center_of(G, phi)]
    )


def test_subgroup_basics(corpus_groups):
    for gid, G in corpus_groups.items():
        triv = trivial_subgroup(G)
        whole = whole_group(G)
        assert triv.order == 1 and whole.order == G.element_count, gid
        assert triv < whole, gid
        z = center(G)
        assert intersection(z, whole) == z, gid
        assert intersection(z, triv) == triv, gid
        assert center_of(G, whole) == z, gid
        assert center_of(G, z) == z, gid  # abelian subgroup is its own centre
        # basis regenerates the subgroup
        assert closure(G, z.basis) == z, gid
        assert len(whole.basis) == whole.log_order == G.ngens, gid
        # the relations agree with those of plain sets of indices
        subs = _named_subgroups(G)
        sets = [as_set(s) for s in subs]
        for a, sa in zip(subs, sets):
            assert len(sa) == a.order, gid
            assert [bool(a.mask[i]) for i in range(G.element_count)] == [
                i in sa for i in range(G.element_count)
            ], gid
            for b, sb in zip(subs, sets):
                assert (a == b) == (sa == sb), gid
                if sa == sb:
                    assert hash(a) == hash(b), gid
                assert (a <= b) == (sa <= sb), gid
                assert (a < b) == (sa < sb), gid
                assert as_set(intersection(a, b)) == sa & sb, gid


def test_subgroups_are_values_of_the_presentation(corpus_groups):
    """A Subgroup keeps the presentation, not the group: equal element
    sets of groups built from equal presentations are equal subgroups."""
    for gid, G in corpus_groups.items():
        twin = PcGroup(PcPresentation(G.p, G.ngens, G.pres.powers, G.pres.commutators))
        pairs = [(center(G), center(twin)), (frattini(G), Subgroup(twin, frattini(G).indices))]
        for a, b in pairs:
            assert a is not b and a == b and hash(a) == hash(b), gid
            assert intersection(a, b) == a, gid
        assert whole_group(G) != trivial_subgroup(twin), gid
    heis = corpus_groups["heisenberg_3"]
    abelian = PcGroup(PcPresentation(3, 3))
    assert center(heis) != Subgroup(abelian, center(heis).indices)
    with pytest.raises(ValueError, match="different groups"):
        intersection(center(heis), whole_group(abelian))


def test_subgroup_scans_match_tuple_oracles(corpus_groups):
    for gid, G in corpus_groups.items():
        C = collector(G)
        power = functools.cache(lambda x, C=C: C.pow(x, C.p))
        for sub in _named_subgroups(G):
            basis = tuple(G.vec(b) for b in sub.basis)
            assert basis == canonical_basis_by_scan(G, sub), (gid, sub)
            assert omega1(G, sub) == omega1_by_pow(G, sub, power), (gid, sub)
            assert _is_elementary_abelian(G, sub) == is_elementary_abelian_by_pairs(
                G, sub, power
            ), (gid, sub)
        for series in (upper_central_series(G), lower_central_series(G)[::-1]):
            for lower, upper in zip(series, series[1:]):
                assert quotient_is_cyclic(G, upper, lower) == quotient_is_cyclic_by_scan(
                    G, upper, lower, power
                ), (gid, upper, lower)


def test_basis_vanishes_at_the_other_pivots(corpus_groups, probe_5_7):
    """Each basis element has leading digit 1 at its own pivot and digit
    0 at every other pivot, on every series term."""
    for gid, G in dict(corpus_groups, probe_5_7=probe_5_7).items():
        for sub in upper_central_series(G) + lower_central_series(G):
            assert len(sub.pivots) == len(sub.basis) == sub.log_order, (gid, sub)
            for k, b in zip(sub.pivots, sub.basis):
                x = G.vec(b)
                assert x[:k] == (0,) * (k - 1) + (1,), (gid, sub, x)
                assert all(x[j - 1] == 0 for j in sub.pivots if j != k), (gid, sub, x)


def test_coset_min_table_properties(heis3):
    G = heis3
    C = collector(G)
    z = center(G)
    table = coset_min_table(G, z)
    assert len(set(int(t) for t in table)) == G.element_count // z.order
    for i in range(G.element_count):
        assert table[i] <= i
        # constant on the coset: x and xz share the minimum
        for zi in z.indices:
            j = G.idx(C.mul(G.vec(i), G.vec(int(zi))))
            assert table[j] == table[i]


def test_omega1_and_cyclic_quotients():
    c9 = PcGroup(PcPresentation(3, 2, powers={1: [(2, 1)]}))
    C = collector(c9)
    whole = whole_group(c9)
    om = omega1(c9, whole)
    assert om.order == 3
    assert all(C.pow(x, 3) == c9.identity for x in subgroup_tuples(c9, om))
    assert quotient_is_cyclic(c9, whole, trivial_subgroup(c9))
    assert not quotient_exponent_is_p(c9, trivial_subgroup(c9))
    assert quotient_exponent_is_p(c9, om)


def test_heisenberg_quotients(heis3):
    G = heis3
    z = center(G)
    assert not quotient_is_cyclic(G, whole_group(G), z)
    assert quotient_is_cyclic(G, z, trivial_subgroup(G))
    assert quotient_exponent_is_p(G, trivial_subgroup(G))  # exponent-3 group


def test_normal_closure_matches_closure_for_normal_seed(corpus_wreath):
    G = corpus_wreath
    derived = lower_central_series(G)[1]
    assert normal_closure(G, derived.basis) == derived
    assert is_normal(G, derived)


def test_nested_series_inclusions(corpus_heis_x_c3):
    G = corpus_heis_x_c3
    ucs = upper_central_series(G)
    for lower, upper in zip(ucs, ucs[1:]):
        assert lower < upper
    lcs = lower_central_series(G)
    for upper, lower in zip(lcs, lcs[1:]):
        assert lower < upper
    # gamma_2 <= Z_{c-1} for class-2 groups: derived inside the centre
    assert lcs[1] <= ucs[1]


SMALL_IDS = ["dihedral_8", "heisenberg_3", "heisenberg_5", "wreath_81", "heis_x_c3"]


def test_quotient_exponent_matches_tuple_power_scan(corpus_groups):
    for gid in SMALL_IDS:
        G = corpus_groups[gid]
        C = collector(G)
        powers = [G.idx(C.pow(x, G.p)) for x in elements(G)]
        assert power_table(G).tolist() == powers, gid
        subs = upper_central_series(G) + lower_central_series(G) + [frattini(G)]
        for sub in subs:
            members = as_set(sub)
            scan = all(i in members for i in powers)
            assert quotient_exponent_is_p(G, sub) == scan, (gid, sub)


def test_coset_min_table_matches_stacked_minimum(corpus_groups, probe_5_7):
    cases = [
        (gid, G, upper_central_series(G)[:-1] + [frattini(G)])
        for gid, G in corpus_groups.items()
    ]
    # the oracle makes one whole-group product per element, so on the
    # 5^7 probe it takes only Z and Z_2
    z1, z2 = upper_central_series(probe_5_7)[1:3]
    assert (z1.order, z2.order) == (25, 125)
    cases.append(("probe_5_7", probe_5_7, [z1, z2]))
    for gid, G, subs in cases:
        for sub in subs:
            expected = coset_min_table_by_elements(G, sub)
            assert np.array_equal(coset_min_table(G, sub), expected), (gid, sub)


def test_coset_min_table_memory_is_linear(corpus_groups):
    import tracemalloc

    G = corpus_groups["g2187_a"]
    phi = frattini(G)  # 243 elements
    expected = coset_min_table(G, phi)  # also builds the generator tables
    tracemalloc.start()
    try:
        table = coset_min_table(G, phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(table, expected)
    assert peak < 1_000_000, peak


def test_upper_central_series_mul_indices_budget(
    corpus_dir, manifest, probe_5_7_path, monkeypatch
):
    """The coset tables of the series fold the canonical basis, one
    permutation per basis element, so the array products per series
    grow with m, not with the order of its terms (3 917 on the probe
    and 371 on g2187_a with one product per element)."""
    from noninner.pcpfile import parse_pcp_file

    calls = {"mul_indices": 0}
    original = PcGroup.mul_indices

    def counted(self, a, b):
        calls["mul_indices"] += 1
        return original(self, a, b)

    monkeypatch.setattr(PcGroup, "mul_indices", counted)
    paths = [corpus_dir / entry["file"] for entry in manifest["groups"].values()]
    for path in sorted(paths) + [probe_5_7_path]:
        G = PcGroup(parse_pcp_file(path).presentation, validate=False)
        calls["mul_indices"] = 0
        upper_central_series(G)
        assert calls["mul_indices"] <= 10 * G.ngens, (path.name, calls)


def test_frattini_coords_are_a_homomorphism_with_kernel_phi(corpus_groups, probe_5_7):
    """Every x of a small group against every 20th y; on the larger
    groups 300 seeded pairs.  Products come from the tuple collector."""
    rng = np.random.default_rng(7)
    for gid, G in dict(corpus_groups, probe_5_7=probe_5_7).items():
        C = collector(G)
        phi = frattini(G)
        d = minimal_generator_count(G)
        assert G.p**d * phi.order == G.element_count, gid
        n = G.element_count
        coords = frattini_coords(G, np.arange(n))
        assert coords.shape == (n, d), gid
        assert np.array_equal(~coords.any(axis=1), phi.mask), gid
        if gid in SMALL_IDS:
            pairs = [(i, j) for i in range(n) for j in range(0, n, max(1, n // 20))]
        else:
            pairs = rng.integers(0, n, size=(300, 2)).tolist()
        for i, j in pairs:
            assert np.array_equal(frattini_coords(G, i), coords[i]), (gid, i)
            expected = (coords[i] + coords[j]) % G.p
            product = G.idx(C.mul(G.vec(i), G.vec(j)))
            assert np.array_equal(coords[product], expected), (gid, i, j)


def test_lower_central_series_matches_element_oracle(corpus_groups, probe_5_7):
    """The series from pivot commutators equals the one from the
    commutators of every element of each term with every generator."""
    cases = dict(corpus_groups, probe_5_7=probe_5_7)
    for gid, G in cases.items():
        assert lower_central_series(G) == lower_central_series_by_elements(G), gid


def test_center_and_centralizers_match_mult_perm_oracle(corpus_groups, probe_5_7):
    """Conjugation by the letters of each target against right == left
    multiplication, on the basis of every term of both series, of Phi
    and of Z(Phi)."""
    cases = dict(corpus_groups, probe_5_7=probe_5_7)
    for gid, G in cases.items():
        assert center(G) == centralizer_by_mult_perms(G, G.gen_indices), gid
        phi = frattini(G)
        subs = upper_central_series(G) + lower_central_series(G) + [phi, center_of(G, phi)]
        for sub in subs:
            expected = centralizer_by_mult_perms(G, sub.basis)
            assert centralizer(G, sub.basis) == expected, (gid, sub)


def test_lower_central_series_mul_indices_budget(
    corpus_dir, manifest, probe_5_7_path, monkeypatch
):
    """With the tables built, each step multiplies only the m * r pivot
    commutators and the closure permutations, so the series passes at
    most 2 * m * |G| elements through `mul_indices` (about 17 * |G| on
    g2187_a and on the probe with every element of each term
    commutated)."""
    from noninner.pcpfile import parse_pcp_file

    passed = {"elements": 0}
    original = PcGroup.mul_indices

    def counted(self, a, b):
        out = original(self, a, b)
        passed["elements"] += out.size
        return out

    monkeypatch.setattr(PcGroup, "mul_indices", counted)
    paths = [corpus_dir / entry["file"] for entry in manifest["groups"].values()]
    for path in sorted(paths) + [probe_5_7_path]:
        G = PcGroup(parse_pcp_file(path).presentation, validate=False)
        G.inv_table()
        _conj_gen_perms(G)
        passed["elements"] = 0
        lower_central_series(G)
        budget = 2 * G.ngens * G.element_count
        assert passed["elements"] <= budget, (path.name, passed, budget)


def test_class_derived_and_frattini_agree_with_the_lower_series(corpus_groups, probe_5_7):
    """The class read from the upper central series, G' and Phi as normal
    closures of relation words agree with the element-by-element lower
    central series and with Phi as G' joined with the power words, on
    every corpus group, the probe, and the consistent presentations
    within the element bound among 400 seeded random ones."""
    groups = dict(corpus_groups, probe_5_7=probe_5_7, **_random_consistent_groups())
    assert len(groups) >= 200
    for gid, G in groups.items():
        oracle = lower_central_series_by_elements(G)
        assert nilpotency_class(G) == len(oracle) - 1, gid
        assert derived_subgroup(G) == oracle[1], gid
        assert frattini(G) == frattini_by_derived_series(G), gid
        assert nilpotency_class(G) == len(lower_central_series(G)) - 1, gid
        assert derived_subgroup(G) == lower_central_series(G)[1], gid


def _random_consistent_groups() -> dict[str, PcGroup]:
    """The consistent presentations within the element bound among 400
    seeded random ones, as fresh groups."""
    import random

    rng = random.Random(31)
    groups = {}
    for n in range(400):
        G = PcGroup(random_presentation(rng), validate=False)
        if G.element_count <= G.element_bound and G.consistency_witness() is None:
            groups[f"random_{n}"] = G
    return groups


def _fresh_groups(corpus_groups, probe_5_7) -> dict[str, PcGroup]:
    """The corpus, the probe and the random consistent groups, each with
    nothing cached yet."""
    groups = {
        gid: PcGroup(G.pres, validate=False)
        for gid, G in dict(corpus_groups, probe_5_7=probe_5_7).items()
    }
    return dict(groups, **_random_consistent_groups())


# presentations at the edges of the row reduction of G/Phi, with d(G)
EDGE_CASES = {
    # no relation word: Phi = 1, no row, and d = m
    "elementary_3_4": (PcPresentation(3, 4), 4),
    "elementary_2_3": (PcPresentation(2, 3), 3),
    # cyclic of order 5^4: g_k^5 = g_(k+1)
    "cyclic_5_4": (PcPresentation(5, 4, powers={1: [(2, 1)], 2: [(3, 1)], 3: [(4, 1)]}), 1),
    # g2^3 = g3^3 = g4 repeat a row, and the row of g1^3 = g2 g3 g4 is 0
    # at the deeper pivot 4 only after the back-substitution
    "abelian_3_4": (
        PcPresentation(3, 4, powers={1: [(2, 1), (3, 1), (4, 1)], 2: [(4, 1)], 3: [(4, 1)]}),
        2,
    ),
    # quaternion: the three words g1^2 = g2^2 = [g2, g1] = g3 agree
    "quaternion_8": (PcPresentation(2, 3, {1: [(3, 1)], 2: [(3, 1)]}, {(2, 1): [(3, 1)]}), 2),
}


def _basis_cases(corpus_groups, probe_5_7) -> dict[str, PcGroup]:
    """`_fresh_groups` with the coclass-3 fixture, the wide presentations
    at p in {2, 5, 7, 11, 43, 313} and the `EDGE_CASES`."""
    from noninner.pcpfile import parse_pcp_file
    from test_pcgroup import WIDE, wide_group

    path = Path(__file__).resolve().parent / "data" / "jordan_5_4_2.pcp"
    groups = _fresh_groups(corpus_groups, probe_5_7)
    groups["jordan_5_4_2"] = PcGroup(parse_pcp_file(path).presentation)
    groups.update({gid: PcGroup(wide_group(gid).pres, validate=False) for gid in WIDE})
    groups.update({gid: PcGroup(pres) for gid, (pres, _) in EDGE_CASES.items()})
    return groups


def test_burnside_basis_is_a_minimal_generating_set(corpus_groups, probe_5_7):
    """The basis read from the relation words has d(G) generators, off
    Phi's pivots, and they generate G, by the rank modulo Phi and by
    building the closure."""
    from noninner.maps import generates

    for gid, G in _basis_cases(corpus_groups, probe_5_7).items():
        basis = burnside_basis(G)
        assert len(basis) == minimal_generator_count(G), gid
        assert basis == tuple(k for k in range(1, G.ngens + 1) if k not in frattini(G).pivots), gid
        gens = G.gen_indices[[k - 1 for k in basis]]
        assert generates(G, gens), gid
        assert closure(G, gens).order == G.element_count, gid


def test_passes_over_the_basis_match_all_generators_and_oracles(corpus_groups, probe_5_7):
    """The upper and lower central series, G', Phi and normality, with
    conjugation by the basis generators only, equal the same passes over
    all m generators (the upper series and the normal closures) and the
    element-by-element oracles."""
    verdicts = set()
    for gid, G in _basis_cases(corpus_groups, probe_5_7).items():
        every = _conj_gen_perms(G)
        power, comm = G.relation_indices
        words = [c for row in comm for c in row if c]
        assert upper_central_series(G) == upper_central_series_by_terms(G)[0], gid
        lower = lower_central_series_by_elements(G)
        assert lower_central_series(G) == lower, gid
        assert derived_subgroup(G) == closure(G, words, every) == lower[1], gid
        phi = closure(G, words + [c for c in power if c], every)
        assert frattini(G) == phi == frattini_by_derived_series(G), gid
        subs = lower + upper_central_series(G) + [phi]
        subs += [closure(G, [g]) for g in G.gen_indices.tolist()]
        for sub in subs:
            expected = all(sub.mask[perm[sub.indices]].all() for perm in every)
            assert is_normal(G, sub) == expected, (gid, sub)
            verdicts.add(expected)
    assert verdicts == {True, False}


def test_upper_central_series_running_tables_match_per_term_oracle(
    corpus_groups, probe_5_7, monkeypatch
):
    """The series folded term on term equals the one with a fresh coset
    table per term, and after each term's fold the running table is that
    term's coset-minimum table."""
    import noninner.structure as structure

    folds = []
    original = structure._fold_basis

    def recording(group, table, elements):
        out = original(group, table, elements)
        folds.append(out)
        return out

    monkeypatch.setattr(structure, "_fold_basis", recording)
    for gid, G in _fresh_groups(corpus_groups, probe_5_7).items():
        folds.clear()
        series = upper_central_series(G)
        running = list(folds)
        expected_series, expected_tables = upper_central_series_by_terms(G)
        assert series == expected_series, gid
        assert len(running) == len(series) - 2, gid
        for term, table, expected in zip(series[1:], running, expected_tables[1:]):
            assert np.array_equal(table, expected), (gid, term)
            assert np.array_equal(table, coset_min_table(G, term)), (gid, term)


def test_upper_central_series_folds_each_pivot_once(
    corpus_dir, manifest, probe_5_7_path, monkeypatch
):
    """With the conjugation permutations built, the series makes one
    right-multiplication permutation per pivot of Z_(c-1): 5 on the
    eligible 3^7 groups, where a fresh table per term made 13."""
    from noninner.pcpfile import parse_pcp_file

    calls = {"right_mult_perm": 0}
    original = PcGroup.right_mult_perm

    def counted(self, y):
        calls["right_mult_perm"] += 1
        return original(self, y)

    monkeypatch.setattr(PcGroup, "right_mult_perm", counted)
    paths = [corpus_dir / entry["file"] for entry in manifest["groups"].values()]
    for path in sorted(paths) + [probe_5_7_path]:
        G = PcGroup(parse_pcp_file(path).presentation, validate=False)
        _conj_gen_perms(G)
        calls["right_mult_perm"] = 0
        series = upper_central_series(G)
        assert calls["right_mult_perm"] == series[-2].log_order, path.name
        if path.stem in ("g2187_a", "g2187_b", "g2187_c", "g2187_d"):
            assert calls["right_mult_perm"] == 5, path.name


def test_generator_conjugations_read_the_built_tables(
    corpus_dir, manifest, probe_5_7_path, monkeypatch
):
    """With the generator and inverse tables built, the conjugation
    permutations are gathers through them: no `mul_indices` and no
    `right_mult_perm` call, where conjugating through a right
    multiplication by g_k made m of each.  They equal the oracle
    `conj_perm` on every element and the collector's conjugation on a
    seeded sample."""
    import random

    from noninner.pcpfile import parse_pcp_file

    calls = {"mul_indices": 0, "right_mult_perm": 0}

    def counting(name):
        original = getattr(PcGroup, name)

        def counted(self, *args):
            calls[name] += 1
            return original(self, *args)

        return counted

    for name in calls:
        monkeypatch.setattr(PcGroup, name, counting(name))
    rng = random.Random(23)
    paths = [corpus_dir / entry["file"] for entry in manifest["groups"].values()]
    for path in sorted(paths) + [probe_5_7_path]:
        G = PcGroup(parse_pcp_file(path).presentation, validate=False)
        G._tables()
        G.inv_table()
        calls.update(mul_indices=0, right_mult_perm=0)
        perms = _conj_gen_perms(G)
        assert calls == {"mul_indices": 0, "right_mult_perm": 0}, (path.name, calls)
        C = collector(G)
        sample = rng.sample(range(G.element_count), min(G.element_count, 20))
        for k, (g, perm) in enumerate(zip(G.gen_indices.tolist(), perms), 1):
            assert np.array_equal(perm, conj_perm(G, g)), (path.name, k)
            for x in sample:
                expected = G.idx(C.conj(G.vec(x), G.vec(g)))
                assert int(perm[x]) == expected, (path.name, k, x)


def _check_frattini_rows(gid: str, G: PcGroup) -> None:
    """Phi equals `frattini_by_derived_series`, the generator images in
    G/Phi equal `quotient_gen_coords_by_products` on it, and the reduced
    rows and the Burnside basis equal `row_echelon_by_rows` of the
    relation words' exponent vectors and the columns it leaves free."""
    basis, reduced, images = _frattini_rows(G)
    phi = frattini_by_derived_series(G)
    assert frattini(G) == phi, gid
    assert minimal_generator_count(G) == G.ngens - phi.log_order, gid
    assert np.array_equal(images, quotient_gen_coords_by_products(G, phi)), gid
    power, comm = G.relation_indices
    words = [w for w in power + [c for row in comm for c in row] if w]
    digits = np.array(words, dtype=np.int64).reshape(-1, 1) // G.gen_indices % G.p
    echelon, pivots = row_echelon_by_rows(digits.reshape(-1, G.ngens), G.p)
    assert np.array_equal(reduced, echelon[: len(pivots)]), gid
    assert basis == tuple(k for k in range(1, G.ngens + 1) if k - 1 not in pivots), gid


def test_quotient_coords_match_reduction_by_products(corpus_groups, probe_5_7):
    """On `_basis_cases`, G/Phi from the relation words agrees with Phi
    from the lower central series and the reduction by masked products
    (`_check_frattini_rows`), and the edge cases have the expected d."""
    groups = _basis_cases(corpus_groups, probe_5_7)
    for gid, G in groups.items():
        _check_frattini_rows(gid, G)
    for gid, (_, d) in EDGE_CASES.items():
        assert minimal_generator_count(groups[gid]) == d, gid


def test_frattini_coords_take_no_products(corpus_groups, probe_5_7, monkeypatch):
    """Phi, d(G), the Burnside basis and the Frattini coordinates come
    from the relation words alone: on fresh groups they make no
    `mul_indices` call (Phi as a normal closure took products over |G|)
    and build no generator table, inverse table or conjugation
    permutation.  So they need no table within the element bound: on the
    Heisenberg group mod 10 007 (order about 10^12) they give Phi of
    order 10 007 and d = 2."""
    calls = {"mul_indices": 0}
    original = PcGroup.mul_indices

    def counted(self, a, b):
        calls["mul_indices"] += 1
        return original(self, a, b)

    monkeypatch.setattr(PcGroup, "mul_indices", counted)
    heis = PcPresentation(10_007, 3, commutators={(2, 1): [(3, 1)]})
    groups = {gid: G.pres for gid, G in dict(corpus_groups, probe_5_7=probe_5_7).items()}
    for gid, pres in dict(groups, heisenberg_10007=heis).items():
        G = PcGroup(pres, validate=False)
        phi = frattini(G)
        d = minimal_generator_count(G)
        assert len(burnside_basis(G)) == d, gid
        coords = frattini_coords(G, phi.indices)
        assert coords.shape == (phi.order, d) and not coords.any(), gid
        assert calls["mul_indices"] == 0, gid
        assert G._ladder is None and not G._rtables, gid
        assert set(G._cache) == {_frattini_rows.__wrapped__, frattini.__wrapped__}, gid
    assert (phi.order, d) == (10_007, 2)
    assert frattini_coords(G, G.gen_indices).tolist() == [[1, 0], [0, 1], [0, 0]]
    # cyclic of order 3^12: d = 1, but Phi has 3^11 elements, past the bound
    G = PcGroup(PcPresentation(3, 12, powers={k: [(k + 1, 1)] for k in range(1, 12)}))
    assert minimal_generator_count(G) == 1
    with pytest.raises(OrderBoundError, match="element bound"):
        frattini(G)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_last_letter_levels_partition_the_nonidentity_elements(p):
    """Every y != 1 lies in exactly one level, the one of its last nonzero
    coordinate k and its value, with parent y - s_k in an earlier level or
    the identity."""
    G = PcGroup(PcPresentation(p, 4))
    idx = np.arange(G.element_count)
    level_of = np.full(G.element_count, -1)
    level_of[0] = 0
    for n, (k, ys, parents) in enumerate(G._last_letter_levels(), start=1):
        ys, parents = idx[ys], idx[parents]
        s = G._stride(k)
        values = np.unique((ys // s) % p)
        assert (ys % s == 0).all() and values.size == 1 and values[0] > 0, (k, n)
        assert ys.size == p ** (k - 1), (k, n)
        assert (level_of[ys] == -1).all(), (k, n)
        assert np.array_equal(parents, ys - s), (k, n)
        assert (level_of[parents] >= 0).all(), (k, n)
        level_of[ys] = n
    assert (level_of[1:] > 0).all()
