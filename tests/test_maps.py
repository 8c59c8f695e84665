"""Generator-image maps: verification, composition, innerness."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noninner.maps import (
    GroupMap,
    _conj_columns,
    compose,
    find_conjugating_element,
    fixes_elementwise,
    generates,
    inner_search_size,
    is_central_map,
    map_order,
    verify_automorphism,
)
from noninner.pcgroup import PcGroup
from noninner.structure import (
    _conj_gen_perms,
    burnside_basis,
    center,
    closure,
    trivial_subgroup,
    whole_group,
)
from util_oracles import (
    apply_by_collector,
    collect,
    collector,
    conj_columns_by_products,
    identity_map,
    image_tuples,
    inner_map,
    verify_automorphism_by_collector,
)


def test_generates_agrees_with_closure(corpus_groups):
    """Generation modulo Phi (Burnside's basis theorem) gives the same
    verdict as building the subgroup, on 200 seeded pairs and 200
    seeded triples of element indices per corpus group."""
    rng = np.random.default_rng(41)
    for gid, G in corpus_groups.items():
        verdicts = set()
        for size in (2, 3):
            for seeds in rng.integers(0, G.element_count, (200, size)):
                expected = closure(G, seeds).order == G.element_count
                assert generates(G, seeds) == expected, (gid, seeds)
                verdicts.add(expected)
        assert verdicts == {True, False}, gid


def test_groupmap_requires_full_image_list(heis3):
    with pytest.raises(ValueError, match="generator images"):
        GroupMap(heis3, [0])


def test_identity_map(heis3):
    f = identity_map(heis3)
    assert f.is_identity()
    assert verify_automorphism(f) is None
    assert map_order(f) == 1
    assert is_central_map(f)
    assert fixes_elementwise(f, whole_group(heis3))
    witness = find_conjugating_element(f)
    assert witness is not None  # conjugation by any central element
    assert center(heis3).mask[witness]


def test_apply_agrees_with_table(heis3):
    C = collector(heis3)
    g = (1, 2, 0)
    f = inner_map(heis3, g)
    table = f.apply_table()
    for i in range(heis3.element_count):
        x = heis3.vec(i)
        assert heis3.idx(apply_by_collector(f, x)) == int(table[i])
        assert apply_by_collector(f, x) == C.conj(x, g)


def test_inner_maps_are_automorphisms(heis3):
    for g in ((1, 0, 0), (0, 1, 0), (1, 2, 1)):
        f = inner_map(heis3, g)
        assert verify_automorphism(f) is None
        assert closure(heis3, f.image_indices).order == heis3.element_count
        # conjugation by a noncentral element of a class-2 exponent-3
        # group has order 3
        assert map_order(f) == 3
        # in a class-2 group commutators are central, so every inner
        # map is a central map
        assert is_central_map(f)
        witness = find_conjugating_element(f)
        assert witness is not None
        # any witness conjugates the same way g does
        assert np.array_equal(
            inner_map(heis3, heis3.vec(witness)).image_indices, f.image_indices
        )


def test_inner_by_central_is_identity(heis3):
    z = center(heis3)
    for zi in z.indices:
        f = inner_map(heis3, heis3.vec(int(zi)))
        assert f.is_identity()


def test_compose_and_order(heis3):
    C = collector(heis3)
    f = inner_map(heis3, C.generator(1))
    g = inner_map(heis3, C.generator(2))
    fg = compose(f, g)
    for i in (0, 5, 13, 26):
        x = heis3.vec(i)
        assert apply_by_collector(fg, x) == apply_by_collector(g, apply_by_collector(f, x))
    # conjugation composes to conjugation by the product
    assert image_tuples(fg) == image_tuples(
        inner_map(heis3, C.mul(C.generator(1), C.generator(2)))
    )


def test_compose_rejects_mismatched_groups(heis3, heis5):
    with pytest.raises(ValueError, match="different groups"):
        compose(identity_map(heis3), identity_map(heis5))


def test_verify_rejects_relation_breakers(heis3):
    # squaring the central image breaks [g2, g1] = g3
    f = GroupMap(heis3, [*heis3.gen_indices[:2], heis3.idx((0, 0, 2))])
    reason = verify_automorphism(f)
    assert reason is not None and "commutator relation" in reason

    # collapsing everything to the identity is a homomorphism on the
    # relations but not surjective
    g = GroupMap(heis3, [0] * 3)
    reason = verify_automorphism(g)
    assert reason is not None and "generate" in reason


def test_verify_rejects_power_breakers():
    from noninner.pcgroup import PcGroup, PcPresentation

    c9 = PcGroup(PcPresentation(3, 2, powers={1: [(2, 1)]}))
    # g1 -> g1, g2 -> g2^2 breaks g1^3 = g2
    f = GroupMap(c9, [c9.gen_indices[0], c9.idx((0, 2))])
    reason = verify_automorphism(f)
    assert reason is not None and "power relation" in reason


def test_map_order_bound(monkeypatch):
    import noninner.maps as maps
    from noninner.errors import CertificationError
    from noninner.pcgroup import PcGroup, PcPresentation

    c9 = PcGroup(PcPresentation(3, 2, powers={1: [(2, 1)]}))
    f = GroupMap(c9, [c9.idx(collect(c9, [(1, 1), (2, 1)])), c9.gen_indices[1]])
    assert verify_automorphism(f) is None
    assert map_order(f) == 3
    monkeypatch.setattr(maps, "ORDER_BOUND", 2)
    with pytest.raises(CertificationError, match="order exceeds bound 2"):
        map_order(f)


def test_inner_search_size(heis3, corpus_wreath):
    assert inner_search_size(heis3) == 27 // 3
    assert inner_search_size(corpus_wreath) == 81 // 3


def test_fixes_elementwise(heis3):
    f = inner_map(heis3, collector(heis3).generator(1))
    assert fixes_elementwise(f, trivial_subgroup(heis3))
    assert fixes_elementwise(f, center(heis3))
    assert not fixes_elementwise(f, whole_group(heis3))


def test_central_shift_recognized_as_inner(heis3):
    C = collector(heis3)
    # g1 -> g1 z, g2 -> g2 is a central map; in Heisenberg it happens to
    # be conjugation by g2^2, and the exhaustive search finds a witness.
    z = C.generator(3)
    g = GroupMap(heis3, [heis3.idx(C.mul(C.generator(1), z)), heis3.gen_indices[1], 1])
    assert verify_automorphism(g) is None
    assert is_central_map(g)
    witness = find_conjugating_element(g)
    assert witness is not None
    assert np.array_equal(inner_map(heis3, heis3.vec(witness)).image_indices, g.image_indices)
    assert C.pow(C.generator(2), 2) in (
        C.mul(heis3.vec(witness), heis3.vec(int(i))) for i in center(heis3).indices
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 80), st.integers(0, 80))
def test_inner_map_is_homomorphism_random(corpus_wreath, i, j):
    G = corpus_wreath
    C = collector(G)
    f = inner_map(G, G.vec(17))
    x, y = G.vec(i), G.vec(j)
    assert apply_by_collector(f, C.mul(x, y)) == C.mul(
        apply_by_collector(f, x), apply_by_collector(f, y)
    )


def test_verify_automorphism_matches_collector_on_lifts_and_mutations(eligible_groups):
    """Both lifts of each eligible group, and every map that changes one
    exponent of one of their images (8 + 8 * 7 * 7 * 2 = 792 maps), get
    the same verdict and reason from the table check as from the
    collector."""
    from noninner.cocycles import (
        derivation_from_a_exponent,
        derivation_from_b_exponent,
        lift_to_automorphism,
    )
    from noninner.eligibility import select_generators

    verdicts = []
    for gid, G in sorted(eligible_groups.items()):
        ctx = select_generators(G)
        for build in (derivation_from_b_exponent, derivation_from_a_exponent):
            lift = lift_to_automorphism(build(ctx))
            candidates = [lift.image_indices]
            for k, image in enumerate(image_tuples(lift)):
                for c in range(G.ngens):
                    for e in range(G.p):
                        if e != image[c]:
                            changed = image[:c] + (e,) + image[c + 1 :]
                            rows = lift.image_indices.copy()
                            rows[k] = G.idx(changed)
                            candidates.append(rows)
            for rows in candidates:
                f = GroupMap(G, rows)
                reason = verify_automorphism(f)
                assert reason == verify_automorphism_by_collector(f), (gid, rows)
                verdicts.append(reason)
    assert len(verdicts) == 792
    kinds = {reason.split(" ")[0] if reason else None for reason in verdicts}
    # a single changed exponent never leaves the relations intact while
    # losing generation, so the permutation rule's reason is tested on
    # central tails (test_verify_automorphism_matches_collector_on_central_tails)
    assert kinds == {None, "power", "commutator"}, kinds


def test_conj_columns_match_product_oracle(corpus_groups, probe_5_7):
    """The columns are kept for the basis generators only, so they are
    the oracle's rows of those generators."""
    cases = dict(corpus_groups, probe_5_7=probe_5_7)
    for gid, G in cases.items():
        rows = [k - 1 for k in burnside_basis(G)]
        assert np.array_equal(_conj_columns(G), conj_columns_by_products(G)[rows]), gid


def test_inner_search_is_the_least_witness_over_all_generators(corpus_groups, probe_5_7):
    """`find_conjugating_element` equals the least g whose conjugation
    agrees with the map on all m generators, read from the oracle's m
    columns: on every certificate map (both lifts of each ELIGIBLE
    group), on conjugations by seeded elements (inner, with a witness in
    each element of a center coset), and on those conjugations changed at
    one generator off the basis, which agree with them on the basis
    generators.  Every corpus group, and a seeded sample at the probe."""
    from noninner.cocycles import (
        derivation_from_a_exponent,
        derivation_from_b_exponent,
        lift_to_automorphism,
    )
    from noninner.eligibility import Route, decide_route, select_generators

    rng = np.random.default_rng(28)
    answers, witness_counts = set(), set()
    for gid, G in dict(corpus_groups, probe_5_7=probe_5_7).items():
        cols = conj_columns_by_products(G)
        n, maps = G.element_count, []
        if decide_route(G).route is Route.ELIGIBLE:
            ctx = select_generators(G)
            for build in (derivation_from_b_exponent, derivation_from_a_exponent):
                maps.append(lift_to_automorphism(build(ctx)).image_indices)
        basis = [k - 1 for k in burnside_basis(G)]
        off_basis = [k for k in range(G.ngens) if k not in basis]
        for g in rng.integers(0, n, 8 if gid == "probe_5_7" else 20).tolist():
            maps.append(cols[:, g])
            if off_basis:
                changed = cols[:, g].copy()
                k = off_basis[rng.integers(len(off_basis))]
                changed[k] = (changed[k] + rng.integers(1, n)) % n
                maps.append(changed)
        for images in maps:
            hits = np.nonzero((cols == images[:, None]).all(axis=0))[0]
            expected = int(hits[0]) if hits.size else None
            assert find_conjugating_element(GroupMap(G, images)) == expected, (gid, images)
            answers.add(expected is None)
            witness_counts.add(min(hits.size, 2))
    assert answers == {True, False}
    assert witness_counts == {0, 2}


def test_conj_columns_make_no_array_products(corpus_groups, monkeypatch):
    """The columns are gathers through the conjugation permutations, so
    once those are cached no `mul_indices` call is left (14 on a 3^7
    group when each column was one whole-group product)."""
    calls = {"mul_indices": 0}
    original = PcGroup.mul_indices

    def counted(self, a, b):
        calls["mul_indices"] += 1
        return original(self, a, b)

    monkeypatch.setattr(PcGroup, "mul_indices", counted)
    for gid, G in corpus_groups.items():
        G = PcGroup(G.pres, validate=False)
        _conj_gen_perms(G)
        calls["mul_indices"] = 0
        _conj_columns(G)
        assert calls["mul_indices"] == 0, (gid, calls)
