"""Generator-image maps: verification, composition, innerness."""

import pytest
from hypothesis import given, settings, strategies as st

from noninner.maps import (
    GroupMap,
    compose,
    find_conjugating_element,
    fixes_elementwise,
    inner_search_size,
    is_central_map,
    map_order,
    verify_automorphism,
)
from noninner.structure import center, closure, trivial_subgroup, whole_group
from util_oracles import identity_map, inner_map


def test_groupmap_requires_full_image_list(heis3):
    with pytest.raises(ValueError, match="generator images"):
        GroupMap(heis3, [heis3.identity])


def test_identity_map(heis3):
    f = identity_map(heis3)
    assert f.is_identity()
    assert verify_automorphism(f) is None
    assert map_order(f) == 1
    assert is_central_map(f)
    assert fixes_elementwise(f, whole_group(heis3))
    witness = find_conjugating_element(f)
    assert witness is not None  # conjugation by any central element
    assert witness in center(heis3)


def test_apply_agrees_with_table(heis3):
    g = (1, 2, 0)
    f = inner_map(heis3, g)
    table = f.apply_table()
    for i in range(heis3.element_count):
        x = heis3.vec(i)
        assert heis3.idx(f.apply(x)) == int(table[i])
        assert f.apply(x) == heis3.conj(x, g)


def test_inner_maps_are_automorphisms(heis3):
    for g in ((1, 0, 0), (0, 1, 0), (1, 2, 1)):
        f = inner_map(heis3, g)
        assert verify_automorphism(f) is None
        assert closure(heis3, [heis3.idx(x) for x in f.images]).order == heis3.element_count
        # conjugation by a noncentral element of a class-2 exponent-3
        # group has order 3
        assert map_order(f) == 3
        # in a class-2 group commutators are central, so every inner
        # map is a central map
        assert is_central_map(f)
        witness = find_conjugating_element(f)
        assert witness is not None
        # any witness conjugates the same way g does
        assert inner_map(heis3, witness).images == f.images


def test_inner_by_central_is_identity(heis3):
    z = center(heis3)
    for zi in z.indices:
        f = inner_map(heis3, heis3.vec(int(zi)))
        assert f.is_identity()


def test_compose_and_order(heis3):
    f = inner_map(heis3, heis3.generator(1))
    g = inner_map(heis3, heis3.generator(2))
    fg = compose(f, g)
    for i in (0, 5, 13, 26):
        x = heis3.vec(i)
        assert fg.apply(x) == g.apply(f.apply(x))
    # conjugation composes to conjugation by the product
    assert fg.images == inner_map(
        heis3, heis3.mul(heis3.generator(1), heis3.generator(2))
    ).images


def test_compose_rejects_mismatched_groups(heis3, heis5):
    with pytest.raises(ValueError, match="different groups"):
        compose(identity_map(heis3), identity_map(heis5))


def test_verify_rejects_relation_breakers(heis3):
    # squaring the central image breaks [g2, g1] = g3
    f = GroupMap(
        heis3,
        [heis3.generator(1), heis3.generator(2), (0, 0, 2)],
    )
    reason = verify_automorphism(f)
    assert reason is not None and "commutator relation" in reason

    # collapsing everything to the identity is a homomorphism on the
    # relations but not surjective
    g = GroupMap(heis3, [heis3.identity] * 3)
    reason = verify_automorphism(g)
    assert reason is not None and "generate" in reason


def test_verify_rejects_power_breakers():
    from noninner.pcgroup import PcGroup, PcPresentation

    c9 = PcGroup(PcPresentation(3, 2, powers={1: [(2, 1)]}))
    # g1 -> g1, g2 -> g2^2 breaks g1^3 = g2
    f = GroupMap(c9, [c9.generator(1), (0, 2)])
    reason = verify_automorphism(f)
    assert reason is not None and "power relation" in reason


def test_map_order_bound():
    from noninner.pcgroup import PcGroup, PcPresentation

    c9 = PcGroup(PcPresentation(3, 2, powers={1: [(2, 1)]}))
    f = GroupMap(c9, [c9.collect([(1, 1), (2, 1)]), c9.generator(2)])
    assert verify_automorphism(f) is None
    with pytest.raises(RuntimeError, match="order exceeds"):
        map_order(f, bound=2)


def test_inner_search_size(heis3, corpus_wreath):
    assert inner_search_size(heis3) == 27 // 3
    assert inner_search_size(corpus_wreath) == 81 // 3


def test_fixes_elementwise(heis3):
    f = inner_map(heis3, heis3.generator(1))
    assert fixes_elementwise(f, trivial_subgroup(heis3))
    assert fixes_elementwise(f, center(heis3))
    assert not fixes_elementwise(f, whole_group(heis3))


def test_central_shift_recognized_as_inner(heis3):
    # g1 -> g1 z, g2 -> g2 is a central map; in Heisenberg it happens to
    # be conjugation by g2^2, and the exhaustive search finds a witness.
    z = heis3.generator(3)
    g = GroupMap(
        heis3,
        [heis3.mul(heis3.generator(1), z), heis3.generator(2), heis3.generator(3)],
    )
    assert verify_automorphism(g) is None
    assert is_central_map(g)
    witness = find_conjugating_element(g)
    assert witness is not None
    assert inner_map(heis3, witness).images == g.images
    assert heis3.pow(heis3.generator(2), 2) in (
        heis3.mul(witness, heis3.vec(int(i))) for i in center(heis3).indices
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 80), st.integers(0, 80))
def test_inner_map_is_homomorphism_random(corpus_wreath, i, j):
    G = corpus_wreath
    f = inner_map(G, G.vec(17))
    x, y = G.vec(i), G.vec(j)
    assert f.apply(G.mul(x, y)) == G.mul(f.apply(x), f.apply(y))
