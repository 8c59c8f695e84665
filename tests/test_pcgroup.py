"""Collection engine: presentation validation, group laws, consistency."""

import pytest
from hypothesis import given, settings, strategies as st

from noninner.errors import InconsistentPresentationError, PresentationError
from noninner.pcgroup import PcGroup, PcPresentation
from util_oracles import inv_table_by_products, rtables_by_masked_passes

HEIS = PcPresentation(3, 3, commutators={(2, 1): [(3, 1)]})

# g1^3 = g2 and g2^3 = g3 force g2 into <g1>, so [g2, g1] = g3 collapses
# the group to order 9 < 27: inconsistent by construction.
COLLAPSING = dict(
    p=3,
    ngens=3,
    powers={1: [(2, 1)], 2: [(3, 1)]},
    commutators={(2, 1): [(3, 1)]},
)


# ---------------------------------------------------------------------------
# presentation validation


def test_presentation_rejects_nonprime_p():
    with pytest.raises(PresentationError, match="prime"):
        PcPresentation(4, 2)
    with pytest.raises(PresentationError, match="prime"):
        PcPresentation(1, 2)


def test_presentation_rejects_bad_ngens():
    with pytest.raises(PresentationError, match="ngens"):
        PcPresentation(3, 0)


def test_presentation_rejects_exponent_out_of_range():
    with pytest.raises(PresentationError, match="exponent"):
        PcPresentation(3, 3, commutators={(2, 1): [(3, 3)]})
    with pytest.raises(PresentationError, match="exponent"):
        PcPresentation(3, 3, commutators={(2, 1): [(3, 0)]})


def test_presentation_rejects_descending_word():
    with pytest.raises(PresentationError, match="ascending"):
        PcPresentation(3, 5, powers={1: [(4, 1), (3, 1)]})


def test_presentation_rejects_word_below_floor():
    # a power word for g_i may only use indices above i
    with pytest.raises(PresentationError, match="index"):
        PcPresentation(3, 3, powers={2: [(2, 1)]})
    # a commutator word for [g_j, g_i] may only use indices above j
    with pytest.raises(PresentationError, match="index"):
        PcPresentation(3, 3, commutators={(3, 1): [(2, 1)]})


def test_presentation_rejects_bad_commutator_key():
    with pytest.raises(PresentationError, match="j > i"):
        PcPresentation(3, 3, commutators={(1, 2): [(3, 1)]})
    with pytest.raises(PresentationError, match="j > i"):
        PcPresentation(3, 3, commutators={(2, 2): [(3, 1)]})


def test_presentation_drops_trivial_words_and_compares_canonically():
    a = PcPresentation(3, 3, powers={1: []}, commutators={(2, 1): [(3, 1)]})
    assert a == HEIS
    assert hash(a) == hash(HEIS)
    assert a.order == 27
    assert a.power(1) == ()
    assert a.commutator(2, 1) == ((3, 1),)


# ---------------------------------------------------------------------------
# consistency


def test_heisenberg_is_consistent():
    group = PcGroup(HEIS)
    assert group.consistency_witness() is None
    assert group.element_count == 27


def test_collapsing_presentation_raises_with_witness():
    pres = PcPresentation(
        COLLAPSING["p"],
        COLLAPSING["ngens"],
        powers=COLLAPSING["powers"],
        commutators=COLLAPSING["commutators"],
    )
    with pytest.raises(InconsistentPresentationError) as exc:
        PcGroup(pres)
    witness = exc.value.witness
    assert witness is not None
    assert witness.lhs != witness.rhs
    assert witness.kind in {"assoc", "power_left", "power_right", "power_self"}
    assert witness.describe() in str(exc.value)
    # validate=False defers the check
    group = PcGroup(pres, validate=False)
    assert group.consistency_witness() is not None


def test_cyclic_27_chain_is_consistent():
    pres = PcPresentation(3, 3, powers={1: [(2, 1)], 2: [(3, 1)]})
    group = PcGroup(pres)
    g1 = group.generator(1)
    assert group.order_of(g1) == 27
    assert group.pow(g1, 3) == group.generator(2)
    assert group.pow(g1, 9) == group.generator(3)


# ---------------------------------------------------------------------------
# group laws on small groups


@pytest.fixture(scope="module")
def heis():
    return PcGroup(HEIS)


def test_identity_and_generators(heis):
    assert heis.identity == (0, 0, 0)
    assert heis.generator(2) == (0, 1, 0)
    assert heis.gens == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    with pytest.raises(ValueError):
        heis.generator(4)
    with pytest.raises(ValueError):
        heis.generator(0)


def test_defining_relation_holds(heis):
    g1, g2 = heis.generator(1), heis.generator(2)
    assert heis.comm(g2, g1) == heis.generator(3)


def test_full_group_laws_exhaustive(heis):
    els = list(heis.elements())
    assert len(els) == 27
    e = heis.identity
    for x in els:
        assert heis.mul(x, e) == x == heis.mul(e, x)
        ix = heis.inv(x)
        assert heis.mul(x, ix) == e == heis.mul(ix, x)
    # associativity on all 27^3 triples
    for x in els:
        for y in els:
            xy = heis.mul(x, y)
            for z in els:
                assert heis.mul(xy, z) == heis.mul(x, heis.mul(y, z))


def test_exponent_three(heis):
    for x in heis.elements():
        assert heis.pow(x, 3) == heis.identity
        assert heis.order_of(x) == (1 if x == heis.identity else 3)


def test_pow_matches_repeated_multiplication(heis):
    for x in (heis.generator(1), (1, 2, 1), (2, 2, 2)):
        acc = heis.identity
        for k in range(5):
            assert heis.pow(x, k) == acc
            acc = heis.mul(acc, x)
        assert heis.pow(x, -1) == heis.inv(x)
        assert heis.pow(x, -2) == heis.mul(heis.inv(x), heis.inv(x))


def test_pow_squares_no_further_than_the_last_bit(heis, monkeypatch):
    """pow(x, e) makes one product per set bit of e and one squaring per
    bit after the first, e.g. two for x^3 and one more to multiply."""
    state = {"outermost": 0, "depth": 0}
    original = PcGroup.mul

    def counted(self, x, y):
        state["outermost"] += state["depth"] == 0
        state["depth"] += 1
        try:
            return original(self, x, y)
        finally:
            state["depth"] -= 1

    monkeypatch.setattr(PcGroup, "mul", counted)
    for e in range(1, 10):
        state["outermost"] = 0
        heis.pow((1, 2, 1), e)
        assert state["outermost"] == bin(e).count("1") + e.bit_length() - 1, e


def test_pow_matches_power_table(corpus_groups):
    from noninner.structure import power_table

    for gid, G in corpus_groups.items():
        table = power_table(G)
        for i in range(0, G.element_count, max(1, G.element_count // 300)):
            assert G.idx(G.pow(G.vec(i), G.p)) == int(table[i]), (gid, i)


def test_collect_normalizes_words(heis):
    # g2 g1 = g1 g2 [g2, g1] = g1 g2 g3
    assert heis.collect([(2, 1), (1, 1)]) == (1, 1, 1)
    assert heis.collect([(1, 1), (1, 1), (1, 1)]) == heis.identity
    assert heis.collect([]) == heis.identity


def test_conj_and_comm_identities(heis):
    for x in ((1, 0, 0), (0, 1, 0), (1, 2, 0), (2, 1, 2)):
        for y in ((0, 1, 0), (1, 1, 0), (2, 0, 1)):
            conj = heis.conj(x, y)
            assert conj == heis.mul(heis.inv(y), heis.mul(x, y))
            comm = heis.comm(x, y)
            assert comm == heis.mul(heis.inv(x), heis.mul(heis.inv(y), heis.mul(x, y)))
            assert heis.mul(x, comm) == heis.conj(x, y)


# ---------------------------------------------------------------------------
# index <-> element bijection and permutation tables


def test_idx_vec_roundtrip(heis):
    for i in range(heis.element_count):
        assert heis.idx(heis.vec(i)) == i
    # first coordinate is most significant
    assert heis.vec(9) == (1, 0, 0)
    assert heis.vec(1) == (0, 0, 1)
    assert heis.idx((2, 2, 2)) == 26


def test_right_mult_perm_matches_mul(heis):
    import numpy as np

    for y in ((1, 0, 0), (1, 2, 1)):
        perm = heis.right_mult_perm(y)
        assert sorted(perm.tolist()) == list(range(27))
        for i in (0, 1, 5, 13, 26):
            assert int(perm[i]) == heis.idx(heis.mul(heis.vec(i), y))
        conj = heis.conj_perm(y)
        for i in (0, 2, 7, 25):
            assert int(conj[i]) == heis.idx(heis.conj(heis.vec(i), y))
    inv_t = heis.inv_table()
    assert all(
        heis.mul_idx(i, int(inv_t[i])) == 0 for i in range(heis.element_count)
    )


# ---------------------------------------------------------------------------
# property tests on a bigger group (C3 wr C3, from the shipped corpus)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 80), st.integers(0, 80), st.integers(0, 80))
def test_wreath_associativity_random(corpus_wreath, i, j, k):
    G = corpus_wreath
    x, y, z = G.vec(i), G.vec(j), G.vec(k)
    assert G.mul(G.mul(x, y), z) == G.mul(x, G.mul(y, z))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 80), st.integers(0, 80))
def test_wreath_inverse_of_product(corpus_wreath, i, j):
    G = corpus_wreath
    x, y = G.vec(i), G.vec(j)
    assert G.inv(G.mul(x, y)) == G.mul(G.inv(y), G.inv(x))
    assert G.mul_idx(i, j) == G.idx(G.mul(x, y))


# ---------------------------------------------------------------------------
# index tables against the collector, which is their oracle


def test_generator_and_inverse_tables_match_collector(corpus_groups):
    for gid, G in corpus_groups.items():
        gens = G.gens
        inv_t = G.inv_table()
        for i, x in enumerate(G.elements()):
            for k, g in enumerate(gens, start=1):
                assert int(G._rtable(k)[i]) == G.idx(G.mul(x, g)), (gid, x, k)
            assert int(inv_t[i]) == G.idx(G.inv(x)), (gid, x)


def test_tables_match_whole_group_pass_builds(corpus_groups, probe_5_7):
    """The level builds equal the masked-pass generator tables and the
    product-built inverse table they replaced, entry for entry."""
    import numpy as np

    cases = dict(corpus_groups, probe_5_7=probe_5_7)
    for gid, G in cases.items():
        expected = rtables_by_masked_passes(G)
        for k in range(1, G.ngens + 1):
            assert np.array_equal(G._rtable(k), expected[k]), (gid, k)
        assert np.array_equal(G.inv_table(), inv_table_by_products(G)), gid


def test_table_builds_make_no_array_products(corpus_dir, manifest, probe_5_7_path, monkeypatch):
    """On a fresh group the m generator tables and the inverse table are
    gathers through earlier entries: no `mul_indices` call with an array
    right factor (the inverse table by cancellation made m)."""
    import numpy as np

    from noninner.pcpfile import parse_pcp_file

    calls = {"array": 0}
    original = PcGroup.mul_indices

    def counted(self, a, b):
        calls["array"] += np.ndim(b) > 0
        return original(self, a, b)

    monkeypatch.setattr(PcGroup, "mul_indices", counted)
    paths = [corpus_dir / entry["file"] for entry in manifest["groups"].values()]
    for path in sorted(paths) + [probe_5_7_path]:
        G = PcGroup(parse_pcp_file(path).presentation, validate=False)
        for k in range(1, G.ngens + 1):
            G._rtable(k)
        G.inv_table()
        assert calls["array"] == 0, (path.name, calls)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["dihedral_8", "heisenberg_5", "wreath_81", "g2187_c"]),
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), min_size=1, max_size=25),
)
def test_array_product_matches_mul(corpus_groups, gid, pairs):
    import numpy as np

    G = corpus_groups[gid]
    a = np.array([i % G.element_count for i, _ in pairs], dtype=np.int64)
    b = np.array([j % G.element_count for _, j in pairs], dtype=np.int64)
    expected = [G.idx(G.mul(G.vec(int(i)), G.vec(int(j)))) for i, j in zip(a, b)]
    assert G.mul_indices(a, b).tolist() == expected
    # a single right factor multiplies every entry
    assert G.mul_indices(a, int(b[0])).tolist() == [
        G.idx(G.mul(G.vec(int(i)), G.vec(int(b[0])))) for i in a
    ]
    assert G.mul_idx(int(a[0]), int(b[0])) == expected[0]


def test_consistency_check_collector_budget(corpus_groups, monkeypatch):
    """Every overlap test still runs, but conjugates of generators by
    generator powers are collected once per (j, g, e): at most 1 100
    `mul` calls per corpus presentation (1 612 on g2187_zcyc without
    the memo)."""
    calls = {"mul": 0}
    original = PcGroup.mul

    def counted(self, x, y):
        calls["mul"] += 1
        return original(self, x, y)

    monkeypatch.setattr(PcGroup, "mul", counted)
    for gid, G in corpus_groups.items():
        calls["mul"] = 0
        PcGroup(G.pres)
        assert calls["mul"] <= 1100, (gid, calls)
