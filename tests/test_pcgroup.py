"""Collection engine: presentation validation, group laws, consistency."""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from noninner.errors import InconsistentPresentationError, PresentationError
from noninner.pcgroup import _PRIME_BOUND, PcGroup, PcPresentation, _prime_error
from util_oracles import (
    collect,
    collector,
    conj_perm,
    consistency_witness_by_collector,
    elements,
    gens,
    inv_table_by_products,
    mul_indices_by_masked_passes,
    order_of,
    pow_indices_by_products,
    random_presentation,
    rtables_by_masked_passes,
)

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


def test_primality_is_exact_on_strong_pseudoprimes_and_carmichael_numbers():
    """Miller-Rabin to the prime bases up to 41 agrees with trial division
    below 20 000, refuses strong pseudoprimes to the bases up to 7 and up
    to 37 and Carmichael numbers, and refuses to decide at its bound."""

    def by_trial_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(20_000) if _prime_error(n) is None] == [
        n for n in range(20_000) if by_trial_division(n)
    ]
    pseudoprimes = [3_215_031_751, 3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461]
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825_265, 321_197_185]
    for n in pseudoprimes + carmichael:
        assert _prime_error(n) == f"p must be prime, got {n}", n
    for n in [2**31 - 1, 10_000_000_000_000_061, 2**61 - 1]:
        assert _prime_error(n) is None, n
    for n in [_PRIME_BOUND, 2**127 - 1]:
        assert str(_PRIME_BOUND) in _prime_error(n), n
        with pytest.raises(PresentationError, match="bound of the primality test"):
            PcPresentation(n, 1)


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
    C = collector(group)
    g1 = C.generator(1)
    assert order_of(group, g1) == 27
    assert C.pow(g1, 3) == C.generator(2)
    assert C.pow(g1, 9) == C.generator(3)


# ---------------------------------------------------------------------------
# group laws on small groups


@pytest.fixture(scope="module")
def heis():
    return PcGroup(HEIS)


def test_identity_and_generators(heis):
    assert heis.identity == (0, 0, 0)
    assert gens(heis) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert [heis.vec(g) for g in heis.gen_indices.tolist()] == gens(heis)


def test_defining_relation_holds(heis):
    C = collector(heis)
    g1, g2 = C.generator(1), C.generator(2)
    assert C.comm(g2, g1) == C.generator(3)


def test_full_group_laws_exhaustive(heis):
    C = collector(heis)
    els = list(elements(heis))
    assert len(els) == 27
    e = heis.identity
    for x in els:
        assert C.mul(x, e) == x == C.mul(e, x)
        ix = C.inv(x)
        assert C.mul(x, ix) == e == C.mul(ix, x)
    # associativity on all 27^3 triples
    for x in els:
        for y in els:
            xy = C.mul(x, y)
            for z in els:
                assert C.mul(xy, z) == C.mul(x, C.mul(y, z))


def test_exponent_three(heis):
    C = collector(heis)
    for x in elements(heis):
        assert C.pow(x, 3) == heis.identity
        assert order_of(heis, x) == (1 if x == heis.identity else 3)


def test_pow_matches_repeated_multiplication(heis):
    C = collector(heis)
    for x in (C.generator(1), (1, 2, 1), (2, 2, 2)):
        acc = heis.identity
        for k in range(5):
            assert C.pow(x, k) == acc
            acc = C.mul(acc, x)
        assert C.pow(x, -1) == C.inv(x)
        assert C.pow(x, -2) == C.mul(C.inv(x), C.inv(x))


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
        C = collector(G)
        table = power_table(G)
        for i in range(0, G.element_count, max(1, G.element_count // 300)):
            assert G.idx(C.pow(G.vec(i), G.p)) == int(table[i]), (gid, i)


def test_collect_normalizes_words(heis):
    # g2 g1 = g1 g2 [g2, g1] = g1 g2 g3
    assert collect(heis, [(2, 1), (1, 1)]) == (1, 1, 1)
    assert collect(heis, [(1, 1), (1, 1), (1, 1)]) == heis.identity
    assert collect(heis, []) == heis.identity


def test_conj_and_comm_identities(heis):
    C = collector(heis)
    for x in ((1, 0, 0), (0, 1, 0), (1, 2, 0), (2, 1, 2)):
        for y in ((0, 1, 0), (1, 1, 0), (2, 0, 1)):
            conj = C.conj(x, y)
            assert conj == C.mul(C.inv(y), C.mul(x, y))
            comm = C.comm(x, y)
            assert comm == C.mul(C.inv(x), C.mul(C.inv(y), C.mul(x, y)))
            assert C.mul(x, comm) == C.conj(x, y)


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

    C = collector(heis)
    for y in ((1, 0, 0), (1, 2, 1)):
        perm = heis.right_mult_perm(heis.idx(y))
        assert sorted(perm.tolist()) == list(range(27))
        for i in (0, 1, 5, 13, 26):
            assert int(perm[i]) == heis.idx(C.mul(heis.vec(i), y))
        conj = conj_perm(heis, heis.idx(y))
        for i in (0, 2, 7, 25):
            assert int(conj[i]) == heis.idx(C.conj(heis.vec(i), y))
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
    C = collector(G)
    x, y, z = G.vec(i), G.vec(j), G.vec(k)
    assert C.mul(C.mul(x, y), z) == C.mul(x, C.mul(y, z))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 80), st.integers(0, 80))
def test_wreath_inverse_of_product(corpus_wreath, i, j):
    G = corpus_wreath
    C = collector(G)
    x, y = G.vec(i), G.vec(j)
    assert C.inv(C.mul(x, y)) == C.mul(C.inv(y), C.inv(x))
    assert G.mul_idx(i, j) == G.idx(C.mul(x, y))


# ---------------------------------------------------------------------------
# index tables and index steps against the collector, which is their oracle


def test_tuple_methods_match_the_collector(corpus_groups, probe_5_7):
    """PcGroup's `mul`, `inv`, `pow`, `conj` and `comm` answer through the
    index steps, which apply the collector's rules in its order, so they
    reach its normal forms: on every corpus group, the probe and 60
    seeded random presentations, about a third of them inconsistent."""
    rng = random.Random(21)
    drawn = [PcGroup(random_presentation(rng), validate=False) for _ in range(60)]
    inconsistent = sum(G.consistency_witness() is not None for G in drawn)
    assert 10 <= inconsistent <= 40, inconsistent
    for G in [*corpus_groups.values(), probe_5_7, *drawn]:
        C = collector(G)
        for _ in range(12):
            x, y = (G.vec(rng.randrange(G.element_count)) for _ in range(2))
            e = rng.randrange(-2 * G.p, 2 * G.p)
            assert G.mul(x, y) == C.mul(x, y), (G.pres, x, y)
            assert G.inv(x) == C.inv(x), (G.pres, x)
            assert G.pow(x, e) == C.pow(x, e), (G.pres, x, e)
            assert G.conj(x, y) == C.conj(x, y), (G.pres, x, y)
            assert G.comm(x, y) == C.comm(x, y), (G.pres, x, y)


def test_generator_and_inverse_tables_match_collector(corpus_groups):
    for gid, G in corpus_groups.items():
        C = collector(G)
        inv_t = G.inv_table()
        for i, x in enumerate(elements(G)):
            for k, g in enumerate(gens(G), start=1):
                assert int(G._rtable(k)[i]) == G.idx(C.mul(x, g)), (gid, x, k)
            assert int(inv_t[i]) == G.idx(C.inv(x)), (gid, x)


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
    """On a fresh group the power ladders, with the m generator tables in
    them, and the inverse table are gathers through earlier entries: no
    `mul_indices` call at all (the inverse table by cancellation made m
    with an array right factor), at C313 x C313 too."""
    from noninner.pcpfile import parse_pcp_file

    calls = {"mul_indices": 0}
    original = PcGroup.mul_indices

    def counted(self, a, b):
        calls["mul_indices"] += 1
        return original(self, a, b)

    monkeypatch.setattr(PcGroup, "mul_indices", counted)
    paths = [corpus_dir / entry["file"] for entry in manifest["groups"].values()]
    cases = {path.name: parse_pcp_file(path).presentation for path in sorted(paths)}
    cases["probe_5_7"] = parse_pcp_file(probe_5_7_path).presentation
    cases["c313_squared"] = PcPresentation(313, 2)
    # parsing checks consistency, by array products over the built tables
    calls["mul_indices"] = 0
    for gid, pres in cases.items():
        G = PcGroup(pres, validate=False)
        for k in range(1, G.ngens + 1):
            G._rtable(k)
        G.inv_table()
        assert all(ladder is not None for ladder in G._ladders[1:]), gid
        assert calls["mul_indices"] == 0, (gid, calls)


def test_power_ladder_shape(corpus_groups, probe_5_7):
    """Each ladder holds one identity block and, per base-8 place j with
    8**j < p, one block per nonzero digit: at most 8 ceil(log_8 p)
    blocks.  T_k is its block 1, not a copy.  The offset tables point each
    index at the block of its digit, and the block of digit e at place j
    is T_k applied e 8**j times.  The cases span p = 2 (dihedral_8), the
    single-place primes 3 and 5, and 313 with three places."""
    import numpy as np

    cases = dict(corpus_groups, probe_5_7=probe_5_7, c313_squared=wide_group("c313_squared"))
    assert {2, 3, 5, 313} <= {G.p for G in cases.values()}
    for gid, G in cases.items():
        p, n = G.p, G.element_count
        places = 1
        while 8**places < p:
            places += 1
        blocks = 1 + sum(min(7, (p - 1) // 8**j) for j in range(places))
        assert blocks <= 8 * places
        idx = np.arange(n)
        for k in range(1, G.ngens + 1):
            table = G._rtable(k)
            ladder = G._ladders[k]
            assert ladder.size == blocks * n, (gid, k)
            assert np.shares_memory(table, ladder), (gid, k)
            assert len(G._offsets[k]) == places, (gid, k)
            digit = idx // G._stride(k) % p
            cur, first = idx, 1
            for j, offsets in enumerate(G._offsets[k]):
                place_digit = digit // 8**j % 8
                starts = np.where(place_digit > 0, (first + place_digit - 1) * n, 0)
                assert np.array_equal(offsets, starts), (gid, k, j)
                first += min(7, (p - 1) // 8**j)
            for d in range(1, p):
                cur = table[cur]
                j = 0
                while d % 8 ** (j + 1) == 0:
                    j += 1
                if d < 8 ** (j + 1):  # d = e 8**j with 1 <= e < 8
                    start = int(G._offsets[k][j][d * G._stride(k)])
                    assert np.array_equal(ladder[start : start + n], cur), (gid, k, d)


def test_pow_indices_match_products(corpus_groups, probe_5_7):
    """Square and multiply equals e - 1 products: the table of p-th powers
    on every corpus group and the probe, and a seeded sample of C313 x C313
    at p and other exponents."""
    import numpy as np

    from noninner.structure import power_table

    cases = dict(corpus_groups, probe_5_7=probe_5_7)
    for gid, G in cases.items():
        x = np.arange(G.element_count)
        expected = pow_indices_by_products(G, x, G.p)
        assert np.array_equal(G.pow_indices(x, G.p), expected), gid
        assert np.array_equal(power_table(G), expected), gid
        for e in (1, 2, 2 * G.p + 1):
            assert np.array_equal(G.pow_indices(x, e), pow_indices_by_products(G, x, e)), (gid, e)
        assert not G.pow_indices(x, 0).any()
    G = wide_group("c313_squared")
    x = np.random.default_rng(15).integers(0, G.element_count, 200)
    for e in (2, 7, 64, 312, 313, 314):
        assert np.array_equal(G.pow_indices(x, e), pow_indices_by_products(G, x, e)), e
    assert int(G.pow_indices(int(x[0]), 313)) == 0


def _class_two(rng, p: int, top: int, central: int) -> PcPresentation:
    """A seeded class-2 presentation: the powers and commutators of the
    first `top` generators are random words in the last `central`
    generators, which are central of order p (always consistent)."""
    m = top + central

    def word():
        return [(k, rng.randrange(1, p)) for k in range(top + 1, m + 1) if rng.random() < 0.5]

    powers = {i: word() for i in range(1, top + 1)}
    commutators = {(j, i): word() for j in range(2, top + 1) for i in range(1, j)}
    return PcPresentation(p, m, powers, commutators)


def _wide_presentations() -> dict:
    rng = random.Random(13)
    return {
        "c313_squared": PcPresentation(313, 2),
        "heisenberg_43": PcPresentation(43, 3, commutators={(2, 1): [(3, 1)]}),
        "chain_11_4": PcPresentation(11, 4, commutators={(2, 1): [(3, 1)], (3, 1): [(4, 1)]}),
        "class_two_2_16": _class_two(rng, 2, 8, 8),
        "class_two_7_5": _class_two(rng, 7, 3, 2),
        "power_word_5_3": PcPresentation(
            5, 3, powers={1: [(3, 1)]}, commutators={(2, 1): [(3, 2)]}
        ),
    }


WIDE = sorted(_wide_presentations())


@functools.lru_cache(maxsize=None)
def wide_group(gid: str) -> PcGroup:
    """Groups at p in {2, 5, 7, 11, 43, 313}, with several base-8 places
    in the exponents from p = 11 on; each is checked consistent."""
    return PcGroup(_wide_presentations()[gid])


def _check_products(G, a, b):
    """mul_indices against the collector and the masked-pass oracle, for
    1-D and 2-D right factors and single left and right factors."""
    import numpy as np

    C = collector(G)

    def collected(i, j):
        return G.idx(C.mul(G.vec(int(i)), G.vec(int(j))))

    product = G.mul_indices(a, b)
    assert product.tolist() == [collected(i, j) for i, j in zip(a, b)]
    assert np.array_equal(mul_indices_by_masked_passes(G, a, b), product)
    # 2-D right factors, against a 2-D and a broadcast 1-D left factor
    b2 = np.stack([b, b[::-1]])
    expected = [product.tolist(), [collected(i, j) for i, j in zip(a, b[::-1])]]
    assert G.mul_indices(np.stack([a, a]), b2).tolist() == expected
    assert G.mul_indices(a, b2).tolist() == expected
    assert np.array_equal(mul_indices_by_masked_passes(G, a, b2), G.mul_indices(a, b2))
    # a single left factor multiplies into every entry
    assert G.mul_indices(int(a[0]), b).tolist() == [collected(a[0], j) for j in b]
    # a single right factor multiplies every entry
    single = G.mul_indices(a, int(b[0]))
    assert single.tolist() == [collected(i, b[0]) for i in a]
    assert np.array_equal(single, mul_indices_by_masked_passes(G, a, np.full_like(a, b[0])))
    assert G.mul_idx(int(a[0]), int(b[0])) == product[0]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["dihedral_8", "heisenberg_5", "wreath_81", "g2187_c", *WIDE]),
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), min_size=1, max_size=25),
)
def test_array_product_matches_mul(corpus_groups, gid, pairs):
    import numpy as np

    G = corpus_groups[gid] if gid in corpus_groups else wide_group(gid)
    a = np.array([i % G.element_count for i, _ in pairs], dtype=np.int64)
    b = np.array([j % G.element_count for _, j in pairs], dtype=np.int64)
    _check_products(G, a, b)


def test_array_product_matches_mul_at_every_prime():
    """Every wide group, seeded: the identity and the last element among
    random factors, so the top digit of each coordinate is exercised."""
    import numpy as np

    rng = np.random.default_rng(14)
    for gid in WIDE:
        G = wide_group(gid)
        n = G.element_count
        a = np.r_[0, n - 1, rng.integers(0, n, 30)]
        b = np.r_[n - 1, 0, rng.integers(0, n, 30)]
        _check_products(G, a, b)
        _check_products(G, b, a)


def test_consistency_check_collector_budget(corpus_dir, manifest, probe_5_7_path, monkeypatch):
    """Within the bound, the consistency check of `PcGroup(pres)` on a
    consistent presentation is at most four `mul_indices` calls over the
    built tables: no memoised step and no call of a tuple method.  With
    `element_bound` below the order it runs on the index steps instead:
    no table, no tuple method, and at most 250 distinct memoised steps
    on every corpus presentation and the probe."""
    from noninner.pcpfile import parse_pcp_file

    calls = dict.fromkeys(("mul", "inv", "pow", "conj", "comm", "mul_indices"), 0)

    def counting(name):
        original = getattr(PcGroup, name)

        def counted(self, *args):
            calls[name] += 1
            return original(self, *args)

        return counted

    for name in calls:
        monkeypatch.setattr(PcGroup, name, counting(name))
    paths = [corpus_dir / entry["file"] for entry in manifest["groups"].values()]
    for path in sorted(paths) + [probe_5_7_path]:
        pres = parse_pcp_file(path).presentation
        calls.update(dict.fromkeys(calls, 0))
        G = PcGroup(pres)
        assert calls["mul_indices"] <= 4, (path.name, calls)
        assert not any(calls[name] for name in calls if name != "mul_indices"), (path.name, calls)
        assert not any(G._steps), path.name
        G = PcGroup(pres, element_bound=G.element_count - 1)
        assert not any(calls[name] for name in calls if name != "mul_indices"), (path.name, calls)
        assert not G._rtables, path.name
        steps = sum(len(memo) for memo in G._steps)
        assert 0 < steps <= 250, (path.name, steps)


def _table_verdict(G) -> bool:
    """Whether (X Y) Z = X (Y Z) on every overlap triple, by products over
    the generator tables."""
    import numpy as np

    _, _, x, y, z = zip(*G._overlap_triples())
    mul = G.mul_indices
    return bool(np.array_equal(mul(mul(x, y), z), mul(x, mul(y, z))))


def test_consistency_witness_matches_the_collector(corpus_dir, manifest, probe_5_7_path):
    """The table products and the index steps reach the same verdict, and
    the witness is the collector's, kind, generators and both sides, on
    2 400 seeded random presentations, every corpus file, the probe and
    two presentations at p = 13, whose ladders have two base-8 places.
    Built again with `element_bound` below the order, the check runs on
    the steps alone and gives the same witness."""
    import random

    from noninner.pcpfile import parse_pcp_file

    rng = random.Random(12)
    cases = [random_presentation(rng) for _ in range(2400)]
    paths = [corpus_dir / entry["file"] for entry in manifest["groups"].values()]
    cases += [parse_pcp_file(path).presentation for path in sorted(paths) + [probe_5_7_path]]
    cases += [
        PcPresentation(13, 3, commutators={(2, 1): [(3, 1)]}),
        PcPresentation(**dict(COLLAPSING, p=13)),
    ]
    kinds, tabled = [], 0
    for pres in cases:
        expected = consistency_witness_by_collector(PcGroup(pres, validate=False))
        G = PcGroup(pres, validate=False)
        if G.element_count <= G.element_bound:
            assert G.consistency_witness() == expected, pres
            steps_agree = all(lhs == rhs for _, _, lhs, rhs in G.overlaps())
            assert _table_verdict(G) == steps_agree == (expected is None), pres
            tabled += 1
        G = PcGroup(pres, validate=False, element_bound=G.element_count - 1)
        assert G.consistency_witness() == expected, pres
        assert not G._rtables, pres
        kinds.append(expected.kind if expected else None)
    # every family fails somewhere, most presentations pass, and the
    # tables decide nearly all of them; the Heisenberg group mod 13 passes
    assert {"assoc", "power_left", "power_right", "power_self"} <= set(kinds)
    assert 300 <= len(cases) - kinds.count(None) <= len(cases) // 2
    assert tabled >= 0.9 * len(cases), tabled
    assert kinds[-2:] == [None, "power_self"], kinds[-2:]


def test_consistency_check_past_the_element_bound(corpus_dir):
    """The check needs no table: g2187_a with 13 generators that no
    relation mentions (order 3^20) is consistent, and the class-29 chain
    of order 7^30 is not, both within the default recursion limit."""
    from noninner.pcpfile import parse_pcp_file

    base = parse_pcp_file(corpus_dir / "g2187_a.pcp").presentation
    G = PcGroup(PcPresentation(3, 20, base.powers, base.commutators))
    assert G.element_count > G.element_bound
    assert G.consistency_witness() is None
    chain = PcPresentation(7, 30, commutators={(j, 1): [(j + 1, 1)] for j in range(2, 30)})
    with pytest.raises(InconsistentPresentationError) as exc:
        PcGroup(chain)
    witness = exc.value.witness
    assert witness == consistency_witness_by_collector(PcGroup(chain, validate=False))


def test_overlaps_are_evaluated_lazily():
    """The first overlap test of 3^200 comes without building the other
    1.3 million triples first."""
    import time

    G = PcGroup(PcPresentation(3, 200), validate=False)
    start = time.perf_counter()
    kind, gens, lhs, rhs = next(G.overlaps())
    assert time.perf_counter() - start < 0.1
    assert (kind, gens) == ("assoc", (3, 2, 1)) and lhs == rhs


def test_memoised_steps_match_the_generator_tables(corpus_groups):
    """Each memoised step, the tail t times g_k**e, is the entry of t
    under e gathers through the generator table of g_k.  The check of a
    group within the bound makes no step, so the overlaps are run here."""
    for gid, G in corpus_groups.items():
        assert all(lhs == rhs for _, _, lhs, rhs in G.overlaps()), gid
        tables = G._tables()
        for k in range(1, G.ngens + 1):
            assert G._steps[k], (gid, k)
            for key, y in G._steps[k].items():
                t, e = divmod(key, G.p)
                for _ in range(e):
                    t = int(tables[k][t])
                assert t == y, (gid, k, key)
