"""Derivations on coset spaces, their verification, and lifts."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noninner.cocycles import (
    CosetTable,
    Derivation,
    coset_exponents,
    derivation_from_a_exponent,
    derivation_from_b_exponent,
    lift_to_automorphism,
    verify_cocycle,
    verify_cocycles,
)
from noninner.eligibility import select_generators
from noninner.errors import CertificationError, OrderBoundError
from noninner.maps import is_central_map, map_order, verify_automorphism
from noninner.structure import center, closure, whole_group
from util_oracles import (
    a_exponent_value,
    all_derivations,
    apply_by_collector,
    b_exponent_value,
    canonical_rep,
    collector,
    combine,
    derivation_key,
    value_at,
    verify_cocycle_by_rows,
)


@pytest.fixture(scope="module")
def ctx(eligible_groups):
    """Selection frame for the alphabetically first eligible group."""
    gid = sorted(eligible_groups)[0]
    G = eligible_groups[gid]
    return select_generators(G)


# ---------------------------------------------------------------------------
# coset tables


def test_coset_table_of_center(heis3):
    C = collector(heis3)
    z = center(heis3)
    ct = CosetTable(heis3, z)
    assert ct.count == 9
    for i in range(heis3.element_count):
        x = heis3.vec(i)
        r = int(ct.min_table[i])
        assert ct.min_table[r] == r
        assert ct.rep_indices[ct.rep_pos[r]] == r
        # representative is coset-invariant
        for zi in z.indices:
            assert ct.min_table[heis3.idx(C.mul(heis3.vec(int(zi)), x))] == r
        assert canonical_rep(heis3, z, x) == heis3.vec(r)


# ---------------------------------------------------------------------------
# the nine derivations of Heisenberg over its centre


@pytest.fixture(scope="module")
def heis_derivations(heis3):
    return all_derivations(heis3, center(heis3))


def test_exactly_nine_derivations(heis_derivations):
    assert len(heis_derivations) == 9
    assert len({derivation_key(d) for d in heis_derivations}) == 9


def test_each_derivation_verifies_and_vanishes_at_identity(heis3, heis_derivations):
    for d in heis_derivations:
        assert verify_cocycle(d) is None
        assert value_at(d, heis3.identity) == heis3.identity


def test_derivations_form_an_elementary_abelian_group(heis3, heis_derivations):
    ds = {derivation_key(d) for d in heis_derivations}
    for d1 in heis_derivations:
        for d2 in heis_derivations:
            s = derivation_key(combine(d1, d2))
            assert s in ds  # closed
            assert derivation_key(combine(d2, d1)) == s  # commutative
        triple = combine(combine(d1, d1), d1)
        assert not triple.values.any()  # exponent 3


def test_lifts_are_automorphisms_fixing_n(heis3, heis_derivations):
    z = center(heis3)
    lifted = set()
    for d in heis_derivations:
        f = lift_to_automorphism(d)
        assert verify_automorphism(f) is None
        lifted.add(tuple(f.image_indices.tolist()))
        for zi in z.indices:
            x = heis3.vec(int(zi))
            assert apply_by_collector(f, x) == x
    assert len(lifted) == 9  # lifting is injective


def test_all_derivations_bound_errors(heis3, corpus_heis_x_c3):
    # 9 cosets pass a bound of 20, but 3^3 = 27 candidate assignments do not
    with pytest.raises(OrderBoundError, match="candidate assignments"):
        all_derivations(heis3, center(heis3), bound=20)
    # trivial subgroup: coset count equals the group order
    from noninner.structure import trivial_subgroup

    with pytest.raises(OrderBoundError, match="coset count"):
        all_derivations(corpus_heis_x_c3, trivial_subgroup(corpus_heis_x_c3), bound=27)


# ---------------------------------------------------------------------------
# the two constructed derivations on an eligible group


def test_coset_exponents_decompose(ctx):
    G = ctx.group
    C = collector(G)
    p = G.p
    z_deep = ctx.z_deep
    a, b, c = G.vec(ctx.a), G.vec(ctx.b), G.vec(ctx.comm_a_b)
    for i in (0, 1, 5, 100, 729, 1000, 2186):
        g = G.vec(i)
        ei, ej, et = coset_exponents(ctx, i)
        assert 0 <= ei < p and 0 <= ej < p and 0 <= et < p
        # g = x * [a,b]^t * a^j * b^i with x in Z_{m-4}
        tail = C.mul(C.pow(c, et), C.mul(C.pow(a, ej), C.pow(b, ei)))
        x = C.mul(g, C.inv(tail))
        assert z_deep.mask[G.idx(x)]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 3**7 - 1))
def test_coset_exponents_random(ctx, i):
    G = ctx.group
    C = collector(G)
    g = G.vec(i)
    ei, ej, et = coset_exponents(ctx, i)
    a, b, c = G.vec(ctx.a), G.vec(ctx.b), G.vec(ctx.comm_a_b)
    tail = C.mul(C.mul(C.pow(c, et), C.pow(a, ej)), C.pow(b, ei))
    assert ctx.z_deep.mask[G.idx(C.mul(g, C.inv(tail)))]


def test_exponent_values_lie_in_n(ctx):
    G = ctx.group
    for i in (0, 3, 81, 2000):
        g = G.vec(i)
        assert ctx.n_sub.mask[G.idx(b_exponent_value(ctx, g))]
        assert ctx.n_sub.mask[G.idx(a_exponent_value(ctx, g))]


def test_derivation_values_depend_only_on_coset(ctx):
    G = ctx.group
    C = collector(G)
    d = derivation_from_b_exponent(ctx)
    for i in (1, 44, 700):
        g = G.vec(i)
        for n in ctx.n_sub.basis:
            assert value_at(d, C.mul(G.vec(n), g)) == value_at(d, g)


def test_both_derivations_verify_and_lift(ctx):
    G = ctx.group
    C = collector(G)
    d_b = derivation_from_b_exponent(ctx)
    d_a = derivation_from_a_exponent(ctx)
    assert verify_cocycle(d_b) is None
    assert verify_cocycle(d_a) is None

    f_b = lift_to_automorphism(d_b)
    f_a = lift_to_automorphism(d_a)
    for f in (f_b, f_a):
        assert verify_automorphism(f) is None
        assert map_order(f) == G.p
        assert not is_central_map(f)

    # the b-shift fixes a and moves b by w; the a-shift does the opposite
    a, b, w = G.vec(ctx.a), G.vec(ctx.b), G.vec(ctx.w)
    assert apply_by_collector(f_b, a) == a
    assert apply_by_collector(f_b, b) == C.mul(b, w)
    assert apply_by_collector(f_a, b) == b
    assert apply_by_collector(f_a, a) == C.mul(a, w)

    from noninner.maps import fixes_elementwise

    assert fixes_elementwise(f_b, ctx.phi)
    assert fixes_elementwise(f_a, ctx.z_deep)


def test_combine_rejects_mismatched_spaces(heis3, heis_derivations, ctx):
    d_other = derivation_from_b_exponent(ctx)
    with pytest.raises(ValueError, match="different coset spaces"):
        combine(heis_derivations[0], d_other)


def test_unverified_failing_derivation_refuses_to_lift(heis3, heis_derivations):
    d = heis_derivations[0]
    # corrupt one value; unless the derivation was the zero map this
    # breaks the cocycle identity somewhere
    z = center(heis3)
    nonzero = int(z.indices[1])
    values = d.values.copy()
    # position 0 holds the identity coset; change the value at the next one
    values[1] = heis3.mul_indices(values[1], nonzero)
    broken = Derivation(heis3, d.n_sub, d.coset_table, values, d.zn)
    # the identity-coset propagation makes this fail verification
    assert verify_cocycle(broken) is not None
    with pytest.raises(ValueError, match="failed cocycle verification"):
        lift_to_automorphism(broken)


# ---------------------------------------------------------------------------
# the cocycle check on generator rows against the check of all pairs


@pytest.fixture(scope="module")
def mutations(eligible_groups):
    """Per eligible group: its two derivations, and for each of them 25
    seeded mutations, each with 1 to 5 values replaced by random
    elements of Z(N), paired with the row oracle's verdict."""
    rng = np.random.default_rng(7)
    out = {}
    for gid in sorted(eligible_groups):
        G = eligible_groups[gid]
        ctx = select_generators(G)
        clean = (derivation_from_b_exponent(ctx), derivation_from_a_exponent(ctx))
        mutated = []
        for d in clean:
            assert verify_cocycle(d) is None and verify_cocycle_by_rows(d) is None
            cases = []
            for _ in range(25):
                values = d.values.copy()
                k = int(rng.integers(1, 6))
                values[rng.choice(len(values), k, replace=False)] = rng.choice(d.zn.indices, k)
                m = Derivation(G, d.n_sub, d.coset_table, values, d.zn)
                cases.append((m, verify_cocycle_by_rows(m)))
            mutated.append(cases)
        out[gid] = (clean, mutated)
    return out


def test_verify_cocycle_matches_row_oracle_on_mutations(mutations):
    """200 seeded mutations of the two derivations of each eligible
    group: the check on generator rows returns exactly the oracle's
    verdict and counterexample (least g2, then least g1)."""
    checked = failed = 0
    for gid, (_, mutated) in mutations.items():
        for cases in mutated:
            for m, expected in cases:
                assert verify_cocycle(m) == expected, (gid, m.values.tolist())
                checked += 1
                failed += expected is not None
    assert checked == 200
    assert failed >= 150, failed  # most mutations break the identity


def _check_jointly(ds, expected):
    for d in ds:
        d._verified = None
    assert verify_cocycles(ds) == expected
    assert [d._verified for d in ds] == [e is None for e in expected]


def test_verify_cocycles_matches_row_oracle_jointly(mutations):
    """The joint check gives each derivation the row oracle's verdict and
    counterexample: every mutation beside the clean other derivation,
    and beside a mutation of the other derivation."""
    for gid, ((d_b, d_a), (muts_b, muts_a)) in mutations.items():
        for (m_b, e_b), (m_a, e_a) in zip(muts_b, muts_a):
            _check_jointly([m_b, d_a], [e_b, None])
            _check_jointly([d_b, m_a], [None, e_a])
            _check_jointly([m_b, m_a], [e_b, e_a])


def test_verify_cocycles_takes_least_g2_before_least_g1(eligible_groups):
    """Changing the value at the last representative breaks the identity
    at g2 = reps[1] only for first factors g1 at position 4 * |G| // R or
    beyond, and at the larger g2 = reps[R - 1] already for g1 = reps[1];
    the check must still report the least g2, then the least g1."""
    G = eligible_groups["g2187_a"]
    C = collector(G)
    ctx = select_generators(G)
    d_b, d_a = derivation_from_b_exponent(ctx), derivation_from_a_exponent(ctx)
    ct = d_b.coset_table
    R = ct.count
    values = d_b.values.copy()
    values[R - 1] = G.mul_indices(values[R - 1], int(d_b.zn.indices[1]))
    late = Derivation(G, d_b.n_sub, ct, values, d_b.zn)
    expected = verify_cocycle_by_rows(late)

    def pos(x):
        return int(ct.rep_pos[x])

    g1, g2 = expected[:2]
    assert pos(g2) == 1 and pos(g1) >= 4 * G.element_count // R
    h1, h2 = (G.vec(int(ct.rep_indices[t])) for t in (1, R - 1))
    assert value_at(late, C.mul(h1, h2)) != C.mul(
        C.conj(value_at(late, h1), h2), value_at(late, h2)
    )
    _check_jointly([late, d_a], [expected, None])
    _check_jointly([d_a, late], [None, expected])


def test_verify_cocycles_refuses_mixed_inputs(heis3, heis_derivations, ctx):
    d_b = derivation_from_b_exponent(ctx)
    with pytest.raises(ValueError, match="one coset table"):
        verify_cocycles([d_b, heis_derivations[0]])
    # the same coset table with another Z(N)
    G = ctx.group
    other = Derivation(G, d_b.n_sub, d_b.coset_table, np.zeros_like(d_b.values), whole_group(G))
    with pytest.raises(ValueError, match="one coset table"):
        verify_cocycles([d_b, other])
    assert d_b._verified is None and other._verified is None


def test_verify_cocycle_memory_is_bounded(eligible_groups):
    """The check holds (rows x R) arrays, one row per generator outside
    N's pivots and one for the identity: one joint check of both
    derivations on a 3^7 group, its frame included, stays below
    64 * m * R bytes, where the R x R = 243^2 table of coset products
    alone would take 472 392."""
    import tracemalloc

    G = eligible_groups["g2187_a"]
    ctx = select_generators(G)
    ds = [derivation_from_b_exponent(ctx), derivation_from_a_exponent(ctx)]
    R = ds[0].coset_table.count
    tracemalloc.start()
    try:
        result = verify_cocycles(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == [None, None]
    assert peak < 64 * G.ngens * R, peak


def test_verify_cocycle_agrees_with_all_pairs_on_every_map_of_heisenberg_3(
    heis3, heis_derivations
):
    """All 3^9 maps from the nine cosets of the Heisenberg group mod 3
    over its centre into the centre: the check on generator rows gives
    each the oracle's verdict and counterexample, and exactly the nine
    derivations pass."""
    z = center(heis3)
    ct = CosetTable(heis3, z)
    passed = set()
    for values in itertools.product(z.indices.tolist(), repeat=ct.count):
        d = Derivation(heis3, z, ct, values, z)
        expected = verify_cocycle_by_rows(d)
        assert verify_cocycle(d) == expected, values
        if expected is None:
            passed.add(values)
    assert passed == {derivation_key(d) for d in heis_derivations}


def test_verify_cocycle_agrees_with_all_pairs_on_heisenberg_5(heis5):
    """The Heisenberg group mod 5 over its centre: its 25 derivations and
    300 seeded maps get the oracle's verdict and counterexample.  Of the
    maps, 100 take random values, 100 take random values with d(1) = 1,
    and 100 are derivations with 1 to 3 values replaced."""
    z = center(heis5)
    ds = all_derivations(heis5, z)
    assert len(ds) == 25
    ct, zn = ds[0].coset_table, ds[0].zn
    rng = np.random.default_rng(15)
    cases = [d.values for d in ds]
    for _ in range(100):
        cases.append(rng.choice(zn.indices, ct.count))
        values = rng.choice(zn.indices, ct.count)
        values[0] = 0  # the identity
        cases.append(values)
        values = ds[rng.integers(len(ds))].values.copy()
        k = int(rng.integers(1, 4))
        values[rng.choice(ct.count, k, replace=False)] = rng.choice(zn.indices, k)
        cases.append(values)
    verdicts = []
    for values in cases:
        d = Derivation(heis5, z, ct, values, zn)
        expected = verify_cocycle_by_rows(d)
        assert verify_cocycle(d) == expected, values.tolist()
        verdicts.append(expected)
    assert verdicts[:25] == [None] * 25
    assert sum(v is not None for v in verdicts[25:]) >= 250


def test_verify_cocycle_reports_a_value_at_the_identity(heis3, heis_derivations, ctx):
    """d(1) != 1 breaks the identity at g1 = g2 = 1, the least pair:
    d(1) = d(1)^1 d(1) would need d(1) = d(1)^2."""
    for G, d in ((heis3, heis_derivations[0]), (ctx.group, derivation_from_b_exponent(ctx))):
        z = int(d.zn.indices[1])
        values = d.values.copy()
        values[0] = z
        broken = Derivation(G, d.n_sub, d.coset_table, values, d.zn)
        assert verify_cocycle(broken) == (0, 0, z, int(G.mul_indices(z, z)))
        assert verify_cocycle_by_rows(broken) == verify_cocycle(broken)


def test_cocycle_frame_rows_and_products(eligible_groups, monkeypatch):
    """On every eligible group the frame has 1 + m - |pivots(N)| = 6
    rows, and a joint check of both derivations, its frame included,
    makes at most one array product: the products of Z(N)."""
    from noninner.pcgroup import PcGroup

    calls = []
    original = PcGroup.mul_indices

    def counted(self, a, b):
        calls.append(1)
        return original(self, a, b)

    for gid, G in sorted(eligible_groups.items()):
        ctx = select_generators(G)
        ds = [derivation_from_b_exponent(ctx), derivation_from_a_exponent(ctx)]
        ct = ds[0].coset_table
        assert ct._frame is None
        calls.clear()
        with monkeypatch.context() as mp:
            mp.setattr(PcGroup, "mul_indices", counted)
            assert verify_cocycles(ds) == [None, None]
        assert len(calls) <= 1, gid
        rows = len(ct._frame.rows)
        assert rows == 1 + G.ngens - len(ctx.n_sub.pivots) == 6, gid


def test_cocycle_frame_refuses_a_zn_that_is_not_normal(heis3):
    """Z(N) = <g1> on the Heisenberg group mod 3 is not normal: g2
    conjugates g1 out of it.  The check says so as a CertificationError
    (one line from the command line) rather than a bare ValueError."""
    z = center(heis3)
    g1 = closure(heis3, [int(heis3.gen_indices[0])])
    d = Derivation(heis3, z, CosetTable(heis3, z), np.zeros(9, dtype=np.int64), g1)
    with pytest.raises(CertificationError, match="Z\\(N\\) is not normal"):
        verify_cocycle(d)
    assert d._verified is None
