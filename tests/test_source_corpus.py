"""The corpus tool: its output is the shipped corpus, and its central
step finds exactly the consistent one-generator central extensions."""

from __future__ import annotations

import contextlib
import io
import itertools
import random

import numpy as np
import pytest

import source_corpus
from noninner.certify import certify_group
from noninner.eligibility import Route, decide_route
from noninner.pcgroup import PcGroup, PcPresentation
from noninner.pcpfile import parse_pcp_file
from noninner.structure import upper_central_series
from source_corpus import central_step, with_tails


def test_source_corpus_reproduces_the_corpus(corpus_dir, tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert source_corpus.main(["--out", str(tmp_path)]) == 0
    shipped = sorted(path.name for path in corpus_dir.iterdir())
    assert sorted(path.name for path in tmp_path.iterdir()) == shipped
    for name in shipped:
        assert (tmp_path / name).read_bytes() == (corpus_dir / name).read_bytes(), name


def _combination(coeffs, kernel, slots):
    """Tails sum(c * v) over the kernel basis."""
    return sum((c * v for c, v in zip(coeffs, kernel)), np.zeros(len(slots), dtype=np.int64))


def _span(slots, kernel, p) -> set:
    """Every F_p combination of the kernel basis, as tuples."""
    return {
        tuple(_combination(coeffs, kernel, slots) % p)
        for coeffs in itertools.product(range(p), repeat=len(kernel))
    }


def _consistent(pres: PcPresentation, tails) -> bool:
    return PcGroup(with_tails(pres, tails), validate=False).consistency_witness() is None


@pytest.mark.parametrize("gid", ["dihedral_8", "heisenberg_3"])
def test_central_step_is_exact_on_every_tail_vector(corpus_dir, gid):
    """All 2^6 and 3^6 tail vectors: consistent exactly on the span of
    the kernel that `central_step` returns."""
    pres = parse_pcp_file(corpus_dir / f"{gid}.pcp").presentation
    slots, kernel = central_step(pres)
    assert len(slots) == 6 and 0 < len(kernel) < 6
    solutions = _span(slots, kernel, pres.p)
    assert len(solutions) == pres.p ** len(kernel)
    for tails in itertools.product(range(pres.p), repeat=len(slots)):
        assert _consistent(pres, tails) == (tails in solutions), (gid, tails)


def test_central_step_is_exact_on_a_sample(heis5):
    """heisenberg_5, 5^6 tail vectors: a seeded sample, half uniform and
    half from the kernel's span."""
    pres = heis5.pres
    slots, kernel = central_step(pres)
    solutions = _span(slots, kernel, pres.p)
    rng = random.Random(5)
    sample = [tuple(rng.randrange(pres.p) for _ in slots) for _ in range(150)]
    sample += rng.sample(sorted(solutions), 150)
    outcomes = [_consistent(pres, tails) for tails in sample]
    assert outcomes == [tails in solutions for tails in sample]
    assert 150 <= sum(outcomes) < len(sample)


def test_central_step_refuses_an_inconsistent_parent():
    # g1^3 = g2 with [g2, g1] = g3 fails the power overlap of g1
    pres = PcPresentation(3, 3, powers={1: [(2, 1)]}, commutators={(2, 1): [(3, 1)]})
    with pytest.raises(ValueError, match="overlap test"):
        central_step(pres)


def _quotient_by_last(pres: PcPresentation) -> PcPresentation:
    """G/<g_m> for a central g_m: every relation with g_m struck out."""
    m = pres.ngens - 1
    strike = lambda word: [(k, e) for k, e in word if k <= m]  # noqa: E731
    return PcPresentation(
        pres.p,
        m,
        powers={i: strike(w) for i, w in pres.powers.items() if i <= m},
        commutators={key: strike(w) for key, w in pres.commutators.items() if key[0] <= m},
    )


def test_seeded_one_step_extensions_certify(corpus_dir):
    """A fixed sample of one-step extensions of two coclass-2 parents, of
    order 3^6 (g2187_a's quotient by g7) and 5^6: every ELIGIBLE member
    has |Z| = p and |Z_2| = p^3 and certifies.  A SelectionError or
    CertificationError fails the test; none is filtered out."""
    parents = [
        _quotient_by_last(parse_pcp_file(corpus_dir / "g2187_a.pcp").presentation),
        PcPresentation(
            5,
            6,
            powers={1: [(3, 1)], 2: [(6, 1)]},
            commutators={(2, 1): [(4, 1)], (4, 1): [(5, 1)], (5, 1): [(6, 1)]},
        ),
    ]
    rng = random.Random(18)
    for parent in parents:
        p = parent.p
        slots, kernel = central_step(parent)
        assert (len(slots), len(kernel)) == (21, 8)
        eligible = 0
        for _ in range(8):
            coeffs = [rng.randrange(p) for _ in kernel]
            group = PcGroup(with_tails(parent, _combination(coeffs, kernel, slots)))
            if decide_route(group).route is not Route.ELIGIBLE:
                continue
            eligible += 1
            z1, z2 = upper_central_series(group)[1:3]
            assert (z1.order, z2.order) == (p, p**3), (p, coeffs)
            report = certify_group(group)
            assert report.route == "ELIGIBLE" and report.order == p**7
            assert report.certificates["noninner"] is True
            assert report.certificates["order"] == p
        assert eligible >= 2, p


def test_eligible_corpus_groups_are_one_central_step_over_their_quotients(corpus_dir):
    """Each ELIGIBLE entry of the tool's table is its shipped group's
    quotient by g7, extended by the kernel member named in the table."""
    for gid, parent, coeffs in source_corpus.ELIGIBLE_STEPS:
        shipped = parse_pcp_file(corpus_dir / f"{gid}.pcp").presentation
        assert _quotient_by_last(shipped) == parent, gid
        assert source_corpus.kernel_member(parent, coeffs) == shipped, gid
