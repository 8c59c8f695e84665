"""Tests that the independent checker is not vacuous.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS = ROOT / "corpus"
sys.path.insert(0, str(HERE))

import checker  # noqa: E402

MANIFEST = json.loads((CORPUS / "manifest.json").read_text())["groups"]
FINGERPRINTED = sorted(name for name, e in MANIFEST.items() if "fingerprint" in e)


@pytest.fixture(scope="module")
def g2187_a():
    return checker.load(CORPUS / "g2187_a.pcp")


@pytest.fixture(scope="module")
def certificate_a():
    """The images that `noninner` certifies for g2187_a."""
    sys.path.insert(0, str(ROOT / "src"))
    from noninner import certify_group, parse_pcp_file

    report = certify_group(parse_pcp_file(CORPUS / "g2187_a.pcp").presentation)
    return report.images


@pytest.mark.parametrize("name", FINGERPRINTED)
def test_tables_reproduce_manifest_fingerprint(name):
    group = checker.load(CORPUS / MANIFEST[name]["file"])
    fingerprint = MANIFEST[name]["fingerprint"]
    assert checker.fingerprint(group) == fingerprint
    assert group.derived().sum() == fingerprint["lower_series_orders"][1]


def test_accepts_the_certificate(g2187_a, certificate_a):
    assert checker.check_automorphism(g2187_a, certificate_a) == []


def _valid_by_brute_force(g, image_vectors) -> bool:
    """Noninner, noncentral automorphism of order p, decided from the
    whole Cayley table instead of the relations and generators."""
    t = g.table
    ident = np.arange(g.n)
    phi = g.map_tables(np.array([g.index(v) for v in image_vectors])[:, None])[0]
    if not (phi[t] == t[phi[:, None], phi[None, :]]).all() or np.unique(phi).size != g.n:
        return False
    power = ident
    for _ in range(g.p):
        power = phi[power]
    if (phi == ident).all() or not (power == ident).all():
        return False
    center = (t == t.T).all(axis=1)
    if center[t[g.inv, phi]].all():
        return False
    conjugates = t[t[g.inv[:, None], ident[None, :]], ident[:, None]]  # row y: x -> y^-1 x y
    return not (conjugates == phi[None, :]).all(axis=1).any()


def test_single_exponent_changes(g2187_a, certificate_a):
    """Every change of one exponent in one image is rejected, except the
    changes that give another noninner automorphism of order p, which a
    brute-force check over all pairs of elements must then confirm."""
    p = g2187_a.p
    verdicts = {}
    for k, image in enumerate(certificate_a):
        for c, e in enumerate(image):
            for v in range(p):
                if v != e:
                    mutated = [list(im) for im in certificate_a]
                    mutated[k][c] = v
                    accepted = not checker.check_automorphism(g2187_a, mutated)
                    verdicts[(k, c, v)] = (accepted, _valid_by_brute_force(g2187_a, mutated))
    assert len(verdicts) == 98
    assert {key: v for key, v in verdicts.items() if v[0] != v[1]} == {}
    assert sum(accepted for accepted, _ in verdicts.values()) <= 6


def test_rejects_conjugation_by_g1(g2187_a):
    g = g2187_a
    g1 = g.gens[0]
    images = [g.vector(int(g.mul(g.mul(g.inv[g1], gk), g1))) for gk in g.gens]
    failures = checker.check_automorphism(g, images)
    assert any(f.startswith("the map is inner") for f in failures), failures
