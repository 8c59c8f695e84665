"""Shared fixtures: corpus access and cached per-group pipeline runs."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from noninner.certify import certify_group
from noninner.pcgroup import PcGroup
from noninner.pcpfile import parse_pcp_file

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    assert CORPUS.is_dir(), "corpus directory missing; run tools/source_corpus.py"
    return CORPUS


@pytest.fixture(scope="session")
def manifest(corpus_dir) -> dict:
    return json.loads((corpus_dir / "manifest.json").read_text())


def _load_group(corpus_dir: Path, group_id: str) -> PcGroup:
    doc = parse_pcp_file(corpus_dir / f"{group_id}.pcp")
    return PcGroup(doc.presentation)


@pytest.fixture(scope="session")
def corpus_groups(corpus_dir, manifest) -> dict[str, PcGroup]:
    """Every group of the shipped corpus, by id."""
    return {gid: _load_group(corpus_dir, gid) for gid in sorted(manifest["groups"])}


@pytest.fixture(scope="session")
def heis3(corpus_dir) -> PcGroup:
    return _load_group(corpus_dir, "heisenberg_3")


@pytest.fixture(scope="session")
def heis5(corpus_dir) -> PcGroup:
    return _load_group(corpus_dir, "heisenberg_5")


@pytest.fixture(scope="session")
def corpus_wreath(corpus_dir) -> PcGroup:
    return _load_group(corpus_dir, "wreath_81")


@pytest.fixture(scope="session")
def corpus_dihedral(corpus_dir) -> PcGroup:
    return _load_group(corpus_dir, "dihedral_8")


@pytest.fixture(scope="session")
def corpus_heis_x_c3(corpus_dir) -> PcGroup:
    return _load_group(corpus_dir, "heis_x_c3")


@pytest.fixture(scope="session")
def probe_5_7_path() -> Path:
    """A coclass-2 group of order 5^7 (78 125 elements), kept out of the
    corpus: the maximal-class chain [g_k, g_1] = g_(k+1) (k = 2..5)
    times a cyclic factor of order 5."""
    return Path(__file__).resolve().parent / "data" / "probe_5_7.pcp"


@pytest.fixture(scope="session")
def probe_5_7(probe_5_7_path) -> PcGroup:
    return PcGroup(parse_pcp_file(probe_5_7_path).presentation)


@pytest.fixture(scope="session")
def eligible_ids(manifest) -> list[str]:
    ids = sorted(
        gid
        for gid, entry in manifest["groups"].items()
        if entry["route"] == "ELIGIBLE"
    )
    assert ids, "corpus has no eligible groups"
    return ids


@pytest.fixture(scope="session")
def eligible_groups(corpus_dir, eligible_ids) -> dict[str, PcGroup]:
    return {gid: _load_group(corpus_dir, gid) for gid in eligible_ids}


@pytest.fixture(scope="session")
def eligible_reports(corpus_dir, eligible_ids) -> dict:
    """certify_group output per eligible corpus group (run once)."""
    out = {}
    for gid in eligible_ids:
        doc = parse_pcp_file(corpus_dir / f"{gid}.pcp")
        out[gid] = certify_group(doc.presentation, group_id=gid)
    return out
