"""Command-line interface: output, exit codes, audit statuses."""

import json
import shutil

import pytest

from noninner.cli import main
from noninner.errors import (
    CertificationError,
    OrderBoundError,
    SelectionError,
    StructureError,
)

INCONSISTENT = (
    "pcp 1\nprime 3\nngens 3\npow 1 = 2^1\npow 2 = 3^1\ncomm 2 1 = 3^1\n"
)


def corpus_path(corpus_dir, gid):
    return str(corpus_dir / f"{gid}.pcp")


# ---------------------------------------------------------------------------
# validate


def test_validate_ok(corpus_dir, capsys):
    assert main(["validate", corpus_path(corpus_dir, "heisenberg_3")]) == 0
    out = capsys.readouterr().out
    assert "heisenberg_3: consistent" in out
    assert "order 27" in out


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.pcp")]) == 1
    assert "i/o error" in capsys.readouterr().err


def test_validate_inconsistent(tmp_path, capsys):
    path = tmp_path / "bad.pcp"
    path.write_text(INCONSISTENT)
    assert main(["validate", str(path)]) == 2
    assert "inconsistent presentation" in capsys.readouterr().err


def test_validate_syntax_error(tmp_path, capsys):
    path = tmp_path / "broken.pcp"
    path.write_text("pcp 1\nprime 3\nngens 2\npow 1 = nonsense\n")
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and "line 4" in err


# ---------------------------------------------------------------------------
# series / conditions


def test_series_output(corpus_dir, capsys):
    assert main(["series", corpus_path(corpus_dir, "wreath_81")]) == 0
    out = capsys.readouterr().out
    assert "order   3^4 = 81" in out
    assert "class   3 (coclass 1)" in out
    assert "upper central series orders: [1, 3, 9, 81]" in out
    assert "lower central series orders: [81, 9, 3, 1]" in out
    assert "derived subgroup order: 9" in out
    assert "Frattini subgroup order: 9" in out


def test_conditions_rejection_route(corpus_dir, capsys):
    assert main(["conditions", corpus_path(corpus_dir, "heisenberg_3")]) == 0
    out = capsys.readouterr().out
    assert "route: NOT_COCLASS_2" in out
    assert "Abdollahi" in out  # the citation is domain content
    assert "central_aut_count = 9" in out
    assert "selection:" not in out  # only printed for eligible groups


def test_conditions_eligible(corpus_dir, eligible_ids, capsys):
    assert main(["conditions", corpus_path(corpus_dir, eligible_ids[0])]) == 0
    out = capsys.readouterr().out
    assert "route: ELIGIBLE" in out
    assert "selection:" in out
    assert "N_basis" in out


# ---------------------------------------------------------------------------
# certify


def test_certify_text(corpus_dir, capsys):
    assert main(["certify", corpus_path(corpus_dir, "heisenberg_5")]) == 0
    out = capsys.readouterr().out
    assert "route   NOT_COCLASS_2" in out
    assert "no certificate" in out


def test_certify_json_and_out_file(corpus_dir, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(
        [
            "certify",
            corpus_path(corpus_dir, "heisenberg_5"),
            "--json",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == ""  # everything went to the file
    data = json.loads(out_path.read_text())
    assert data["group_id"] == "heisenberg_5"
    assert data["route"] == "NOT_COCLASS_2"
    assert data["p"] == 5


def test_certify_above_element_bound(tmp_path, capsys):
    path = tmp_path / "big.pcp"
    path.write_text("pcp 1\nprime 3\nngens 11\n")
    assert main(["certify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "element bound" in captured.err
    assert captured.err.count("\n") == 1


def test_certify_and_audit_check_consistency_once_per_file(
    corpus_dir, manifest, capsys, monkeypatch
):
    """Parsing validates the presentation, so the group certified from it
    is built without a second consistency check."""
    from noninner.pcgroup import PcGroup

    calls = {"consistency_witness": 0}
    original = PcGroup.consistency_witness

    def counted(self):
        calls["consistency_witness"] += 1
        return original(self)

    monkeypatch.setattr(PcGroup, "consistency_witness", counted)
    assert main(["certify", corpus_path(corpus_dir, "heisenberg_5")]) == 0
    assert calls["consistency_witness"] == 1
    calls["consistency_witness"] = 0
    assert main(["audit", str(corpus_dir)]) == 0
    assert calls["consistency_witness"] == len(manifest["groups"])
    capsys.readouterr()


def test_certify_failed_check_is_a_typed_error(corpus_dir, eligible_ids, capsys, monkeypatch):
    import noninner.certify as certify

    monkeypatch.setattr(certify, "verify_automorphism", lambda f: "injected failure")
    assert main(["certify", corpus_path(corpus_dir, eligible_ids[0])]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "certification failed: b_shift lift is not an automorphism: injected failure\n"
    )


def test_stalled_series_is_a_typed_error(corpus_dir, capsys, monkeypatch):
    import numpy as np

    import noninner.structure as structure

    # coset tables of the trivial subgroup everywhere: the upper central
    # series finds Z again after Z and stalls
    monkeypatch.setattr(
        structure, "coset_min_table", lambda group, sub: np.arange(group.element_count)
    )
    assert main(["series", corpus_path(corpus_dir, "wreath_81")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: upper central series stalled; group not nilpotent\n"


@pytest.mark.parametrize("ngens", [4, 5])
def test_conditions_central_automorphisms_past_the_element_bound(tmp_path, capsys, ngens):
    # elementary abelian 3^4 and 3^5: 81^4 and 243^5 central tail tuples
    path = tmp_path / "abelian.pcp"
    path.write_text(f"pcp 1\nprime 3\nngens {ngens}\n")
    assert main(["conditions", str(path)]) == 1
    captured = capsys.readouterr()
    assert "route: NOT_COCLASS_2" in captured.out
    assert captured.err.startswith("error: ")
    assert "element bound" in captured.err
    assert captured.err.count("\n") == 1


# ---------------------------------------------------------------------------
# audit


@pytest.fixture()
def small_corpus(tmp_path, corpus_dir):
    """A reduced corpus directory with only fast groups."""
    ids = ["dihedral_8", "heisenberg_3", "wreath_81"]
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    groups = {}
    for gid in ids:
        shutil.copy(corpus_dir / f"{gid}.pcp", tmp_path / f"{gid}.pcp")
        groups[gid] = {
            "file": f"{gid}.pcp",
            "route": manifest["groups"][gid]["route"],
        }
    (tmp_path / "manifest.json").write_text(
        json.dumps({"format": 1, "groups": groups})
    )
    return tmp_path


def test_audit_ok(small_corpus, capsys):
    assert main(["audit", str(small_corpus)]) == 0
    out = capsys.readouterr().out
    assert "audit: 3 groups, all OK" in out
    for gid in ("dihedral_8", "heisenberg_3", "wreath_81"):
        assert gid in out


def test_audit_json(small_corpus, capsys):
    assert main(["audit", str(small_corpus), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["exit"] == 0
    assert [row["status"] for row in data["results"]] == ["OK", "OK", "OK"]
    assert {row["group_id"] for row in data["results"]} == {
        "dihedral_8",
        "heisenberg_3",
        "wreath_81",
    }


def test_audit_route_mismatch(small_corpus, capsys):
    manifest = json.loads((small_corpus / "manifest.json").read_text())
    manifest["groups"]["heisenberg_3"]["route"] = "ELIGIBLE"
    (small_corpus / "manifest.json").write_text(json.dumps(manifest))
    assert main(["audit", str(small_corpus), "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    by_id = {row["group_id"]: row for row in data["results"]}
    assert by_id["heisenberg_3"]["status"] == "ROUTE_MISMATCH"
    assert by_id["heisenberg_3"]["route"] == "NOT_COCLASS_2"
    assert by_id["wreath_81"]["status"] == "OK"


def test_audit_parse_error_beats_mismatch(small_corpus, capsys):
    (small_corpus / "heisenberg_3.pcp").write_text(INCONSISTENT)
    manifest = json.loads((small_corpus / "manifest.json").read_text())
    manifest["groups"]["wreath_81"]["route"] = "ELIGIBLE"  # also a mismatch
    (small_corpus / "manifest.json").write_text(json.dumps(manifest))
    assert main(["audit", str(small_corpus), "--json"]) == 2
    data = json.loads(capsys.readouterr().out)
    by_id = {row["group_id"]: row for row in data["results"]}
    assert by_id["heisenberg_3"]["status"] == "PARSE_ERROR"
    assert by_id["wreath_81"]["status"] == "ROUTE_MISMATCH"


def test_audit_manifest_entry_without_file(small_corpus, capsys):
    manifest = json.loads((small_corpus / "manifest.json").read_text())
    del manifest["groups"]["heisenberg_3"]["file"]
    (small_corpus / "manifest.json").write_text(json.dumps(manifest))
    assert main(["audit", str(small_corpus), "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    by_id = {row["group_id"]: row for row in data["results"]}
    assert by_id["heisenberg_3"]["status"] == "MANIFEST_ERROR"
    assert by_id["dihedral_8"]["status"] == "OK"
    assert by_id["wreath_81"]["status"] == "OK"


@pytest.mark.parametrize("value", [3, None, True, ["heisenberg_3.pcp"], {"name": "x"}])
def test_audit_manifest_file_not_a_string(small_corpus, capsys, value):
    manifest = json.loads((small_corpus / "manifest.json").read_text())
    manifest["groups"]["heisenberg_3"]["file"] = value
    (small_corpus / "manifest.json").write_text(json.dumps(manifest))
    assert main(["audit", str(small_corpus), "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    by_id = {row["group_id"]: row for row in data["results"]}
    assert by_id["heisenberg_3"]["status"] == "MANIFEST_ERROR"
    assert by_id["heisenberg_3"]["detail"] == 'manifest entry "file" is not a string'
    assert by_id["dihedral_8"]["status"] == "OK"
    assert by_id["wreath_81"]["status"] == "OK"


@pytest.mark.parametrize(
    "error", [OrderBoundError, SelectionError, RuntimeError, CertificationError, StructureError]
)
def test_audit_certify_error_is_a_group_status(small_corpus, capsys, monkeypatch, error):
    import noninner.cli as cli

    real = cli.certify_group

    def failing(presentation, group_id):
        if group_id == "heisenberg_3":
            raise error("injected failure")
        return real(presentation, group_id=group_id)

    monkeypatch.setattr(cli, "certify_group", failing)
    assert main(["audit", str(small_corpus), "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    by_id = {row["group_id"]: row for row in data["results"]}
    assert by_id["heisenberg_3"]["status"] == "ERROR"
    assert by_id["heisenberg_3"]["detail"] == "injected failure"
    # the groups after the failing one are still audited
    assert by_id["wreath_81"]["status"] == "OK"


def test_audit_missing_manifest(tmp_path, capsys):
    assert main(["audit", str(tmp_path)]) == 1
    assert "no manifest.json" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text", ["{not json", '{"groups": ["heisenberg_3.pcp"]}', '["groups"]', "\xff"]
)
def test_audit_malformed_manifest(tmp_path, capsys, text):
    (tmp_path / "manifest.json").write_bytes(text.encode("latin-1"))
    assert main(["audit", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_audit_manifest_entry_not_an_object(small_corpus, capsys):
    manifest = json.loads((small_corpus / "manifest.json").read_text())
    manifest["groups"]["heisenberg_3"] = "heisenberg_3.pcp"
    (small_corpus / "manifest.json").write_text(json.dumps(manifest))
    assert main(["audit", str(small_corpus), "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    by_id = {row["group_id"]: row for row in data["results"]}
    assert by_id["heisenberg_3"]["status"] == "MANIFEST_ERROR"
    assert by_id["heisenberg_3"]["detail"] == "manifest entry is not an object"
    assert by_id["dihedral_8"]["status"] == "OK"
    assert by_id["wreath_81"]["status"] == "OK"
    assert main(["audit", str(small_corpus)]) == 1
    assert "heisenberg_3     MANIFEST_ERROR" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# usage


def test_usage_errors(capsys):
    assert main([]) == 1
    assert "usage error" in capsys.readouterr().err
    assert main(["frobnicate"]) == 1
    assert "usage error" in capsys.readouterr().err
    assert main(["validate"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_entry_raises_systemexit(corpus_dir, capsys, monkeypatch):
    import sys

    from noninner.cli import entry

    monkeypatch.setattr(
        sys, "argv", ["noninner", "validate", corpus_path(corpus_dir, "dihedral_8")]
    )
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == 0
    assert "dihedral_8: consistent" in capsys.readouterr().out


def test_python_dash_m_runs_the_cli(corpus_dir):
    """`python -m noninner` is the same command as `noninner`."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import noninner

    env = dict(os.environ)
    src = str(Path(noninner.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "noninner", "validate", corpus_path(corpus_dir, "g2187_a")],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "g2187_a: consistent" in done.stdout
