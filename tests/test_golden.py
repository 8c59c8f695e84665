"""CLI output on the shipped corpus, byte for byte against stored files.

`tests/data/golden/` holds, for every corpus file, the output of
`certify --json` (without `timings`, the one field that differs between
runs), `conditions` and `series`, and the text and JSON outputs of
`audit corpus/`.  A change that is meant to alter this output rewrites
the files with

    PYTHONPATH=src python tests/test_golden.py

and the diff of `tests/data/golden/` then shows what changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from noninner.cli import main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, (argv, code)
    return out.getvalue()


def _certify_json(path: Path) -> str:
    data = json.loads(_run(["certify", str(path), "--json"]))
    del data["timings"]
    return json.dumps(data, indent=2) + "\n"


def _cases() -> dict[str, callable]:
    """Golden file name (relative to GOLDEN) -> function producing it."""
    cases = {}
    for path in sorted(CORPUS.glob("*.pcp")):
        gid = path.stem
        cases[f"certify/{gid}.json"] = lambda path=path: _certify_json(path)
        for command in ("conditions", "series"):
            cases[f"{command}/{gid}.txt"] = lambda c=command, path=path: _run([c, str(path)])
    cases["audit.txt"] = lambda: _run(["audit", str(CORPUS)])
    cases["audit.json"] = lambda: _run(["audit", str(CORPUS), "--json"])
    return cases


CASES = _cases()


def test_every_corpus_file_has_golden_outputs():
    assert sorted(CASES) == sorted(
        str(p.relative_to(GOLDEN)) for p in GOLDEN.rglob("*") if p.is_file()
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    assert CASES[name]() == (GOLDEN / name).read_text(), name


if __name__ == "__main__":
    for name, produce in CASES.items():
        target = GOLDEN / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(produce())
        print(f"wrote {target.relative_to(ROOT)}", file=sys.stderr)
