"""Reading and writing the `.pcp` presentation interchange format.

A file is line-oriented UTF-8 text; `#` starts a comment (a comment of the exact
form `# id: NAME` names the group).  The first three significant lines
must be, in order:

    pcp 1
    prime <p>
    ngens <m>

followed by any number of relation lines:

    pow <i> = <word>
    comm <j> <i> = <word>        (j > i)

where <word> is the literal `1` or space-separated letters `k^e` with
strictly ascending k and 1 <= e <= p-1.  Indices must satisfy the
weighting rules: a `pow i` word uses indices above i, a `comm j i` word
uses indices above j.  Violations raise PcpSyntaxError carrying the
line and column; semantic inconsistency (relations that collapse the
group below p^m) raises InconsistentPresentationError with a witness.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import PcpSyntaxError, PresentationError
from .pcgroup import PcGroup, PcPresentation, Word

_TOKEN = re.compile(r"\S+")
_ID_COMMENT = re.compile(r"^#\s*id:\s*(\S+)\s*$")
_NAME_OK = re.compile(r"^[A-Za-z0-9_.-]+$")


@dataclass(frozen=True)
class PcpDocument:
    presentation: PcPresentation
    group_id: Optional[str]
    # the group whose construction checked the presentation consistent
    group: PcGroup = field(compare=False, repr=False)


def _tokens(line: str):
    """Significant tokens of a line with their 1-based columns."""
    text = line.split("#", 1)[0]
    return [(m.group(0), m.start() + 1) for m in _TOKEN.finditer(text)]


def _parse_int(tok: str, lineno: int, col: int, what: str) -> int:
    # int() reads the str.isdecimal digits; str.isdigit also admits '³'
    if not tok.isdecimal():
        raise PcpSyntaxError(lineno, col, f"expected {what}, got {tok!r}")
    try:
        return int(tok)
    except ValueError:  # more digits than int() converts, 4300 by default
        raise PcpSyntaxError(lineno, col, f"{what} of {len(tok)} digits is too long") from None


def _parse_word(toks, lineno: int) -> Word:
    """Word tokens after the `=`; `1` for the empty word."""
    if not toks:
        raise PcpSyntaxError(lineno, len(toks) + 1, "missing word after '='")
    if len(toks) == 1 and toks[0][0] == "1":
        return []
    word: list[tuple[int, int]] = []
    for tok, col in toks:
        m = re.fullmatch(r"(\d+)\^(\d+)", tok)
        if not m:
            raise PcpSyntaxError(
                lineno, col, f"expected letter of the form k^e, got {tok!r}"
            )
        k = _parse_int(m.group(1), lineno, col, "a generator index")
        e = _parse_int(m.group(2), lineno, col, "an exponent")
        word.append((k, e))
    return word


def parse_pcp(text: str, group_id: Optional[str] = None) -> PcpDocument:
    """Parse `.pcp` text.  A `# id:` comment overrides `group_id`.

    The parser reads the syntax: tokens, numbers, the header order, `=`,
    duplicate relations, directives and the id comment.  The rules on
    the values (p prime, ngens >= 1, relation keys, and the letters'
    range, order and exponents) are `PcPresentation`'s, and a
    PresentationError it raises becomes a PcpSyntaxError at the token it
    names.  The group is built by `PcGroup`, whose consistency check
    raises InconsistentPresentationError (with witness) on failure."""
    lines = text.splitlines()
    header_stage = 0  # 0: expect "pcp 1", 1: expect prime, 2: expect ngens, 3: body
    p = 0
    ngens = 0
    powers: dict[int, Word] = {}
    commutators: dict[tuple[int, int], Word] = {}
    # (field, key) -> (line, [column of the value or key, columns of the letters])
    spots: dict = {}
    file_id: Optional[str] = None

    for lineno, line in enumerate(lines, start=1):
        m = _ID_COMMENT.match(line.strip())
        if m:
            if not _NAME_OK.match(m.group(1)):
                raise PcpSyntaxError(lineno, 1, f"bad group id {m.group(1)!r}")
            file_id = m.group(1)
            continue
        toks = _tokens(line)
        if not toks:
            continue
        if header_stage == 0:
            if [t for t, _ in toks] != ["pcp", "1"]:
                raise PcpSyntaxError(
                    lineno, toks[0][1], "first line must be 'pcp 1'"
                )
            header_stage = 1
            continue
        if header_stage == 1:
            if toks[0][0] != "prime" or len(toks) != 2:
                raise PcpSyntaxError(
                    lineno, toks[0][1], "second line must be 'prime <p>'"
                )
            p = _parse_int(toks[1][0], lineno, toks[1][1], "a prime")
            spots["prime", None] = (lineno, [toks[1][1]])
            header_stage = 2
            continue
        if header_stage == 2:
            if toks[0][0] != "ngens" or len(toks) != 2:
                raise PcpSyntaxError(
                    lineno, toks[0][1], "third line must be 'ngens <m>'"
                )
            ngens = _parse_int(toks[1][0], lineno, toks[1][1], "a generator count")
            spots["ngens", None] = (lineno, [toks[1][1]])
            header_stage = 3
            continue

        kind, col0 = toks[0]
        if kind == "pow":
            if len(toks) < 3 or toks[2][0] != "=":
                raise PcpSyntaxError(lineno, col0, "expected 'pow <i> = <word>'")
            key = _parse_int(toks[1][0], lineno, toks[1][1], "a generator index")
            relations, word_toks = powers, toks[3:]
            duplicate = f"power relation for {key}"
        elif kind == "comm":
            if len(toks) < 4 or toks[3][0] != "=":
                raise PcpSyntaxError(lineno, col0, "expected 'comm <j> <i> = <word>'")
            j = _parse_int(toks[1][0], lineno, toks[1][1], "a generator index")
            i = _parse_int(toks[2][0], lineno, toks[2][1], "a generator index")
            key = (j, i)
            relations, word_toks = commutators, toks[4:]
            duplicate = f"commutator relation for {j} {i}"
        else:
            raise PcpSyntaxError(
                lineno, col0, f"unknown directive {kind!r}"
            )
        if key in relations:
            raise PcpSyntaxError(lineno, toks[1][1], f"duplicate {duplicate}")
        relations[key] = _parse_word(word_toks, lineno)
        spots[kind, key] = (lineno, [col for _, col in [toks[1], *word_toks]])

    if header_stage != 3:
        missing = ["pcp 1", "prime <p>", "ngens <m>"][header_stage]
        raise PcpSyntaxError(len(lines) + 1, 1, f"missing header line '{missing}'")

    try:
        pres = PcPresentation(p, ngens, powers=powers, commutators=commutators)
    except PresentationError as exc:
        lineno, cols = spots[exc.field, exc.key]
        col = cols[0 if exc.letter is None else exc.letter + 1]
        raise PcpSyntaxError(lineno, col, exc.reason) from exc
    return PcpDocument(pres, file_id or group_id, PcGroup(pres))


def parse_pcp_file(path) -> PcpDocument:
    """Parse a UTF-8 `.pcp` file; its stem is the default group id.  A
    byte that is not UTF-8 raises PcpSyntaxError at its line and column,
    counted as `parse_pcp` counts them."""
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the text before the byte decodes; "?" stands in for the byte
        lines = (data[: exc.start].decode("utf-8") + "?").splitlines()
        raise PcpSyntaxError(
            len(lines), len(lines[-1]), f"byte {data[exc.start]:#04x} is not UTF-8"
        ) from None
    return parse_pcp(text, group_id=path.stem)


def serialize_pcp(pres: PcPresentation, group_id: Optional[str] = None) -> str:
    """Canonical text form: id comment, header, power relations by
    generator, commutator relations by (j, i), nontrivial words only."""
    out = []
    if group_id is not None:
        out.append(f"# id: {group_id}")
    out.append("pcp 1")
    out.append(f"prime {pres.p}")
    out.append(f"ngens {pres.ngens}")
    for i in sorted(pres.powers):
        word = " ".join(f"{k}^{e}" for k, e in pres.powers[i])
        out.append(f"pow {i} = {word}")
    for j, i in sorted(pres.commutators):
        word = " ".join(f"{k}^{e}" for k, e in pres.commutators[(j, i)])
        out.append(f"comm {j} {i} = {word}")
    return "\n".join(out) + "\n"
