"""The .pcp interchange format: golden text, round-trips, error reporting."""

import pytest

from noninner.errors import InconsistentPresentationError, PcpSyntaxError
from noninner.pcgroup import PcPresentation
from noninner.pcpfile import parse_pcp, parse_pcp_file, serialize_pcp

HEIS_TEXT = """\
# id: heisenberg_3
pcp 1
prime 3
ngens 3
comm 2 1 = 3^1
"""


def test_golden_serialization():
    pres = PcPresentation(3, 3, commutators={(2, 1): [(3, 1)]})
    assert serialize_pcp(pres, "heisenberg_3") == HEIS_TEXT


def test_parse_golden():
    doc = parse_pcp(HEIS_TEXT)
    assert doc.group_id == "heisenberg_3"
    assert doc.presentation.p == 3
    assert doc.presentation.ngens == 3
    assert doc.presentation.commutator(2, 1) == ((3, 1),)
    assert doc.presentation.power(1) == ()


def test_round_trip_every_corpus_file(corpus_dir):
    for path in sorted(corpus_dir.glob("*.pcp")):
        doc = parse_pcp_file(path)
        assert doc.group_id == path.stem
        text = serialize_pcp(doc.presentation, doc.group_id)
        again = parse_pcp(text)
        assert again.presentation == doc.presentation
        assert again.group_id == doc.group_id


def test_comments_blank_lines_and_id_override():
    text = (
        "# a comment\n\npcp 1\n  # another\nprime 3\nngens 2\n"
        "pow 1 = 2^1   # inline comment\n"
    )
    doc = parse_pcp(text, group_id="fallback")
    assert doc.group_id == "fallback"
    assert doc.presentation.power(1) == ((2, 1),)
    named = parse_pcp("# id: my-group_1\n" + text[text.index("pcp") :])
    assert named.group_id == "my-group_1"
    # explicit id comment wins over the caller's fallback
    named2 = parse_pcp("# id: inner\n" + text[text.index("pcp") :], group_id="outer")
    assert named2.group_id == "inner"


def test_trivial_word_spelled_as_1():
    doc = parse_pcp("pcp 1\nprime 5\nngens 2\npow 1 = 1\n")
    assert doc.presentation.power(1) == ()
    assert doc.presentation.order == 25


CASES = [
    ("", 1, "missing header line 'pcp 1'"),
    ("pcp 2\n", 1, "first line must be 'pcp 1'"),
    ("pcp 1\nngens 3\n", 2, "second line must be 'prime <p>'"),
    ("pcp 1\nprime 3\n", 3, "missing header line 'ngens <m>'"),
    ("pcp 1\nprime 3\nprime 3\n", 3, "third line must be 'ngens <m>'"),
    ("pcp 1\nprime x\nngens 3\n", 2, "expected a prime"),
    ("pcp 1\nprime 4\nngens 2\n", 2, "p must be prime"),
    ("pcp 1\nprime 3\nngens 2\nfrob 1 = 2^1\n", 4, "unknown directive"),
    ("pcp 1\nprime 3\nngens 2\npow 1\n", 4, "expected 'pow <i> = <word>'"),
    ("pcp 1\nprime 3\nngens 2\npow 0 = 2^1\n", 4, "out of range"),
    ("pcp 1\nprime 3\nngens 2\npow 3 = 1\n", 4, "out of range"),
    ("pcp 1\nprime 3\nngens 2\npow 1 = 2^1\npow 1 = 1\n", 5, "duplicate power"),
    ("pcp 1\nprime 3\nngens 2\ncomm 2 = 1\n", 4, "expected 'comm <j> <i> = <word>'"),
    ("pcp 1\nprime 3\nngens 2\ncomm 1 2 = 1\n", 4, "j > i"),
    ("pcp 1\nprime 3\nngens 2\ncomm 2 2 = 1\n", 4, "j > i"),
    ("pcp 1\nprime 3\nngens 3\ncomm 2 1 = 3^1\ncomm 2 1 = 1\n", 5, "duplicate commutator"),
    ("pcp 1\nprime 3\nngens 3\ncomm 3 1 = 4^1\n", 4, "out of range"),
    ("pcp 1\nprime 3\nngens 3\ncomm 2 1 = 2^1\n", 4, "not above 2"),
    ("pcp 1\nprime 3\nngens 3\npow 2 = 2^1\n", 4, "not above 2"),
    ("pcp 1\nprime 3\nngens 3\ncomm 2 1 = 3\n", 4, "form k^e"),
    ("pcp 1\nprime 3\nngens 3\ncomm 2 1 = 3^0\n", 4, "outside [1, 2]"),
    ("pcp 1\nprime 3\nngens 3\ncomm 2 1 = 3^3\n", 4, "outside [1, 2]"),
    ("pcp 1\nprime 3\nngens 5\npow 1 = 4^1 3^1\n", 4, "ascending"),
    ("pcp 1\nprime 3\nngens 5\npow 1 = 3^1 3^1\n", 4, "ascending"),
    ("pcp 1\nprime 3\nngens 2\npow 1 =\n", 4, "missing word"),
    ("# id: bad!id\npcp 1\nprime 3\nngens 2\n", 1, "bad group id"),
]


@pytest.mark.parametrize("text,line,fragment", CASES, ids=range(len(CASES)))
def test_syntax_errors_carry_line_and_reason(text, line, fragment):
    with pytest.raises(PcpSyntaxError) as exc:
        parse_pcp(text)
    err = exc.value
    assert err.line == line
    assert fragment in err.reason
    assert f"line {line}" in str(err)


@pytest.mark.parametrize("comments", ["", "# a comment\n"])
@pytest.mark.parametrize(
    "header,line,fragment",
    [
        ("pcp 1\nprime 4\nngens 2\n", 2, "p must be prime, got 4"),
        ("pcp 1\nprime 1\nngens 2\n", 2, "p must be prime, got 1"),
        ("pcp 1\nprime 3\nngens 0\n", 3, "ngens must be >= 1, got 0"),
    ],
)
def test_header_values_point_at_their_token(comments, header, line, fragment):
    """A prime that is not prime and a generator count below 1 are
    reported at the value token of their header line, column 7, however
    many comment lines come first."""
    with pytest.raises(PcpSyntaxError) as exc:
        parse_pcp(comments + header)
    shift = comments.count("\n")
    assert (exc.value.line, exc.value.column) == (line + shift, 7)
    assert fragment in exc.value.reason


def test_large_prime_parses_fast_and_is_tested_once(monkeypatch):
    """A 17-digit prime (trial division took seconds on it) parses in well
    under a second, and its primality is decided once per parse: the
    parser leaves the check to `PcPresentation`."""
    import time

    import noninner.pcgroup as pcgroup

    calls = []
    original = pcgroup._prime_error

    def counted(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(pcgroup, "_prime_error", counted)
    start = time.perf_counter()
    doc = parse_pcp("pcp 1\nprime 10000000000000061\nngens 1\n")
    assert time.perf_counter() - start < 0.2
    assert doc.presentation.p == 10_000_000_000_000_061
    assert calls == [10_000_000_000_000_061]


def test_prime_above_the_primality_bound_points_at_its_token():
    from noninner.pcgroup import _PRIME_BOUND

    with pytest.raises(PcpSyntaxError) as exc:
        parse_pcp(f"pcp 1\nprime {_PRIME_BOUND + 2}\nngens 1\n")
    assert (exc.value.line, exc.value.column) == (2, 7)
    assert f"not below {_PRIME_BOUND}" in exc.value.reason


@pytest.mark.parametrize(
    "text,line,column,fragment",
    [
        ("pcp 1\nprime " + "1" * 5000 + "\nngens 1\n", 2, 7, "a prime of 5000 digits is too long"),
        ("pcp 1\nprime 3\nngens " + "1" * 5000 + "\n", 3, 7, "of 5000 digits is too long"),
        ("pcp 1\nprime 3\nngens 2\npow 1 = 2^" + "1" * 5000 + "\n", 4, 9, "an exponent of 5000"),
        ("pcp 1\nprime \u00b3\nngens 1\n", 2, 7, "expected a prime, got '\u00b3'"),
        ("pcp 1\nprime 3\nngens 2\npow \u00b9 = 1\n", 4, 5, "expected a generator index"),
    ],
)
def test_numbers_int_cannot_read_are_syntax_errors(text, line, column, fragment):
    """Digit tokens that int() refuses, too long or not decimal digits,
    are syntax errors at their token, not a ValueError."""
    with pytest.raises(PcpSyntaxError) as exc:
        parse_pcp(text)
    assert (exc.value.line, exc.value.column) == (line, column)
    assert fragment in exc.value.reason


def test_missing_header_points_past_end():
    with pytest.raises(PcpSyntaxError) as exc:
        parse_pcp("# only a comment\n")
    assert exc.value.line == 2
    assert "pcp 1" in exc.value.reason


def test_inconsistent_raises_with_witness():
    """The parser checks consistency by building the group, so the error
    is `PcGroup`'s, with its witness and its message."""
    # g1^3 = g2, g2^3 = g3 puts g2 in <g1>, so [g2, g1] = g3 collapses
    text = (
        "pcp 1\nprime 3\nngens 3\n"
        "pow 1 = 2^1\npow 2 = 3^1\ncomm 2 1 = 3^1\n"
    )
    with pytest.raises(InconsistentPresentationError) as exc:
        parse_pcp(text)
    witness = exc.value.witness
    assert witness is not None
    assert str(exc.value) == (
        f"presentation does not define a group of order 3**3: {witness.describe()}"
    )


def test_parse_pcp_file_uses_stem_as_id(tmp_path):
    path = tmp_path / "tiny_c9.pcp"
    path.write_text("pcp 1\nprime 3\nngens 2\npow 1 = 2^1\n")
    doc = parse_pcp_file(path)
    assert doc.group_id == "tiny_c9"
    assert doc.presentation.order == 9


@pytest.mark.parametrize(
    "data,line,column",
    [
        (b"pcp 1\nprime 3\nngens 3\n# \xff\xfe\ncomm 2 1 = 3^1\n", 4, 3),
        (b"\xffpcp 1\n", 1, 1),
        # the column counts characters, as the tokens' columns do
        ("# id: x \u00e9\u00e9\r\npcp 1 # ".encode() + b"\xc3(", 2, 9),
    ],
)
def test_bytes_that_are_not_utf8_are_a_syntax_error(tmp_path, data, line, column):
    path = tmp_path / "bytes.pcp"
    path.write_bytes(data)
    with pytest.raises(PcpSyntaxError) as exc:
        parse_pcp_file(path)
    assert (exc.value.line, exc.value.column) == (line, column)
    assert "not UTF-8" in exc.value.reason
