import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import LISTING1_LINE
from skoshub.graph import Graph
from skoshub.ntriples import ParseError, format_triple, load_ntriples, parse_ntriples, serialize_ntriples
from skoshub.terms import BlankNode, Iri, Literal, PrefixMap, Triple
from skoshub.turtle import serialize_turtle
from turtle_reader import parse_turtle


def test_parse_single_mapping_line():
    g, errors = parse_ntriples(LISTING1_LINE)
    assert errors == []
    assert len(g) == 1
    t = next(iter(g))
    assert t.subject == Iri("http://lod.gesis.org/thesoz/concept/10039068")
    assert t.predicate == Iri("http://www.w3.org/2004/02/skos/core#exactMatch")
    assert t.object == Iri("http://zbw.eu/stw/descriptor/11971-0")


def test_iri_that_rdf_forbids_is_a_bad_line():
    # an ECHAR in an IRI, and characters IRIREF excludes
    g, errors = parse_ntriples(
        "<http://e.org/a\\bb> <http://e.org/p> <http://e.org/{x}|^> .\n" + LISTING1_LINE + "\n"
    )
    assert [e.line for e in errors] == [1]
    assert serialize_ntriples(g) == (LISTING1_LINE + "\n").encode("utf-8")


def test_str_with_lone_surrogate_is_a_bad_line():
    g, errors = parse_ntriples('<http://e.org/\ud800> <http://e.org/p> "a\ud800" .\n' + LISTING1_LINE + "\n")
    assert [e.line for e in errors] == [1]
    assert serialize_ntriples(g.freeze()) == (LISTING1_LINE + "\n").encode("utf-8")


def test_empty_input():
    g, errors = parse_ntriples(b"")
    assert len(g) == 0
    assert errors == []


def test_bad_middle_line_is_recoverable():
    data = "\n".join(
        [
            "<http://e.org/a:1> <http://e.org/p:1> <http://e.org/b:1> .",
            "<http://e.org/a:2> <http://e.org/p:1> <http://e.org/b:2>",  # missing dot
            "<http://e.org/a:3> <http://e.org/p:1> <http://e.org/b:3> .",
        ]
    )
    g, errors = parse_ntriples(data)
    assert len(g) == 2
    assert len(errors) == 1
    assert errors[0].line == 2


def test_invalid_utf8_line_reported_and_skipped(tmp_path):
    path = tmp_path / "latin1.nt"
    path.write_bytes(
        b'<http://e.org/c:1> <http://e.org/p> "Arbeit"@de .\n'
        b'<http://e.org/c:2> <http://e.org/p> "M\xfcnchen"@de .\n'  # Latin-1, not UTF-8
        b'<http://e.org/c:3> <http://e.org/p> "M\xc3\xbcnchen"@de .\n'
    )
    g, diags = load_ntriples(path)
    assert len(g) == 2
    assert [(d.code, d.source_location) for d in diags] == [("NT_SYNTAX", (str(path), 2))]
    assert all("\ufffd" not in t.object.lexical for t in g)


def test_comments_and_blank_lines_ignored():
    data = "# a comment\n\n" + LISTING1_LINE + " # trailing comment\n"
    g, errors = parse_ntriples(data)
    assert errors == []
    assert len(g) == 1


def test_literal_forms_and_escapes():
    data = (
        '<http://e.org/s:1> <http://e.org/p:1> "plain" .\n'
        '<http://e.org/s:1> <http://e.org/p:1> "tagged"@EN .\n'
        '<http://e.org/s:1> <http://e.org/p:1> "typed"^^<http://www.w3.org/2001/XMLSchema#string> .\n'
        '<http://e.org/s:1> <http://e.org/p:1> "line\\nbreak\\ttab\\\\slash\\"quote" .\n'
        '<http://e.org/s:1> <http://e.org/p:1> "unicode \\u00e4 and \\U0001F600" .\n'
    )
    g, errors = parse_ntriples(data)
    assert errors == []
    lexicals = {t.object.lexical for t in g}
    assert 'line\nbreak\ttab\\slash"quote' in lexicals
    assert "unicode ä and \U0001F600" in lexicals
    tags = {t.object.lang for t in g if isinstance(t.object, Literal)}
    assert "en" in tags  # tag lowercased at parse time


def test_blank_nodes_preserved():
    data = "_:b1 <http://e.org/p:1> _:b2 .\n"
    g, errors = parse_ntriples(data)
    assert errors == []
    t = next(iter(g))
    assert t.subject == BlankNode("b1")
    assert t.object == BlankNode("b2")


def test_bad_escape_reported_with_line_number():
    data = '<http://e.org/s:1> <http://e.org/p:1> "bad \\q escape" .\n'
    g, errors = parse_ntriples(data)
    assert len(g) == 0
    assert len(errors) == 1
    assert errors[0].line == 1


def test_serialize_listing1_byte_exact():
    g, _ = parse_ntriples(LISTING1_LINE)
    assert serialize_ntriples(g) == (LISTING1_LINE + "\n").encode("utf-8")


def test_serialize_empty_graph():
    assert serialize_ntriples(Graph()) == b""


def test_serialization_is_insertion_order_insensitive():
    lines = [
        "<http://e.org/a:1> <http://e.org/p:1> <http://e.org/b:1> .",
        '<http://e.org/a:1> <http://e.org/p:1> "literal sorts last" .',
        "<http://e.org/a:1> <http://e.org/p:2> <http://e.org/b:2> .",
    ]
    g1, _ = parse_ntriples("\n".join(lines))
    g2, _ = parse_ntriples("\n".join(reversed(lines)))
    assert serialize_ntriples(g1) == serialize_ntriples(g2)
    # canonical order: IRIs before literals within one (s, p) group
    out = serialize_ntriples(g1).decode().splitlines()
    assert out[0].endswith("<http://e.org/b:1> .")
    assert out[1].endswith('"literal sorts last" .')


# --- randomized round-trip -------------------------------------------------

iri_strategy = st.builds(
    lambda local: Iri("http://example.org/t/" + local),
    st.text(
        st.sampled_from("abcdefghij0123456789-._~%!$&'()*+,;=:@/?#[]\x7f")
        | st.characters(min_codepoint=0xA0, blacklist_categories=("Cs",)),
        min_size=1,
        max_size=12,
    ),
)
lexical_strategy = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=24
)
literal_strategy = st.one_of(
    st.builds(Literal, lexical_strategy),
    st.builds(Literal, lexical_strategy, lang=st.sampled_from(["de", "en", "fr", "pt-br"])),
    st.builds(
        Literal,
        lexical_strategy,
        datatype=st.sampled_from([Iri("http://www.w3.org/2001/XMLSchema#integer")]),
    ),
)
subject_strategy = st.one_of(iri_strategy, st.builds(BlankNode, st.from_regex(r"[A-Za-z0-9]{1,8}", fullmatch=True)))
triple_strategy = st.builds(
    Triple,
    subject_strategy,
    iri_strategy,
    st.one_of(iri_strategy, subject_strategy, literal_strategy),
)
graph_strategy = st.builds(Graph, st.lists(triple_strategy, max_size=60))

# The RDF 1.1 N-Triples productions (W3C Recommendation, 2014), written
# here apart from ntriples.py; BLANK_NODE_LABEL is its ASCII subset.
_UCHAR = r"\\u[0-9A-Fa-f]{4}|\\U[0-9A-Fa-f]{8}"
_IRIREF = r'<(?:[^\x00-\x20<>"{}|^`\\]|%s)*>' % _UCHAR
_BLANK_NODE_LABEL = r"_:[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?"
_STRING_LITERAL_QUOTE = r'"(?:[^"\\\n\r]|\\[tbnrf"\'\\]|%s)*"' % _UCHAR
_LANGTAG = r"@[a-zA-Z]+(?:-[a-zA-Z0-9]+)*"
RDF11_TRIPLE_LINE = re.compile(
    r"(?:{i}|{b})[ \t]*{i}[ \t]*(?:{i}|{b}|{s}(?:\^\^{i}|{l})?)[ \t]*\.".format(
        i=_IRIREF, b=_BLANK_NODE_LABEL, s=_STRING_LITERAL_QUOTE, l=_LANGTAG
    )
)


@given(graph_strategy)
@settings(max_examples=200, deadline=None)
def test_round_trip_fixpoint(g):
    data = serialize_ntriples(g)
    assert [line for line in data.decode("utf-8").split("\n")[:-1] if not RDF11_TRIPLE_LINE.fullmatch(line)] == []
    reparsed, errors = parse_ntriples(data)
    assert errors == []
    assert reparsed == g
    assert serialize_ntriples(reparsed) == data
    assert parse_turtle(serialize_turtle(g, PrefixMap())) == g


@given(triple_strategy)
@settings(max_examples=200, deadline=None)
def test_single_triple_line_round_trips(t):
    g, errors = parse_ntriples(format_triple(t))
    assert errors == []
    assert set(g) == {t}


@pytest.mark.parametrize(
    "escape", ["\\uD800", "\\uDBFF", "\\uDC00", "\\uDFFF", "\\U0000D800", "\\U00110000", "\\UFFFFFFFF"]
)
def test_escape_of_no_scalar_value_reported_with_line_number(escape):
    data = (
        LISTING1_LINE + "\n"
        + '<http://e.org/s:1> <http://e.org/p:1> "x%sy"@de .\n' % escape
        + "<http://e.org/s:%s> <http://e.org/p:1> <http://e.org/o:1> .\n" % escape
    )
    g, errors = parse_ntriples(data)
    assert [e.line for e in errors] == [2, 3]
    assert serialize_ntriples(g) == (LISTING1_LINE + "\n").encode("utf-8")


# --- the line grammar, piece by piece ----------------------------------------
# A piece is (text, term): the term a valid piece stands for, or None for a
# piece that no line holding it survives. A line parses exactly when each of
# its pieces is valid, and then gives the triple of their terms.

UCHARS = [("\\u00E4", "ä"), ("\\u00e4", "ä"), ("\\U0001F600", "\U0001F600"), ("\\u0041", "A")]
ECHARS = [("\\t", "\t"), ("\\b", "\b"), ("\\n", "\n"), ("\\r", "\r"), ("\\f", "\f"), ('\\"', '"'), ("\\'", "'"),
          ("\\\\", "\\")]
BAD_ESCAPES = ["\\q", "\\u00G0", "\\u12", "\\uD800", "\\uDFFF", "\\U0000DC00", "\\U00110000", "\\"]
SEPARATORS = st.sampled_from(["", " ", "\t", " \t "])
# no '"' or '>' in a comment, so it cannot close an unterminated term before it
COMMENT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters='\n\r">'), max_size=8)
JUNK = st.builds(
    "{}{}".format,
    st.sampled_from("?x.'[(0="),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"), max_size=8),
).map(lambda text: (text, None))


def invalid(texts):
    return st.sampled_from(texts).map(lambda text: (text, None))


def decoded(chunks):
    return "".join(text for text, _ in chunks), "".join(value for _, value in chunks)


# RDF 1.1 IRIREF forbids {}|^` (and space, <>" and the backslash): those
# are on the invalid side below, raw or as a UCHAR
iri_chunks = st.lists(
    st.text("abcXYZ019-._~%!$&'()*+,;=:@/?#äß", min_size=1, max_size=4).map(lambda s: (s, s))
    | st.sampled_from(UCHARS),
    max_size=4,
).map(decoded)
valid_iri = iri_chunks.map(lambda c: ("<http://e.org/%s>" % c[0], Iri("http://e.org/" + c[1])))
IRI_FORBIDDEN = [" ", "{", "}", "|", "^", "`", "\\u007B", "\\u007C", "\\u0060", "\\u005C", "\\u0020", "\\u0008"]
invalid_iri = st.builds(
    lambda c, bad: ("<http://e.org/%s%s>" % (c[0], bad), None),
    iri_chunks,
    st.sampled_from(BAD_ESCAPES + [text for text, _ in ECHARS] + IRI_FORBIDDEN),
) | invalid(
    ["<http://e.org/a b>", "<no-scheme>", "<>", "<http://e.org/a", "<http://e.org/\\u003E>", "<http://e.org/\\n>"]
)
valid_bnode = st.from_regex(r"[A-Za-z0-9]{1,8}", fullmatch=True).map(lambda label: ("_:" + label, BlankNode(label)))
invalid_bnode = invalid(["_:", "_:ä", "_:a_b", "_:-x", "_:b٣"])

lexical_chunks = st.lists(
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters='"\\\n\r'), min_size=1, max_size=4)
    .map(lambda s: (s, s))
    | st.sampled_from(UCHARS + ECHARS + [("\\u0022", '"'), ("\\u005C", "\\")]),
    max_size=4,
).map(decoded)
suffix = st.one_of(
    st.just(("", {})),
    st.sampled_from([("@de", "de"), ("@EN", "en"), ("@pt-BR", "pt-br"), ("@de-1996", "de-1996")]).map(
        lambda tag: (tag[0], {"lang": tag[1]})
    ),
    valid_iri.map(lambda dt: ("^^" + dt[0], {"datatype": dt[1]})),
)
valid_literal = st.builds(
    lambda lex, suf: ('"%s"%s' % (lex[0], suf[0]), Literal(lex[1], **suf[1])), lexical_chunks, suffix
)
invalid_literal = st.builds(
    lambda lex, escape: ('"%s%s"' % (lex[0], escape), None), lexical_chunks, st.sampled_from(BAD_ESCAPES)
) | invalid(
    ['"abc', '"a"b"', '"x"@', '"x"@1de', '"x"@d', '"x"@de_x', '"x"@dé', '"x"@de-', '"x"^^', '"x"^^<no-scheme>',
       '"x"^<http://e.org/dt>', '"x"@de^^<http://e.org/dt>', '"x"^^_:b1']
)


def as_invalid(pieces):
    return pieces.map(lambda piece: (piece[0], None))


def mostly_valid(valid, invalid):
    """A valid piece three times in four, so that many lines hold one bad piece."""
    return st.sampled_from([valid, valid, valid, invalid]).flatmap(lambda pieces: pieces)


subjects = mostly_valid(
    valid_iri | valid_bnode, st.one_of(invalid_iri, invalid_bnode, as_invalid(valid_literal), JUNK)
)
predicates = mostly_valid(valid_iri, st.one_of(invalid_iri, as_invalid(valid_bnode), JUNK))
objects = mostly_valid(
    st.one_of(valid_iri, valid_bnode, valid_literal), st.one_of(invalid_iri, invalid_bnode, invalid_literal, JUNK)
)
ends = mostly_valid(
    st.builds(lambda sep, comment: ("." + sep + comment, True), SEPARATORS, st.just("") | COMMENT.map("#{}".format)),
    st.sampled_from(["", " x", ". x", ". .", ".x", ".."]).map(lambda text: (text, False)),
)


@st.composite
def triple_lines(draw):
    """(line, the triple it holds, or None when some piece is invalid)."""
    s, p, o = draw(subjects), draw(predicates), draw(objects)
    end, end_ok = draw(ends)
    line = draw(st.sampled_from(["", " ", "\t "])) + s[0]
    line += draw(SEPARATORS) + p[0] + draw(SEPARATORS) + o[0] + draw(SEPARATORS) + end
    valid = end_ok and None not in (s[1], p[1], o[1])
    return line, Triple(s[1], p[1], o[1]) if valid else None


@given(triple_lines())
@settings(max_examples=500, deadline=None)
def test_line_parses_exactly_when_every_piece_is_valid(case):
    line, expected = case
    g, errors = parse_ntriples(line)
    if expected is None:
        assert (len(g), [e.line for e in errors]) == (0, [1])
    else:
        assert (set(g), errors) == ({expected}, [])


# --- the IRI dictionary of one parse -------------------------------------------
# parse_ntriples builds each distinct IRI text once. Sharing terms across lines
# must not change what any line gives: a bad token fails on every line that
# holds it, and spellings of one term (an escape, a tag's case) stay equal.

def test_one_term_per_distinct_iri():
    g, errors = parse_ntriples(
        '<http://e.org/s> <http://e.org/p> <http://e.org/o> .\n'
        '<http://e.org/s> <http://e.org/q> "1"^^<http://e.org/o> .\n'
    )
    a, b = sorted(g, key=Triple.sort_key)
    assert errors == [] and a.subject is b.subject and a.object is b.object.datatype


SPELLINGS = ["<http://e.org/A>", "<http://e.org/\\u0041>", "<http://e.org/\\U00000041>"]
TAGGED = ['"x"@DE', '"x"@de', '"x"^^<http://e.org/\\u0041>', '"x"^^<http://e.org/A>']


@st.composite
def shared_token_lines(draw, bad, holds_bad=False):
    """(line, whether it holds the bad token): a line built from a few
    tokens that recur across the document."""
    pieces = [draw(st.sampled_from(SPELLINGS + ["_:b1", bad])), draw(st.sampled_from(SPELLINGS + [bad])),
              draw(st.sampled_from(SPELLINGS + TAGGED + ["_:b1", bad]))]
    if holds_bad:
        pieces[draw(st.integers(0, 2))] = bad
    return "%s %s %s ." % tuple(pieces), bad in pieces


@st.composite
def documents(draw):
    """(lines, the 1-based numbers of the lines that hold a bad IRI token
    repeated across the document)."""
    bad = draw(invalid_iri)[0]
    lines = draw(st.lists(triple_lines().map(lambda case: (case[0], False)) | shared_token_lines(bad), max_size=10))
    lines += draw(st.lists(shared_token_lines(bad, holds_bad=True), min_size=2, max_size=3))
    lines = draw(st.permutations(lines))
    return [line for line, _ in lines], [n for n, (_, has_bad) in enumerate(lines, start=1) if has_bad]


@given(documents())
@example((['<http://e.org/A> <http://e.org/A> "x"@DE .', '<http://e.org/\\u0041> <http://e.org/A> "x"@de .',
           '<http://e.org/a b> <http://e.org/A> <http://e.org/A> .', '<http://e.org/A> <http://e.org/a b> "x"@de .'],
          [3, 4]))
@settings(max_examples=200, deadline=None)
def test_document_parses_as_its_lines_do_alone(case):
    lines, bad_lines = case
    g, errors = parse_ntriples("\n".join(lines))
    alone = [parse_ntriples(line) for line in lines]
    assert set(g) == {t for one, _ in alone for t in one}
    assert errors == [ParseError(n, e.message) for n, (_, errs) in enumerate(alone, start=1) for e in errs]
    assert set(bad_lines) <= {e.line for e in errors}
    terms = [term for graph in [g] + [one for one, _ in alone] for t in graph
             for term in (t.subject, t.predicate, t.object)]
    for a in terms:
        for b in terms:
            if a == b:
                assert (hash(a), a.sort_key()) == (hash(b), b.sort_key())
