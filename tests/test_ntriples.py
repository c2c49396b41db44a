from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LISTING1_LINE
from skoshub.graph import Graph
from skoshub.ntriples import format_triple, load_ntriples, parse_ntriples, serialize_ntriples
from skoshub.terms import BlankNode, Iri, Literal, Triple


def test_parse_single_mapping_line():
    g, errors = parse_ntriples(LISTING1_LINE)
    assert errors == []
    assert len(g) == 1
    t = next(iter(g))
    assert t.subject == Iri("http://lod.gesis.org/thesoz/concept/10039068")
    assert t.predicate == Iri("http://www.w3.org/2004/02/skos/core#exactMatch")
    assert t.object == Iri("http://zbw.eu/stw/descriptor/11971-0")


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
    st.text(alphabet="abcdefghij0123456789-._~%!$&'()*+,;=:@/", min_size=1, max_size=12),
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


@given(graph_strategy)
@settings(max_examples=200, deadline=None)
def test_round_trip_fixpoint(g):
    data = serialize_ntriples(g)
    reparsed, errors = parse_ntriples(data)
    assert errors == []
    assert reparsed == g
    assert serialize_ntriples(reparsed) == data


@given(triple_strategy)
@settings(max_examples=200, deadline=None)
def test_single_triple_line_round_trips(t):
    g, errors = parse_ntriples(format_triple(t))
    assert errors == []
    assert set(g) == {t}
