import random

from skoshub.graph import Graph
from skoshub.ntriples import parse_ntriples
from skoshub.terms import Iri, Literal, PrefixMap, Triple
from skoshub.turtle import serialize_turtle

from conftest import LISTING1_LINE, SKOS
from turtle_reader import parse_turtle


def skos_prefixes():
    pm = PrefixMap()
    pm.bind("skos", Iri(SKOS))
    pm.bind("thesoz", Iri("http://lod.gesis.org/thesoz/"))
    pm.bind("stw", Iri("http://zbw.eu/stw/"))
    return pm


def test_listing1_uses_skos_prefix():
    g, _ = parse_ntriples(LISTING1_LINE)
    out = serialize_turtle(g, skos_prefixes()).decode()
    assert "@prefix skos: <%s> ." % SKOS in out
    assert "skos:exactMatch" in out


def test_graph_sorted_once(thesoz_graph, monkeypatch):
    calls = []
    sort_key = Triple.sort_key
    monkeypatch.setattr(Triple, "sort_key", lambda t: calls.append(t) or sort_key(t))
    serialize_turtle(thesoz_graph, skos_prefixes())
    assert len(calls) == len(thesoz_graph)


def test_empty_graph_emits_nothing():
    assert serialize_turtle(Graph(), skos_prefixes()) == b""


def test_unused_prefixes_omitted():
    g, _ = parse_ntriples("<http://e.org/a:1> <http://e.org/p:1> <http://e.org/b:1> .")
    out = serialize_turtle(g, skos_prefixes()).decode()
    assert "@prefix" not in out


def test_shared_subject_grouped_with_semicolon():
    data = (
        "<http://e.org/a:1> <http://e.org/p:1> <http://e.org/b:1> .\n"
        "<http://e.org/a:1> <http://e.org/p:2> <http://e.org/b:2> .\n"
    )
    g, _ = parse_ntriples(data)
    out = serialize_turtle(g, PrefixMap()).decode()
    assert out.count("<http://e.org/a:1>") == 1
    assert ";" in out
    assert parse_turtle(out) == g


def test_shared_predicate_objects_joined_with_comma():
    data = (
        "<http://e.org/a:1> <http://e.org/p:1> <http://e.org/b:1> .\n"
        "<http://e.org/a:1> <http://e.org/p:1> <http://e.org/b:2> .\n"
    )
    g, _ = parse_ntriples(data)
    out = serialize_turtle(g, PrefixMap()).decode()
    assert "," in out
    assert parse_turtle(out) == g


def test_rdf_type_abbreviated_as_a():
    data = (
        "<http://e.org/a:1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
        "<http://www.w3.org/2004/02/skos/core#Concept> .\n"
    )
    g, _ = parse_ntriples(data)
    out = serialize_turtle(g, skos_prefixes()).decode()
    assert " a skos:Concept" in out
    assert parse_turtle(out) == g


def test_unsafe_localnames_fall_back_to_full_iri():
    pm = PrefixMap()
    pm.bind("e", Iri("http://e.org/"))
    # local part with a slash is not written as a prefixed name
    g = Graph([Triple(Iri("http://e.org/a/b:1"), Iri("http://e.org/p:1"), Literal("x"))])
    out = serialize_turtle(g, pm).decode()
    assert "<http://e.org/a/b:1>" in out
    assert parse_turtle(out) == g


def test_random_graphs_reparse_equal(thesoz_graph, stw_graph):
    assert parse_turtle(serialize_turtle(thesoz_graph, skos_prefixes())) == thesoz_graph
    assert parse_turtle(serialize_turtle(stw_graph, skos_prefixes())) == stw_graph
    rng = random.Random(11)
    for _ in range(20):
        triples = [
            Triple(
                Iri("http://e.org/s:%d" % rng.randrange(6)),
                Iri("http://e.org/p:%d" % rng.randrange(4)),
                rng.choice(
                    [
                        Iri("http://e.org/o:%d" % rng.randrange(6)),
                        Literal("value %d" % rng.randrange(9), lang=rng.choice([None, "de"])),
                        Literal('tricky "quoted" \n value'),
                    ]
                ),
            )
            for _ in range(rng.randrange(0, 30))
        ]
        g = Graph(triples)
        assert parse_turtle(serialize_turtle(g, skos_prefixes())) == g
