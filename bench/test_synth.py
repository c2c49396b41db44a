"""Tests of the benchmark's own generator, oracle and Turtle reader.

The oracle is checked on a tiny store whose expectations are written out
by hand, so a fault in the oracle cannot pass for a fault in the program.
"""

from __future__ import annotations

import service
import synth
from synth import EXACT, PREF, SKOS, iri, lit

A = "http://lod.gesis.org/thesoz/concept/10034311"
B = "http://lod.gesis.org/thesoz/concept/10034312"
C = "http://zbw.eu/stw/descriptor/10034-3"
D = "http://zbw.eu/stw/descriptor/10035-8"
S1 = "http://lod.gesis.org/thesoz/thesoz"
S2 = "http://zbw.eu/stw/scheme"


def tiny():
    """Two concepts per thesaurus, one exact match both ways, one combination."""
    thesoz = synth.Thesaurus("thesoz", "TheSoz", "http://lod.gesis.org/thesoz/", S1, [A, B])
    stw = synth.Thesaurus("stw", "STW", "http://zbw.eu/stw/", S2, [C, D])
    for th, c, de, en in ((thesoz, A, "Arbeitsmarkt", "labour market"), (thesoz, B, "Ämter", "offices"),
                          (stw, C, "Arbeitsmarkt", "labour market"), (stw, D, "Straßenbau", "road building")):
        th.pref[c] = {"de": [de], "en": [en]}
        th.add(c, synth.IN_SCHEME, iri(th.scheme))
        th.add(c, PREF, lit(de, "de"))
        th.add(c, PREF, lit(en, "en"))
    thesoz.broader[B] = A
    thesoz.narrower[A] = [B]
    thesoz.add(B, synth.BROADER, iri(A))
    thesoz.add(A, synth.NARROWER, iri(B))
    node = synth.combination_node(B, (C, D))
    mappings = [
        (A, EXACT, iri(C)), (C, EXACT, iri(A)),
        (B, synth.COMBINES, iri(node)), (node, synth.TYPE, iri(synth.COMBINATION)),
        (node, synth.MEMBER, iri(C)), (node, synth.MEMBER, iri(D)),
    ]
    return synth.Model.of(thesoz, stw, mappings, [(B, (C, D))])


def test_same_seed_gives_identical_inputs(tmp_path):
    a = synth.Model(7, concepts=120).write(tmp_path / "a").parent
    b = synth.Model(7, concepts=120).write(tmp_path / "b").parent
    c = synth.Model(8, concepts=120).write(tmp_path / "c").parent
    names = sorted(p.name for p in a.iterdir())
    assert names == ["manifest.json", "mappings.nt", "stw.nt", "thesoz-stw.xwalk", "thesoz.nt"]
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    assert (a / "thesoz.nt").read_bytes() != (c / "thesoz.nt").read_bytes()


def test_generated_crosswalk_uses_every_relation_and_failure_class():
    m = synth.Model(3)
    codes = {c for cs in m.expected_codes.values() for c in cs}
    assert codes == {"XWALK_OK", "XWALK_NO_INVERSE", "XWALK_NONPREFERRED", "XWALK_AMBIGUOUS", "XWALK_UNRESOLVED"}
    relations = {line.split("\t")[1] for line in m.crosswalk.splitlines()[1:] if not line.startswith("#")}
    assert relations == {"=", "<", ">", "^"}
    assert any(len(line.split("\t")) == 4 for line in m.crosswalk.splitlines())
    assert 20000 < len(m.merged) < 60000
    assert any("ß" in label or "ü" in label for labels in m.thesoz.pref.values() for label in labels["de"])


def test_canonical_order_is_utf8_bytes_with_iris_before_literals():
    triples = [(A, PREF, lit("Ämter", "de")), (A, PREF, lit("Zoll", "de")), (A, PREF, iri(C))]
    assert synth.ntriples(triples).splitlines() == [
        "<%s> <%s> <%s> ." % (A, PREF, C),
        '<%s> <%s> "Zoll"@de .' % (A, PREF),
        '<%s> <%s> "Ämter"@de .' % (A, PREF),
    ]


def test_fnv1a64_reference_vectors():
    assert synth.fnv1a64(b"") == 0xCBF29CE484222325
    assert synth.fnv1a64(b"a") == 0xAF63DC4C8601EC8C


def test_oracle_description_on_tiny_store():
    m = tiny()
    node = synth.combination_node(B, (C, D))
    assert m.description(C) == {
        '<%s> <%s> <%s> .' % (C, synth.IN_SCHEME, S2),
        '<%s> <%s> "Arbeitsmarkt"@de .' % (C, PREF),
        '<%s> <%s> "labour market"@en .' % (C, PREF),
        '<%s> <%s> <%s> .' % (C, EXACT, A),
        '<%s> <%s> <%s> .' % (A, EXACT, C),
        '<%s> <%s> "Arbeitsmarkt"@de .' % (A, PREF),
        # C is a combination member: the source and both members are labelled
        '<%s> <%s> "Ämter"@de .' % (B, PREF),
        '<%s> <%s> "Straßenbau"@de .' % (D, PREF),
    }
    assert '<%s> <%s> <%s> .' % (B, synth.COMBINES, node) in m.description(B)


def test_oracle_links_labels_and_matches_on_tiny_store():
    m = tiny()
    assert m.page_links(A) == {"broader": [], "narrower": [B], "mapping": [C]}
    assert m.page_links(C) == {"broader": [], "narrower": [], "mapping": [A, B]}
    assert m.page_links(D) == {"broader": [], "narrower": [], "mapping": [B]}
    assert m.concept_label(B, ("en", "de")) == lit("offices", "en")
    assert m.concept_label(B, ()) == lit("Ämter", "de")
    assert m.match(p=EXACT) == [(A, EXACT, iri(C)), (C, EXACT, iri(A))]
    assert m.match(s=A, graph=m.thesoz) == [(A, synth.IN_SCHEME, iri(S1)), (A, synth.NARROWER, iri(B)),
                                            (A, PREF, lit("Arbeitsmarkt", "de")), (A, PREF, lit("labour market", "en"))]


def test_turtle_reader_reads_prefixes_lists_and_a():
    text = (
        "@prefix skos: <%s> .\n\n"
        "<%s> a skos:Concept ;\n"
        '    skos:prefLabel "Ämter, alt; neu"@de, "offices"@en .\n' % (SKOS, B)
    )
    assert service.read_turtle(text) == {
        "<%s> <%s> <%s> ." % (B, synth.TYPE, synth.CONCEPT),
        '<%s> <%s> "Ämter, alt; neu"@de .' % (B, PREF),
        '<%s> <%s> "offices"@en .' % (B, PREF),
    }


def test_malformed_answers_are_failures_not_exceptions():
    turtle = service.check_turtle(set())
    headers = {"content-type": "text/turtle; charset=utf-8"}
    assert "ends inside a statement" in service.verdict(turtle, 200, headers, b"<%s> a" % B.encode())
    assert "UnicodeDecodeError" in service.verdict(service.check_ntriples(set()), 200, {}, b"\xff")
    assert service.verdict(service.check_ntriples(set()), 200, {}, b"") is None
