import pytest

from skoshub.terms import BlankNode, Iri, Literal, PrefixMap, TermError, Triple


def test_iri_accepts_absolute():
    iri = Iri("http://lod.gesis.org/thesoz/concept/10039068")
    assert iri.value.endswith("10039068")


@pytest.mark.parametrize(
    "bad",
    ["", "no-scheme", "http://a b", 'http://x"y', "http://x<y>", "/relative/path:x"]
    # the rest of what RDF 1.1 IRIREF forbids, and a lone surrogate
    + ["http://x%sy" % c for c in "{}|^`\\\x00\x08\x1f\ud800"],
)
def test_iri_rejects_invalid(bad):
    with pytest.raises(TermError):
        Iri(bad)


def test_literal_lang_lowercased_and_validated():
    lit = Literal("Migration", lang="DE")
    assert lit.lang == "de"
    with pytest.raises(TermError):
        Literal("x", lang="not a tag")
    with pytest.raises(TermError):
        Literal("x", lang="toolonglang")


def test_literal_lang_and_datatype_exclusive():
    with pytest.raises(TermError):
        Literal("1", lang="de", datatype=Iri("http://www.w3.org/2001/XMLSchema#int"))


def test_blank_node_label_charset():
    assert BlankNode("b1").label == "b1"
    with pytest.raises(TermError):
        BlankNode("has space")
    with pytest.raises(TermError):
        BlankNode("")


def test_triple_rejects_literal_subject_and_noniri_predicate():
    iri = Iri("http://example.org/x:a")
    with pytest.raises(TermError):
        Triple(Literal("x"), iri, iri)
    with pytest.raises(TermError):
        Triple(iri, BlankNode("b"), iri)


def test_sort_key_orders_literals_after_iris():
    iri = Iri("http://a.example/z")
    lit = Literal("aaa")
    bn = BlankNode("a")
    assert iri.sort_key() < bn.sort_key() < lit.sort_key()


def test_prefix_map_unique_prefixes_and_compaction():
    pm = PrefixMap()
    skos = Iri("http://www.w3.org/2004/02/skos/core#")
    pm.bind("skos", skos)
    with pytest.raises(TermError):
        pm.bind("skos", Iri("http://other.example/"))
    assert pm.compact(Iri(skos.value + "exactMatch")) == ("skos", "exactMatch")
    assert pm.compact(Iri("http://unrelated.example/x")) is None
    assert pm.expand("skos:broadMatch").value == skos.value + "broadMatch"
    assert pm.expand("unknown:x") is None


def test_prefix_map_longest_namespace_wins():
    pm = PrefixMap()
    pm.bind("t", Iri("http://lod.gesis.org/thesoz/"))
    pm.bind("tc", Iri("http://lod.gesis.org/thesoz/concept/"))
    assert pm.compact(Iri("http://lod.gesis.org/thesoz/concept/1"))[0] == "tc"
