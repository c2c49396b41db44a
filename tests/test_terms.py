import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def test_literal_rejects_lone_surrogate():
    # no UTF-8 output can hold it, as Iri already says
    with pytest.raises(TermError):
        Literal("a\ud800")


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


# --- the hash and sort key each term stores when it is built ---------------------

def key_from_scratch(t):
    """The canonical sort key of a term, computed from its fields as they read now."""
    if isinstance(t, Iri):
        return (0, t.value.encode("utf-8"))
    if isinstance(t, BlankNode):
        return (1, t.label.encode("utf-8"))
    return (2, t.lexical.encode("utf-8"), (t.lang or "").encode("utf-8"),
            (t.datatype.value if t.datatype else "").encode("utf-8"))


text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
iri_text = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zs"), blacklist_characters='<>"{}|^`\\'),
                   max_size=8).map("http://e.org/{}".format)
lang_tag = st.from_regex(r"[A-Za-z]{2,3}(-[A-Za-z0-9]{1,8})?", fullmatch=True)
# (build, its arguments): each term is built twice from equal arguments, with
# the language tag in a different case the second time
term_recipes = st.one_of(
    iri_text.map(lambda v: (Iri, (v,), {}, {})),
    st.from_regex(r"[A-Za-z0-9]{1,8}", fullmatch=True).map(lambda label: (BlankNode, (label,), {}, {})),
    text.map(lambda lex: (Literal, (lex,), {}, {})),
    st.tuples(text, lang_tag).map(lambda c: (Literal, (c[0],), {"lang": c[1]}, {"lang": c[1].swapcase()})),
    st.tuples(text, iri_text).map(lambda c: (Literal, (c[0],), {"datatype": Iri(c[1])}, {"datatype": Iri(c[1])})),
)


@given(term_recipes)
@example((Literal, ("a",), {"lang": "DE"}, {"lang": "de"}))
@settings(max_examples=300, deadline=None)
def test_stored_hash_and_sort_key_match_the_fields(recipe):
    build, args, kwargs, other_kwargs = recipe
    a, b = build(*args, **kwargs), build(*args, **other_kwargs)
    assert a == b
    assert a.sort_key() == b.sort_key() == key_from_scratch(a) == key_from_scratch(b)
    assert hash(a) == hash(b) == hash(key_from_scratch(a))
