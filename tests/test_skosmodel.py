from hypothesis import given, settings
from hypothesis import strategies as st

from skoshub import namespaces as ns
from skoshub.graph import Graph
from skoshub.skosmodel import (
    DIAGNOSTIC_REGISTRY,
    Severity,
    diagnostics_json,
    diagnostics_tsv,
    extract_concept,
    extract_schemes,
    make_diagnostic,
    resolve_xl_labels,
    skos_index,
    validate_skos,
)
from skoshub.terms import BlankNode, Iri, Literal, Triple

from conftest import THESOZ_CONCEPT


def iri(v):
    return Iri(v)


CONCEPT_A = iri("http://e.org/c:a")
CONCEPT_B = iri("http://e.org/c:b")
SCHEME = iri("http://e.org/scheme:1")


def scheme_graph(*extra):
    g = Graph()
    g.insert(Triple(SCHEME, ns.RDF_TYPE, ns.SKOS_CONCEPT_SCHEME))
    for c in (CONCEPT_A, CONCEPT_B):
        g.insert(Triple(c, ns.RDF_TYPE, ns.SKOS_CONCEPT))
        g.insert(Triple(c, ns.SKOS_IN_SCHEME, SCHEME))
    g.update(extra)
    return g


class TestExtractSchemes:
    def test_fixture_thesoz(self, thesoz_graph):
        schemes, diags = extract_schemes(thesoz_graph)
        assert len(schemes) == 1
        assert len(schemes[0].concepts) == 5
        assert schemes[0].title.lexical.startswith("Mini-Thesaurus")
        assert diags == []

    def test_empty_graph(self):
        schemes, diags = extract_schemes(Graph())
        assert schemes == []
        assert diags == []

    def test_orphan_concept_reported_not_dropped(self):
        g = Graph()
        g.insert(Triple(SCHEME, ns.RDF_TYPE, ns.SKOS_CONCEPT_SCHEME))
        g.insert(Triple(CONCEPT_A, ns.RDF_TYPE, ns.SKOS_CONCEPT))
        g.insert(Triple(CONCEPT_A, ns.SKOS_PREF_LABEL, Literal("a", lang="de")))
        schemes, diags = extract_schemes(g)
        assert schemes[0].concepts == set()
        assert [d.code for d in diags] == ["ORPHAN_CONCEPT"]

    def test_top_concept_membership_counts(self):
        g = Graph()
        g.insert(Triple(SCHEME, ns.RDF_TYPE, ns.SKOS_CONCEPT_SCHEME))
        g.insert(Triple(CONCEPT_A, ns.SKOS_TOP_CONCEPT_OF, SCHEME))
        g.insert(Triple(SCHEME, ns.SKOS_HAS_TOP_CONCEPT, CONCEPT_B))
        schemes, diags = extract_schemes(g)
        assert schemes[0].concepts == {CONCEPT_A, CONCEPT_B}
        assert diags == []


class TestResolveXlLabels:
    def test_pref_label_dumbed_down(self):
        label_node = iri("http://e.org/label:1")
        g = Graph(
            [
                Triple(CONCEPT_A, ns.SKOSXL_PREF_LABEL, label_node),
                Triple(label_node, ns.SKOSXL_LITERAL_FORM, Literal("Migration", lang="de")),
            ]
        )
        out, diags = resolve_xl_labels(g)
        assert diags == []
        assert Triple(CONCEPT_A, ns.SKOS_PREF_LABEL, Literal("Migration", lang="de")) in out
        # original XL triples retained
        assert all(t in out for t in g)

    def test_alt_and_hidden_variants(self):
        alt_node = iri("http://e.org/label:2")
        hidden_node = iri("http://e.org/label:3")
        g = Graph(
            [
                Triple(CONCEPT_A, ns.SKOSXL_ALT_LABEL, alt_node),
                Triple(alt_node, ns.SKOSXL_LITERAL_FORM, Literal("Wanderung", lang="de")),
                Triple(CONCEPT_A, ns.SKOSXL_HIDDEN_LABEL, hidden_node),
                Triple(hidden_node, ns.SKOSXL_LITERAL_FORM, Literal("Zuwanderung", lang="de")),
            ]
        )
        out, diags = resolve_xl_labels(g)
        assert diags == []
        assert Triple(CONCEPT_A, ns.SKOS_ALT_LABEL, Literal("Wanderung", lang="de")) in out
        assert Triple(CONCEPT_A, ns.SKOS_HIDDEN_LABEL, Literal("Zuwanderung", lang="de")) in out

    def test_no_xl_triples_returns_equal_graph(self, thesoz_graph):
        out, diags = resolve_xl_labels(thesoz_graph)
        assert out == thesoz_graph
        assert diags == []

    def test_missing_literal_form_warns(self):
        label_node = iri("http://e.org/label:1")
        g = Graph([Triple(CONCEPT_A, ns.SKOSXL_PREF_LABEL, label_node)])
        out, diags = resolve_xl_labels(g)
        assert out == g
        assert [d.code for d in diags] == ["XL_NO_LITERAL_FORM"]
        assert diags[0].severity is Severity.WARNING

    def test_idempotent(self):
        label_node = iri("http://e.org/label:1")
        g = Graph(
            [
                Triple(CONCEPT_A, ns.SKOSXL_PREF_LABEL, label_node),
                Triple(label_node, ns.SKOSXL_LITERAL_FORM, Literal("Migration", lang="de")),
            ]
        )
        once, _ = resolve_xl_labels(g)
        twice, _ = resolve_xl_labels(once)
        assert once == twice


class TestExtractConcept:
    def test_thesoz_fixture_concept(self, thesoz_graph):
        c = extract_concept(thesoz_graph, iri(THESOZ_CONCEPT))
        assert c is not None
        assert c.prefLabels["de"].lexical == "Informationswissenschaft"
        assert c.altLabels["de"][0].lexical == "Informationskunde"
        assert c.scheme == iri("http://lod.gesis.org/thesoz/thesoz")
        assert len(c.broader) == 1

    def test_unknown_iri_absent(self, thesoz_graph):
        assert extract_concept(thesoz_graph, iri("http://e.org/nothing:1")) is None

    def test_labels_and_relations_reflected(self):
        g = scheme_graph(
            Triple(CONCEPT_A, ns.SKOS_ALT_LABEL, Literal("one", lang="en")),
            Triple(CONCEPT_A, ns.SKOS_ALT_LABEL, Literal("two", lang="en")),
            Triple(CONCEPT_A, ns.SKOS_BROADER, CONCEPT_B),
        )
        c = extract_concept(g, CONCEPT_A)
        assert [l.lexical for l in c.altLabels["en"]] == ["one", "two"]
        assert c.broader == {CONCEPT_B}

    def test_label_sets_match_graph_brute_force(self, thesoz_graph, stw_graph):
        for g in (thesoz_graph, stw_graph):
            for s in {t.subject for t in g}:
                if not isinstance(s, Iri):
                    continue
                c = extract_concept(g, s)
                if c is None:
                    continue
                expected_pref = {
                    t.object for t in g.match(s=s, p=ns.SKOS_PREF_LABEL)
                }
                got_pref = set(c.prefLabels.values())
                assert got_pref == expected_pref

    def test_best_language_preference(self, stw_graph):
        c = extract_concept(stw_graph, iri("http://zbw.eu/stw/descriptor/11971-0"))
        assert c.pref_label(["en", "de"]).lang == "en"
        assert c.pref_label(["fr", "de"]).lang == "de"
        assert c.pref_label([]) is not None  # any-language fallback


class TestValidateSkos:
    def test_clean_fixtures_have_no_findings(self, thesoz_graph, stw_graph):
        assert validate_skos(thesoz_graph) == []
        assert validate_skos(stw_graph) == []

    def test_duplicate_preflabel(self):
        g = scheme_graph(
            Triple(CONCEPT_A, ns.SKOS_PREF_LABEL, Literal("A", lang="de")),
            Triple(CONCEPT_A, ns.SKOS_PREF_LABEL, Literal("B", lang="de")),
        )
        assert [d.code for d in validate_skos(g)] == ["DUPLICATE_PREFLABEL"]

    def test_label_clash(self):
        g = scheme_graph(
            Triple(CONCEPT_A, ns.SKOS_PREF_LABEL, Literal("A", lang="de")),
            Triple(CONCEPT_A, ns.SKOS_ALT_LABEL, Literal("A", lang="de")),
        )
        assert [d.code for d in validate_skos(g)] == ["LABEL_CLASH"]

    def test_mapping_to_non_concept(self):
        g = scheme_graph(Triple(CONCEPT_A, ns.SKOS_EXACT_MATCH, SCHEME))
        assert [d.code for d in validate_skos(g)] == ["MAPPING_NON_CONCEPT"]

    def test_mapping_same_scheme(self):
        g = scheme_graph(Triple(CONCEPT_A, ns.SKOS_EXACT_MATCH, CONCEPT_B))
        assert [d.code for d in validate_skos(g)] == ["MAPPING_SAME_SCHEME"]

    def test_dangling_mapping_target_is_info(self):
        external = iri("http://elsewhere.example/c:9")
        g = scheme_graph(Triple(CONCEPT_A, ns.SKOS_EXACT_MATCH, external))
        diags = validate_skos(g)
        assert [d.code for d in diags] == ["DANGLING_MAPPING_TARGET"]
        assert diags[0].severity is Severity.INFO

    def test_external_graph_silences_dangling(self, stw_graph):
        target = iri("http://zbw.eu/stw/descriptor/11971-0")
        g = scheme_graph(Triple(CONCEPT_A, ns.SKOS_EXACT_MATCH, target))
        assert validate_skos(g, external_graphs=[stw_graph]) == []

    def test_seeded_faults_all_detected_exactly(self):
        seeded = {
            "DUPLICATE_PREFLABEL",
            "LABEL_CLASH",
            "ORPHAN_CONCEPT",
            "MAPPING_SAME_SCHEME",
            "MAPPING_NON_CONCEPT",
            "DANGLING_MAPPING_TARGET",
        }
        orphan = iri("http://e.org/c:orphan")
        c = iri("http://e.org/c:c")
        g = scheme_graph(
            Triple(CONCEPT_A, ns.SKOS_PREF_LABEL, Literal("A", lang="de")),
            Triple(CONCEPT_A, ns.SKOS_PREF_LABEL, Literal("A2", lang="de")),
            Triple(CONCEPT_B, ns.SKOS_PREF_LABEL, Literal("B", lang="de")),
            Triple(CONCEPT_B, ns.SKOS_ALT_LABEL, Literal("B", lang="de")),
            Triple(orphan, ns.RDF_TYPE, ns.SKOS_CONCEPT),
            Triple(c, ns.RDF_TYPE, ns.SKOS_CONCEPT),
            Triple(c, ns.SKOS_IN_SCHEME, SCHEME),
            Triple(CONCEPT_A, ns.SKOS_EXACT_MATCH, c),  # same scheme
            Triple(CONCEPT_B, ns.SKOS_BROAD_MATCH, SCHEME),  # non-concept object
            Triple(c, ns.SKOS_RELATED_MATCH, iri("http://elsewhere.example/x:1")),
        )
        codes = {d.code for d in validate_skos(g)}
        assert codes == seeded


def test_registry_codes_are_closed_and_typed():
    for code, (severity, description) in DIAGNOSTIC_REGISTRY.items():
        assert isinstance(severity, Severity)
        assert description
        d = make_diagnostic(code, message="m")
        assert d.severity is severity


def test_report_formats():
    d1 = make_diagnostic("ORPHAN_CONCEPT", subject=CONCEPT_A, message="no scheme")
    d2 = make_diagnostic("XWALK_OK", message="fine", source_location=("f.xwalk", 3))
    tsv = diagnostics_tsv([d1, d2])
    assert tsv.splitlines()[0] == "Warning\tORPHAN_CONCEPT\thttp://e.org/c:a\tno scheme"
    import json

    records = json.loads(diagnostics_json([d1, d2]))
    assert records[1] == {
        "severity": "Info",
        "code": "XWALK_OK",
        "subject": None,
        "message": "fine",
        "source": ["f.xwalk", 3],
    }


# --- the per-graph SKOS index ---------------------------------------------------

NODES = [Iri("http://e.org/n%d" % i) for i in range(4)]
MEMBERSHIP = (ns.SKOS_IN_SCHEME, ns.SKOS_TOP_CONCEPT_OF, ns.SKOS_HAS_TOP_CONCEPT)
index_triple = st.builds(
    Triple,
    st.sampled_from(NODES + [BlankNode("b0")]),
    st.sampled_from(MEMBERSHIP + (ns.RDF_TYPE, ns.SKOS_PREF_LABEL)),
    st.sampled_from(
        NODES + [BlankNode("b0"), Literal("x"), Literal("y", lang="de"), ns.SKOS_CONCEPT, ns.SKOS_CONCEPT_SCHEME]
    ),
)


def brute_schemes(triples) -> dict:
    """concept -> scheme set, scanned from scratch."""
    out: dict = {}
    for t in triples:
        if not (isinstance(t.subject, Iri) and isinstance(t.object, Iri)):
            continue
        if t.predicate in (ns.SKOS_IN_SCHEME, ns.SKOS_TOP_CONCEPT_OF):
            out.setdefault(t.subject, set()).add(t.object)
        elif t.predicate == ns.SKOS_HAS_TOP_CONCEPT:
            out.setdefault(t.object, set()).add(t.subject)
    return out


def assert_index_matches_brute_force(g, triples):
    index, schemes = skos_index(g), brute_schemes(triples)
    for term in NODES + [BlankNode("b0"), Literal("x"), ns.SKOS_CONCEPT]:
        expected = schemes.get(term, set())
        got = index.schemes.get(term, ())
        assert set(got) == expected and list(got) == sorted(got, key=lambda i: i.value)
        typed = isinstance(term, Iri) and Triple(term, ns.RDF_TYPE, ns.SKOS_CONCEPT) in triples
        assert index.is_concept(term) == (typed or term in schemes)
        concept = extract_concept(g, term) if isinstance(term, Iri) else None
        if concept is not None:
            assert concept.scheme == (min(expected, key=lambda i: i.value) if expected else None)


@given(st.lists(index_triple, max_size=12))
@settings(max_examples=200, deadline=None)
def test_skos_index_equals_brute_force_scan(triples):
    assert_index_matches_brute_force(Graph(triples), set(triples))


@given(st.lists(index_triple, min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_insert_after_read_gives_fresh_index(triples):
    g, seen = Graph(), set()
    for t in triples:
        skos_index(g)  # read, so the next insert must drop what was built
        g.insert(t)
        seen.add(t)
        assert_index_matches_brute_force(g, seen)


def test_sealed_graph_keeps_one_index(thesoz_graph):
    g = thesoz_graph.copy().freeze()
    assert skos_index(g) is skos_index(g)
