import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skoshub import namespaces as ns
from skoshub.graph import Graph
from skoshub.multistore import (
    MappingRef,
    MultiStore,
    StoreError,
    ThesaurusRegistration,
    load_manifest,
)
from skoshub.ntriples import parse_ntriples, serialize_ntriples
from skoshub.skosmodel import extract_concept
from skoshub.terms import BlankNode, Iri, Literal, Triple

from conftest import FIXTURES, STW_CONCEPT, THESOZ_CONCEPT, fixture_manifest_json, load_fixture_graph


def make_store():
    store = MultiStore()
    store.register_thesaurus(
        ThesaurusRegistration(
            "thesoz", Iri("http://lod.gesis.org/thesoz/"), load_fixture_graph("mini_thesoz.nt"), title="Mini-TheSoz"
        )
    )
    store.register_thesaurus(
        ThesaurusRegistration(
            "stw", Iri("http://zbw.eu/stw/"), load_fixture_graph("mini_stw.nt"), title="Mini-STW"
        )
    )
    return store


def listing1_graph():
    g, _ = parse_ntriples((FIXTURES / "mappings.nt").read_bytes())
    return g


class TestRegistration:
    def test_two_fixture_registrations(self):
        store = make_store()
        assert [r.id for r in store.registrations] == ["thesoz", "stw"]

    def test_duplicate_id_rejected(self):
        store = make_store()
        with pytest.raises(StoreError):
            store.register_thesaurus(
                ThesaurusRegistration("thesoz", Iri("http://other.example/"), Graph())
            )

    def test_overlapping_base_rejected_both_directions(self):
        store = make_store()
        with pytest.raises(StoreError):
            store.register_thesaurus(
                ThesaurusRegistration("t2", Iri("http://lod.gesis.org/thesoz/concept/"), Graph())
            )
        with pytest.raises(StoreError):
            store.register_thesaurus(
                ThesaurusRegistration("broad", Iri("http://zbw.eu/"), Graph())
            )

    def test_registration_seals_graph(self):
        store = make_store()
        assert all(r.graph.frozen for r in store.registrations)


class TestLoadMappings:
    def test_listing1_clean(self):
        store = make_store()
        diags = store.load_mappings("thesoz-stw", listing1_graph())
        assert diags == []
        assert len(store.mapping_graphs) == 1

    def test_empty_graph_noop(self):
        store = make_store()
        assert store.load_mappings("x", Graph()) == []

    def test_duplicate_id_rejected(self):
        store = make_store()
        store.load_mappings("thesoz-stw", listing1_graph())
        with pytest.raises(StoreError, match="duplicate mapping id 'thesoz-stw'"):
            store.load_mappings("thesoz-stw", Graph())
        assert [id for id, _ in store.mapping_graphs] == ["thesoz-stw"]

    def test_unregistered_endpoint_retained_with_info(self):
        store = make_store()
        g = Graph(
            [Triple(Iri(THESOZ_CONCEPT), ns.SKOS_EXACT_MATCH, Iri("http://elsewhere.example/c:1"))]
        )
        diags = store.load_mappings("m", g)
        assert [d.code for d in diags] == ["DANGLING_MAPPING_TARGET"]
        assert len(store.mapping_graphs[0][1]) == 1  # retained

    def test_foreign_predicate_warned(self):
        store = make_store()
        g = Graph([Triple(Iri(THESOZ_CONCEPT), ns.SKOS_PREF_LABEL, Iri(STW_CONCEPT))])
        diags = store.load_mappings("m", g)
        assert "MAPPING_GRAPH_FOREIGN_TRIPLE" in [d.code for d in diags]

    def test_graph_sorted_once_foreign_triples_reported_first(self, monkeypatch):
        store = make_store()
        g = Graph(
            [
                Triple(Iri(THESOZ_CONCEPT), ns.SKOS_PREF_LABEL, Iri(STW_CONCEPT)),
                Triple(Iri("http://a.example/c:1"), ns.SKOS_EXACT_MATCH, Iri("http://b.example/c:1")),
            ]
        )
        calls = []
        sort_key = Triple.sort_key
        monkeypatch.setattr(Triple, "sort_key", lambda t: calls.append(t) or sort_key(t))
        diags = store.load_mappings("m", g)
        assert len(calls) == len(g)
        assert [(d.code, d.subject.value) for d in diags] == [
            ("MAPPING_GRAPH_FOREIGN_TRIPLE", THESOZ_CONCEPT),
            ("DANGLING_MAPPING_TARGET", "http://a.example/c:1"),
            ("DANGLING_MAPPING_TARGET", "http://b.example/c:1"),
        ]


def lookup(store, iri):
    """(registration id, Concept view or None), or None when no base matches."""
    reg = store.owner_of(iri)
    return None if reg is None else (reg.id, extract_concept(reg.graph, iri))


class TestLookup:
    def test_concept_lookup(self):
        store = make_store()
        reg_id, concept = lookup(store, Iri(THESOZ_CONCEPT))
        assert reg_id == "thesoz"
        assert concept.prefLabels["de"].lexical == "Informationswissenschaft"

    def test_unregistered_base_absent(self):
        store = make_store()
        assert lookup(store, Iri("http://elsewhere.example/c:1")) is None

    def test_registered_base_non_concept_distinguishable(self):
        store = make_store()
        result = lookup(store, Iri("http://zbw.eu/stw/nothing-here"))
        assert result == ("stw", None)

    def test_longest_prefix_wins(self):
        store = MultiStore()
        g1, g2 = Graph(), Graph()
        store.register_thesaurus(ThesaurusRegistration("outer", Iri("http://a.example/x/"), g1))
        store2 = MultiStore()
        store2.register_thesaurus(ThesaurusRegistration("outer", Iri("http://a.example/"), Graph()))
        # nested bases cannot coexist (overlap rule), so longest-prefix is
        # exercised across disjoint bases of different lengths
        assert store.owner_of(Iri("http://a.example/x/1")).id == "outer"
        assert store.owner_of(Iri("http://a.example/y/1")) is None

    def test_lookup_matches_prefix_predicate(self):
        store = make_store()
        rng = random.Random(5)
        bases = [r.base_iri.value for r in store.registrations]
        for _ in range(200):
            if rng.random() < 0.5:
                iri = Iri(rng.choice(bases) + "c/%d" % rng.randrange(1000))
            else:
                iri = Iri("http://unrelated%d.example/c" % rng.randrange(50))
            hit = lookup(store, iri)
            assert (hit is not None) == any(iri.value.startswith(b) for b in bases)


class TestLabelOf:
    @given(
        st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from([None, "de", "en", "fr"])), max_size=6),
        st.lists(st.sampled_from(["de", "EN", "fr", "it"]), max_size=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_label_of_picks_like_pref_label_among_duplicates(self, labels, pref):
        c = Iri("http://x.example/c")
        g = Graph([Triple(c, ns.SKOS_PREF_LABEL, Literal(lex, lang=lang)) for lex, lang in labels])
        store = MultiStore()
        store.register_thesaurus(ThesaurusRegistration("x", Iri("http://x.example/"), g))
        concept = extract_concept(g, c)
        assert store.label_of(c, pref) == (concept.pref_label(pref) if concept else None)


class TestMappingsFor:
    def test_outbound_with_partner_label(self):
        store = make_store()
        store.load_mappings("m", listing1_graph())
        refs = [r for r in store.mappings_for(Iri(THESOZ_CONCEPT)) if r.direction == "outbound"]
        assert len(refs) == 1
        assert refs[0].property == ns.SKOS_EXACT_MATCH
        assert refs[0].other == Iri(STW_CONCEPT)
        assert store.label_of(refs[0].other).lexical == "Informationswissenschaft"

    def test_no_mappings_empty(self):
        store = make_store()
        store.load_mappings("m", listing1_graph())
        assert store.mappings_for(Iri("http://lod.gesis.org/thesoz/concept/10042002")) == []

    def test_inbound_listed(self):
        store = make_store()
        g = Graph([Triple(Iri(THESOZ_CONCEPT), ns.SKOS_EXACT_MATCH, Iri(STW_CONCEPT))])
        store.load_mappings("m", g)
        refs = store.mappings_for(Iri(STW_CONCEPT))
        assert [r.direction for r in refs] == ["inbound"]
        assert refs[0].other == Iri(THESOZ_CONCEPT)

    def test_symmetry_after_inverses(self):
        store = make_store()
        store.load_mappings("m", listing1_graph())
        for reg in store.registrations:
            for t in reg.graph.match(p=ns.RDF_TYPE, o=ns.SKOS_CONCEPT):
                for ref in store.mappings_for(t.subject):
                    if ref.direction == "outbound" and ref.members is None:
                        from skoshub.crosswalk import INVERSE_PROPERTY

                        back = store.mappings_for(ref.other)
                        assert any(
                            b.direction == "inbound" and b.other == t.subject
                            for b in back
                        ) or any(
                            b.direction == "outbound"
                            and b.other == t.subject
                            and b.property == INVERSE_PROPERTY[ref.property]
                            for b in back
                        )

    def test_combination_membership_surfaced(self, thesoz_view, stw_view):
        from skoshub.crosswalk import convert_crosswalk, edges_to_graph

        data = (FIXTURES / "full.xwalk").read_bytes()
        edges, _ = convert_crosswalk(data, thesoz_view, stw_view)
        store = make_store()
        store.load_mappings("m", edges_to_graph(edges))
        migration = Iri("http://lod.gesis.org/thesoz/concept/10041001")
        out = [r for r in store.mappings_for(migration) if r.members is not None]
        assert len(out) == 1
        assert set(out[0].members) == {
            Iri("http://zbw.eu/stw/descriptor/10003-4"),
            Iri("http://zbw.eu/stw/descriptor/10004-5"),
        }
        # member concept sees the combination inbound
        member_refs = store.mappings_for(Iri("http://zbw.eu/stw/descriptor/10003-4"))
        assert any(r.direction == "inbound" and r.other == migration for r in member_refs)


class TestExportMerged:
    def test_size_is_set_union(self):
        store = make_store()
        store.load_mappings("m", listing1_graph())
        sizes = [len(r.graph) for r in store.registrations]
        merged = store.export_merged()
        assert len(merged) == sum(sizes) + 2

    def test_empty_store(self):
        assert len(MultiStore().export_merged()) == 0

    def test_duplicate_mapping_graphs_collapse(self):
        store = make_store()
        store.load_mappings("m1", listing1_graph())
        store.load_mappings("m2", listing1_graph())
        base = sum(len(r.graph) for r in store.registrations)
        assert len(store.export_merged()) == base + 2

    def test_round_trips_through_ntriples(self):
        store = make_store()
        store.load_mappings("m", listing1_graph())
        merged = store.export_merged()
        reparsed, errors = parse_ntriples(serialize_ntriples(merged))
        assert errors == []
        assert reparsed == merged


# small stores over a few terms, so one triple often sits in several graphs
COMBO = ns.ext_matches_combination(ns.DEFAULT_EXT_NS)
MEMBER = ns.ext_member(ns.DEFAULT_EXT_NS)
BASES = ("http://a.example/", "http://b.example/")
SUBJECTS = [Iri(BASES[0] + "1"), Iri(BASES[0] + "2"), Iri(BASES[1] + "1"), Iri("http://c.example/k"), BlankNode("x")]
PREDICATES = [ns.SKOS_EXACT_MATCH, ns.SKOS_BROAD_MATCH, ns.SKOS_PREF_LABEL, COMBO, MEMBER]
OBJECTS = SUBJECTS + [Literal("a"), Literal("a", lang="de"), Literal("ä", lang="de")]
small_graph = st.lists(
    st.builds(Triple, st.sampled_from(SUBJECTS), st.sampled_from(PREDICATES), st.sampled_from(OBJECTS)), max_size=8
)
store_parts = st.tuples(st.lists(small_graph, max_size=len(BASES)), st.lists(small_graph, max_size=3))
SHARED = [Triple(SUBJECTS[0], ns.SKOS_EXACT_MATCH, SUBJECTS[2]), Triple(SUBJECTS[2], ns.SKOS_EXACT_MATCH, SUBJECTS[0])]


def small_store(parts):
    thesauri, mappings = parts
    store = MultiStore()
    for i, triples in enumerate(thesauri):
        store.register_thesaurus(ThesaurusRegistration("t%d" % i, Iri(BASES[i]), Graph(triples)))
    for i, triples in enumerate(mappings):
        store.load_mappings("m%d" % i, Graph(triples))
    return store


def brute_mappings_for(store, iri):
    """mappings_for by a linear scan of the union of the mapping graphs."""
    triples = {t for _, g in store.mapping_graphs for t in g}

    def members(node):
        found = {t.object for t in triples if t.subject == node and t.predicate == MEMBER and isinstance(t.object, Iri)}
        return tuple(sorted(found, key=lambda i: i.value))

    refs = []
    for t in triples:
        if t.subject == iri and isinstance(t.object, Iri):
            if t.predicate in ns.MAPPING_PROPERTIES:
                refs.append(MappingRef("outbound", t.predicate, t.object))
            elif t.predicate == COMBO:
                refs.append(MappingRef("outbound", COMBO, t.object, members(t.object)))
        if t.object == iri and isinstance(t.subject, Iri):
            if t.predicate in ns.MAPPING_PROPERTIES:
                refs.append(MappingRef("inbound", t.predicate, t.subject))
            elif t.predicate == MEMBER:
                for ct in triples:
                    if ct.predicate == COMBO and ct.object == t.subject and isinstance(ct.subject, Iri):
                        refs.append(MappingRef("inbound", COMBO, ct.subject, members(t.subject)))
    return sorted(refs, key=lambda r: (r.direction, r.property.value, r.other.value, r.members or ()))


class TestMatch:
    @given(
        store_parts,
        st.sampled_from(SUBJECTS + [None]),
        st.sampled_from(PREDICATES + [None]),
        st.sampled_from(OBJECTS + [None]),
    )
    @example(([], []), None, None, None)
    @example(([SHARED], [SHARED, SHARED[:1]]), None, None, None)
    @settings(max_examples=300, deadline=None)
    def test_match_equals_match_on_the_merged_copy(self, parts, s, p, o):
        store = small_store(parts)
        assert list(store.match(s, p, o)) == store.export_merged().match(s, p, o)

    @given(store_parts)
    @example(([], []))
    @example(([SHARED], [SHARED, SHARED[:1]]))
    @settings(max_examples=200, deadline=None)
    def test_subject_triples_and_mappings_for_agree_with_a_scan(self, parts):
        store = small_store(parts)
        for iri in SUBJECTS:
            if not isinstance(iri, Iri):
                continue
            reg = store.owner_of(iri)
            graphs = ([reg.graph] if reg else []) + [g for _, g in store.mapping_graphs]
            found = {t for g in graphs for t in g if t.subject == iri}
            assert store.subject_triples(iri) == sorted(found, key=Triple.sort_key)
            refs = store.mappings_for(iri)
            assert sorted(refs, key=lambda r: (r.direction, r.property.value, r.other.value, r.members or ())) == (
                brute_mappings_for(store, iri)
            )


class TestManifest:
    def test_fixture_manifest_loads(self, fixture_store):
        store, config = fixture_store
        assert {r.id for r in store.registrations} == {"thesoz", "stw"}
        assert config.default_lang == "de"
        assert store.registrations[0].prefix_map.namespace("thesoz") is not None

    def test_missing_file_raises(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(
            json.dumps(
                {"thesauri": [{"id": "x", "base_iri": "http://x.example/", "file": "absent.nt"}]}
            )
        )
        with pytest.raises(StoreError):
            load_manifest(manifest)

    def test_duplicate_mapping_id_raises(self, tmp_path):
        manifest = fixture_manifest_json()
        manifest["mappings"] *= 2
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="duplicate mapping id"):
            load_manifest(path)

    def test_bad_json_raises(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text("{not json")
        with pytest.raises(StoreError):
            load_manifest(manifest)

    def test_overlapping_bases_raise(self, tmp_path):
        (tmp_path / "a.nt").write_bytes(b"")
        manifest = tmp_path / "m.json"
        manifest.write_text(
            json.dumps(
                {
                    "thesauri": [
                        {"id": "a", "base_iri": "http://x.example/", "file": "a.nt"},
                        {"id": "b", "base_iri": "http://x.example/sub/", "file": "a.nt"},
                    ]
                }
            )
        )
        with pytest.raises(StoreError):
            load_manifest(manifest)

    @pytest.mark.parametrize(
        "manifest",
        [
            {"thesauri": [{"id": "a", "file": "mini_thesoz.nt"}]},
            {"thesauri": [{"base_iri": "http://lod.gesis.org/thesoz/", "file": "mini_thesoz.nt"}]},
            {"thesauri": [{"id": "a", "base_iri": "not an iri", "file": "mini_thesoz.nt"}]},
            {"thesauri": [{"id": "a", "base_iri": "http://lod.gesis.org/thesoz/", "file": "mini_thesoz.nt",
                           "prefixes": {"t": "not an iri"}}]},
            {"mappings": [{"file": "mappings.nt"}]},
            {"service": {"result_limit": 0}},
            {"service": {"result_limit": 2.5}},
            {"service": {"result_limit": True}},
            {"service": {"result_limit": "7"}},
            {"thesauri": [{"id": "a", "base_iri": "http://lod.gesis.org/thesoz/", "file": "mini_thesoz.nt",
                           "title": "TheSoz \ud800"}]},
        ],
    )
    def test_bad_entry_raises_store_error(self, tmp_path, manifest):
        for entry in manifest.get("thesauri", []) + manifest.get("mappings", []):
            entry["file"] = str(FIXTURES / entry["file"])
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        with pytest.raises(StoreError):
            load_manifest(path)


json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
field_value = st.sampled_from(
    [
        "thesoz", "stw", "", "not an iri", "http://lod.gesis.org/thesoz/", "http://zbw.eu/stw/",
        str(FIXTURES / "mini_thesoz.nt"), str(FIXTURES / "mappings.nt"), "absent.nt", str(FIXTURES),
        {"t": "http://x.example/"}, {"t": "not an iri"}, {"t": 3},
    ]
) | st.integers(max_value=0) | json_value


def entry_of(keys):
    return st.dictionaries(st.sampled_from(keys), field_value, max_size=len(keys)) | json_value


manifest_json = st.fixed_dictionaries(
    {},
    optional={
        "thesauri": st.lists(entry_of(["id", "base_iri", "file", "title", "prefixes"]), max_size=3) | json_value,
        "mappings": st.lists(entry_of(["id", "file"]), max_size=2) | json_value,
        "ext_namespace": field_value,
        "service": entry_of(["listen", "base_url", "result_limit", "default_lang"]),
    },
) | json_value


@given(manifest_json)
@example({"thesauri": [{"id": "a", "file": str(FIXTURES / "mini_thesoz.nt")}]})
@example({"service": {"result_limit": -1}})
@settings(max_examples=300, deadline=None)
def test_load_manifest_loads_or_raises_store_error(manifest):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.json"
        path.write_text(json.dumps(manifest))
        try:
            _, config, _ = load_manifest(path)
        except StoreError:
            return
        assert config.result_limit >= 1
