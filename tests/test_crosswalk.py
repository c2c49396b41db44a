import pytest

from skoshub import namespaces as ns
from skoshub.crosswalk import (
    Ambiguous,
    AmbiguityMode,
    ConversionPolicy,
    CrosswalkEntry,
    MappingEdge,
    NonPreferred,
    NonPreferredMode,
    NotFound,
    Preferred,
    RELATION_PROPERTY,
    RelationCode,
    combination_node_iri,
    convert_combination,
    convert_crosswalk,
    convert_entry,
    edges_to_graph,
    generate_inverses,
    parse_crosswalk,
    resolve_term,
)
from skoshub.ntriples import serialize_ntriples
from skoshub.terms import Iri

from conftest import FIXTURES, LISTING1_LINE, STW_CONCEPT, THESOZ_CONCEPT

HEADER = "#xwalk source=thesoz target=stw source-lang=de target-lang=de\n"


def entry(source, relation, targets, line=2):
    return CrosswalkEntry(source, "de", relation, tuple(targets), "de", line)


class TestParseCrosswalk:
    def test_single_equivalence_line(self):
        header, entries, diags = parse_crosswalk(
            HEADER + "Informationswissenschaft\t=\tInformationswissenschaft\n"
        )
        assert diags == []
        assert header.source_id == "thesoz" and header.target_lang == "de"
        assert entries == [
            entry("Informationswissenschaft", RelationCode.EQUIVALENT, ["Informationswissenschaft"])
        ]

    def test_empty_file_after_header(self):
        _, entries, diags = parse_crosswalk(HEADER)
        assert entries == [] and diags == []

    def test_five_fields_is_syntax_error(self):
        _, entries, diags = parse_crosswalk(HEADER + "a\t=\tb\tc\td\n")
        assert entries == []
        assert [d.code for d in diags] == ["XWALK_SYNTAX"]
        assert diags[0].source_location[1] == 2

    def test_data_before_header_rejected_then_recovers(self):
        _, entries, diags = parse_crosswalk("a\t=\tb\n" + HEADER + "a\t=\tb\n")
        assert len(entries) == 1
        assert [d.code for d in diags] == ["XWALK_SYNTAX"]

    def test_unknown_relation_rejected(self):
        _, entries, diags = parse_crosswalk(HEADER + "a\t~\tb\n")
        assert entries == []
        assert [d.code for d in diags] == ["XWALK_SYNTAX"]

    def test_two_targets_require_equivalence(self):
        _, entries, diags = parse_crosswalk(HEADER + "a\t<\tb\tc\n")
        assert entries == []
        assert [d.code for d in diags] == ["XWALK_SYNTAX"]

    def test_comment_lines_and_whitespace_normalization(self):
        _, entries, diags = parse_crosswalk(HEADER + "# note\n  Zwei   Worte \t=\tb\n")
        assert diags == []
        assert entries[0].source_term == "Zwei Worte"

    @pytest.mark.parametrize(
        "data",
        [HEADER.encode() + b"Arbeit\xff\t=\tArbeit\na\t=\tb\n", HEADER + "Arbeit\ud800\t=\tArbeit\na\t=\tb\n"],
        ids=["bytes-not-utf8", "str-with-lone-surrogate"],
    )
    def test_line_not_utf8_is_syntax_error_and_later_lines_parse(self, data):
        _, entries, diags = parse_crosswalk(data)
        assert [(d.code, d.source_location[1]) for d in diags] == [("XWALK_SYNTAX", 2)]
        assert [(e.source_term, e.line) for e in entries] == [("a", 3)]


class TestResolveTerm:
    def test_preferred_hit(self, thesoz_view):
        r = resolve_term(thesoz_view, "Informationswissenschaft", "de")
        assert r == Preferred(Iri(THESOZ_CONCEPT))

    def test_not_found(self, thesoz_view):
        assert resolve_term(thesoz_view, "Quantenchromodynamik", "de") == NotFound()

    def test_alt_label_is_nonpreferred(self, thesoz_view):
        r = resolve_term(thesoz_view, "Wanderung", "de")
        assert isinstance(r, NonPreferred)
        assert r.label_kind == "alt"
        assert r.concept == Iri("http://lod.gesis.org/thesoz/concept/10041001")

    def test_hidden_label_kind(self, thesoz_view):
        r = resolve_term(thesoz_view, "Datenbanken", "de")
        assert isinstance(r, NonPreferred) and r.label_kind == "hidden"

    def test_preferred_tier_beats_nonpreferred(self, stw_view):
        # "Datenbank" is a prefLabel of one concept and could shadow alt labels
        r = resolve_term(stw_view, "Datenbank", "de")
        assert r == Preferred(Iri("http://zbw.eu/stw/descriptor/10002-3"))

    def test_ambiguous_candidates_sorted(self, stw_view):
        r = resolve_term(stw_view, "Steuer", "de")
        assert isinstance(r, Ambiguous)
        assert list(r.candidates) == sorted(r.candidates, key=lambda i: i.value)
        assert len(r.candidates) == 2

    def test_ambiguous_on_nonpreferred_tier(self, stw_view):
        r = resolve_term(stw_view, "Datenbanksystem", "de")
        assert isinstance(r, Ambiguous)

    def test_language_and_whitespace_handling(self, thesoz_view):
        assert resolve_term(thesoz_view, "  Informationswissenschaft ", "DE") == Preferred(
            Iri(THESOZ_CONCEPT)
        )
        assert resolve_term(thesoz_view, "Informationswissenschaft", "en") == NotFound()


def test_map_relation_total():
    assert RELATION_PROPERTY == {
        RelationCode.EQUIVALENT: ns.SKOS_EXACT_MATCH,
        RelationCode.NARROWER: ns.SKOS_BROAD_MATCH,
        RelationCode.BROADER: ns.SKOS_NARROW_MATCH,
        RelationCode.RELATED: ns.SKOS_RELATED_MATCH,
    }


class TestConvertEntry:
    def convert(self, e, views, **policy_kwargs):
        thesoz_view, stw_view = views
        return convert_entry(e, thesoz_view, stw_view, ConversionPolicy(**policy_kwargs))

    @pytest.fixture
    def views(self, thesoz_view, stw_view):
        return thesoz_view, stw_view

    def test_listing1_entry(self, views):
        e = entry("Informationswissenschaft", RelationCode.EQUIVALENT, ["Informationswissenschaft"])
        edges, diags = self.convert(e, views)
        assert [d.code for d in diags] == ["XWALK_OK"]
        assert edges == [
            MappingEdge(Iri(THESOZ_CONCEPT), ns.SKOS_EXACT_MATCH, (Iri(STW_CONCEPT),), ("<crosswalk>", 2))
        ]

    def test_unresolved_source(self, views):
        e = entry("Nichts", RelationCode.EQUIVALENT, ["Informationswissenschaft"])
        edges, diags = self.convert(e, views)
        assert edges == []
        assert [d.code for d in diags] == ["XWALK_UNRESOLVED"]

    def test_nonpreferred_strict_vs_promote(self, views):
        e = entry("Informationswissenschaft", RelationCode.EQUIVALENT, ["Datenbanksystem"])
        # Datenbanksystem is ambiguous; use a uniquely-nonpreferred source instead
        e = entry("Wanderung", RelationCode.EQUIVALENT, ["Arbeitsmigration"])
        edges, diags = self.convert(e, views, nonpreferred_mode=NonPreferredMode.STRICT)
        assert edges == []
        assert [d.code for d in diags] == ["XWALK_NONPREFERRED"]
        assert "altLabel" in diags[0].message
        edges, diags = self.convert(e, views, nonpreferred_mode=NonPreferredMode.PROMOTE)
        assert len(edges) == 1
        assert edges[0].source == Iri("http://lod.gesis.org/thesoz/concept/10041001")
        assert [d.code for d in diags] == ["XWALK_PROMOTED"]

    def test_ambiguous_fail_vs_first(self, views):
        e = entry("Wissenschaft", RelationCode.EQUIVALENT, ["Steuer"])
        edges, diags = self.convert(e, views, ambiguity_mode=AmbiguityMode.FAIL)
        assert edges == []
        assert [d.code for d in diags] == ["XWALK_AMBIGUOUS"]
        edges, diags = self.convert(e, views, ambiguity_mode=AmbiguityMode.FIRST_BY_SORTED_IRI)
        assert len(edges) == 1
        assert edges[0].targets == (Iri("http://zbw.eu/stw/descriptor/10006-7"),)
        assert [d.code for d in diags] == ["XWALK_AMBIGUOUS_RESOLVED"]

    def test_combination_entry(self, views):
        e = entry("Migration", RelationCode.EQUIVALENT, ["Arbeitsmigration", "Binnenwanderung"])
        edges, diags = self.convert(e, views)
        assert [d.code for d in diags] == ["XWALK_OK"]
        assert len(edges) == 1
        assert edges[0].is_combination
        assert edges[0].property == ns.ext_matches_combination(ns.DEFAULT_EXT_NS)

    def test_combination_identical_members(self, views):
        e = entry("Migration", RelationCode.EQUIVALENT, ["Arbeitsmigration", "Arbeitsmigration"])
        edges, diags = self.convert(e, views)
        assert edges == []
        assert [d.code for d in diags] == ["XWALK_BAD_COMBINATION"]

    def test_determinism(self, views):
        e = entry("Informationswissenschaft", RelationCode.EQUIVALENT, ["Informationswissenschaft"])
        assert self.convert(e, views) == self.convert(e, views)

    def test_every_entry_yields_edge_or_error(self, views):
        cases = [
            entry("Informationswissenschaft", RelationCode.EQUIVALENT, ["Informationswissenschaft"]),
            entry("Nichts", RelationCode.EQUIVALENT, ["Informationswissenschaft"]),
            entry("Wanderung", RelationCode.EQUIVALENT, ["Arbeitsmigration"]),
            entry("Wissenschaft", RelationCode.EQUIVALENT, ["Steuer"]),
            entry("Migration", RelationCode.EQUIVALENT, ["Arbeitsmigration", "Binnenwanderung"]),
        ]
        for e in cases:
            edges, diags = self.convert(e, views)
            errors = [d for d in diags if d.severity.value == "Error"]
            assert len(edges) + len(errors) >= 1


class TestCombinationMinting:
    A = Iri("http://e.org/c:a")
    B = Iri("http://e.org/c:b")
    C = Iri("http://e.org/c:c")

    def test_four_triples_deterministic(self):
        t1 = convert_combination(self.A, [self.B, self.C], ns.DEFAULT_EXT_NS)
        t2 = convert_combination(self.A, [self.C, self.B], ns.DEFAULT_EXT_NS)
        assert len(t1) == 4
        assert set(t1) == set(t2)  # member order does not matter
        node = combination_node_iri(self.A, [self.B, self.C], ns.DEFAULT_EXT_NS)
        assert node.value.startswith("http://example.org/skos-ext/combination/")
        assert any(t.object == node for t in t1)

    def test_independent_hash_recomputation(self):
        # oracle: FNV-1a 64 recomputed here from its published constants
        key = "\n".join(sorted([self.B.value, self.C.value]) + [self.A.value]).encode()
        h = 0xCBF29CE484222325
        for byte in key:
            h = ((h ^ byte) * 0x100000001B3) % 2**64
        node = combination_node_iri(self.A, [self.B, self.C], ns.DEFAULT_EXT_NS)
        assert node.value.endswith("%016x" % h)

    def test_same_inputs_reuse_node_under_set_semantics(self):
        t1 = convert_combination(self.A, [self.B, self.C], ns.DEFAULT_EXT_NS)
        t2 = convert_combination(self.A, [self.B, self.C], ns.DEFAULT_EXT_NS)
        merged = set(t1) | set(t2)
        assert len(merged) == 4


class TestInverses:
    A = Iri("http://e.org/c:a")
    B = Iri("http://e.org/c:b")

    def edge(self, s, p, o):
        return MappingEdge(s, p, (o,), ("f", 1))

    def test_exact_match_symmetric(self):
        out, diags = generate_inverses([self.edge(self.A, ns.SKOS_EXACT_MATCH, self.B)])
        assert diags == []
        assert out == [self.edge(self.B, ns.SKOS_EXACT_MATCH, self.A)]

    def test_broad_narrow_swap(self):
        out, _ = generate_inverses([self.edge(self.A, ns.SKOS_BROAD_MATCH, self.B)])
        assert out == [self.edge(self.B, ns.SKOS_NARROW_MATCH, self.A)]
        out, _ = generate_inverses([self.edge(self.A, ns.SKOS_NARROW_MATCH, self.B)])
        assert out == [self.edge(self.B, ns.SKOS_BROAD_MATCH, self.A)]

    def test_related_symmetric(self):
        out, _ = generate_inverses([self.edge(self.A, ns.SKOS_RELATED_MATCH, self.B)])
        assert out[0].property == ns.SKOS_RELATED_MATCH

    def test_both_directions_present_adds_nothing(self):
        edges = [
            self.edge(self.A, ns.SKOS_EXACT_MATCH, self.B),
            self.edge(self.B, ns.SKOS_EXACT_MATCH, self.A),
        ]
        out, _ = generate_inverses(edges)
        assert out == []

    def test_involution(self):
        edges = [
            self.edge(self.A, ns.SKOS_BROAD_MATCH, self.B),
            self.edge(self.A, ns.SKOS_RELATED_MATCH, self.B),
        ]
        inv, _ = generate_inverses(edges)
        again, _ = generate_inverses(edges + inv)
        assert again == []

    def test_combination_skipped_with_info(self):
        combo = MappingEdge(
            self.A, ns.ext_matches_combination(ns.DEFAULT_EXT_NS), (self.B, Iri("http://e.org/c:c")), ("f", 1)
        )
        out, diags = generate_inverses([combo])
        assert out == []
        assert [d.code for d in diags] == ["XWALK_NO_INVERSE"]


class TestEdgesToGraph:
    def test_listing1_edge_produces_listing1_triple(self):
        e = MappingEdge(Iri(THESOZ_CONCEPT), ns.SKOS_EXACT_MATCH, (Iri(STW_CONCEPT),), ("f", 1))
        g = edges_to_graph([e])
        assert serialize_ntriples(g).decode().strip() == LISTING1_LINE

    def test_empty(self):
        assert len(edges_to_graph([])) == 0

    def test_mixed_counts(self):
        a, b, c = (Iri("http://e.org/c:%s" % x) for x in "abc")
        edges = [
            MappingEdge(a, ns.SKOS_EXACT_MATCH, (b,), ("f", 1)),
            MappingEdge(b, ns.SKOS_BROAD_MATCH, (c,), ("f", 2)),
            MappingEdge(a, ns.ext_matches_combination(ns.DEFAULT_EXT_NS), (b, c), ("f", 3)),
        ]
        assert len(edges_to_graph(edges)) == 2 + 4


class TestConvertCrosswalk:
    def test_full_fixture_pipeline(self, thesoz_view, stw_view):
        data = (FIXTURES / "full.xwalk").read_bytes()
        edges, diags = convert_crosswalk(data, thesoz_view, stw_view)
        codes = [d.code for d in diags]
        assert codes.count("XWALK_UNRESOLVED") == 1
        assert codes.count("XWALK_NO_INVERSE") == 1
        # 5 forward edges (4 simple + 1 combination) + 4 inverses
        assert len(edges) == 9

    def test_same_scheme_file_rejected(self, thesoz_view):
        data = "#xwalk source=thesoz target=thesoz source-lang=de target-lang=de\na\t=\tb\n"
        edges, diags = convert_crosswalk(data, thesoz_view, thesoz_view)
        assert edges == []
        assert "XWALK_SAME_SCHEME" in [d.code for d in diags]

    def test_soundness_of_emitted_edges(self, thesoz_view, stw_view):
        data = (FIXTURES / "full.xwalk").read_bytes()
        edges, _ = convert_crosswalk(data, thesoz_view, stw_view, ConversionPolicy(emit_inverses=False))
        for e in edges:
            assert e.source in thesoz_view.concepts
            for t in e.targets:
                assert t in stw_view.concepts
