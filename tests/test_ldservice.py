import contextlib
import http.client
import json
import random
import statistics
import threading
import time
from urllib.parse import quote_from_bytes

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skoshub import namespaces as ns
from skoshub.graph import Graph
from skoshub.ldservice import (
    HTML_TYPE,
    NTRIPLES_TYPE,
    TURTLE_TYPE,
    LinkedDataApp,
    describe,
    description_graph,
    make_server,
    negotiate,
    parse_accept_language,
)
from skoshub.multistore import MultiStore, ServiceConfig, ThesaurusRegistration, load_manifest
from skoshub.ntriples import parse_ntriples
from skoshub.skosmodel import skos_index
from skoshub.terms import BlankNode, Iri, Literal, Triple

from conftest import FIXTURES, LISTING1_LINE, STW_CONCEPT, THESOZ_CONCEPT, fixture_manifest_json
from turtle_reader import parse_turtle

RESOURCE_PATH = "/thesoz/resource/concept/10039068"
PAGE_PATH = "/thesoz/page/concept/10039068"
DATA_PATH = "/thesoz/data/concept/10039068"


@pytest.fixture()
def app(fixture_store):
    store, config = fixture_store
    return LinkedDataApp(store, config)


class TestNegotiate:
    SUPPORTED = [HTML_TYPE, TURTLE_TYPE, NTRIPLES_TYPE]

    def test_absent_header_picks_server_default(self):
        assert negotiate(None, self.SUPPORTED) == HTML_TYPE
        assert negotiate("", self.SUPPORTED) == HTML_TYPE

    def test_explicit_type_wins(self):
        assert negotiate("text/turtle", self.SUPPORTED) == TURTLE_TYPE
        assert negotiate("application/n-triples", self.SUPPORTED) == NTRIPLES_TYPE

    def test_q_values_ordered(self):
        assert (
            negotiate("text/html;q=0.2, text/turtle;q=0.9", self.SUPPORTED) == TURTLE_TYPE
        )

    def test_tie_broken_by_server_preference(self):
        assert negotiate("text/turtle, text/html", self.SUPPORTED) == HTML_TYPE

    def test_wildcard_matches_server_preference(self):
        assert negotiate("*/*", self.SUPPORTED) == HTML_TYPE
        assert negotiate("text/*", [TURTLE_TYPE, NTRIPLES_TYPE]) == TURTLE_TYPE

    def test_specific_range_overrides_wildcard_q(self):
        assert negotiate("*/*;q=1.0, text/html;q=0", [HTML_TYPE, TURTLE_TYPE]) == TURTLE_TYPE

    def test_nothing_acceptable(self):
        assert negotiate("application/zip", self.SUPPORTED) is None
        assert negotiate("text/html;q=0", [HTML_TYPE]) is None

    def test_accept_language_order(self):
        assert parse_accept_language("de, en;q=0.5") == ["de", "en"]
        assert parse_accept_language("en;q=0.5, de") == ["de", "en"]
        assert parse_accept_language(None) == []


class TestResourceRoute:
    def test_html_redirects_to_page(self, app):
        resp = app.handle("GET", RESOURCE_PATH, {"Accept": "text/html"})
        assert resp.status == 303
        assert resp.headers["Location"] == PAGE_PATH
        assert resp.headers["Vary"] == "Accept"

    def test_turtle_redirects_to_data(self, app):
        resp = app.handle("GET", RESOURCE_PATH, {"Accept": "text/turtle"})
        assert resp.status == 303
        assert resp.headers["Location"] == DATA_PATH

    def test_ntriples_redirects_to_data(self, app):
        resp = app.handle("GET", RESOURCE_PATH, {"Accept": "application/n-triples"})
        assert resp.headers["Location"] == DATA_PATH

    def test_rdfxml_accept_redirects_to_data(self, app):
        resp = app.handle("GET", RESOURCE_PATH, {"Accept": "application/rdf+xml"})
        assert resp.status == 303
        assert resp.headers["Location"] == DATA_PATH

    def test_no_accept_is_html_branch(self, app):
        resp = app.handle("GET", RESOURCE_PATH, {})
        assert resp.headers["Location"] == PAGE_PATH

    def test_unknown_resource_404(self, app):
        assert app.handle("GET", "/thesoz/resource/concept/999", {}).status == 404
        assert app.handle("GET", "/unknown/resource/concept/1", {}).status == 404

    def test_unsupported_accept_406(self, app):
        assert app.handle("GET", RESOURCE_PATH, {"Accept": "application/zip"}).status == 406

    def test_post_405(self, app):
        assert app.handle("POST", RESOURCE_PATH, {}).status == 405

    def test_conneg_deterministic(self, app):
        responses = [
            app.handle("GET", RESOURCE_PATH, {"Accept": "text/turtle"}) for _ in range(5)
        ]
        assert len({(r.status, r.headers["Location"]) for r in responses}) == 1


class TestPageRoute:
    def test_combined_page_content(self, app):
        resp = app.handle("GET", PAGE_PATH, {})
        assert resp.status == 200
        assert resp.headers["Content-Type"] == "text/html; charset=utf-8"
        assert resp.headers["Vary"] == "Accept, Accept-Language"
        body = resp.body.decode("utf-8")
        assert "Informationswissenschaft" in body
        assert "/stw/page/descriptor/11971-0" in body
        assert "Mini-STW" in body

    def test_no_mappings_section_states_none(self, app):
        resp = app.handle("GET", "/thesoz/page/concept/10042002", {})
        assert "No mappings recorded" in resp.body.decode()

    def test_alt_labels_and_hierarchy_links(self, app):
        body = app.handle("GET", PAGE_PATH, {}).body.decode()
        assert "Informationskunde" in body
        assert "/thesoz/page/concept/10035571" in body  # broader link as page URL

    def test_lang_query_override(self, app):
        body_de = app.handle("GET", "/stw/page/descriptor/11971-0?lang=de", {"Accept-Language": "en"}).body.decode()
        body_en = app.handle("GET", "/stw/page/descriptor/11971-0?lang=en", {"Accept-Language": "de"}).body.decode()
        assert "<h1>Informationswissenschaft</h1>" in body_de
        assert "<h1>Information science</h1>" in body_en

    def test_accept_language_fallback_to_existing(self, app):
        # only de labels exist on thesoz; an en request falls back to de
        body = app.handle("GET", PAGE_PATH, {"Accept-Language": "en, de;q=0.5"}).body.decode()
        assert "<h1>Informationswissenschaft</h1>" in body

    def test_unknown_page_404(self, app):
        assert app.handle("GET", "/thesoz/page/concept/999", {}).status == 404

    def test_each_neighbour_label_resolved_once(self, app, monkeypatch):
        calls = []
        label_of = MultiStore.label_of

        def counting(store, iri, lang_pref=()):
            calls.append(iri)
            return label_of(store, iri, lang_pref)

        monkeypatch.setattr(MultiStore, "label_of", counting)
        body = app.handle("GET", PAGE_PATH + "?lang=en", {}).body.decode()
        # the rdf:type class, the scheme, the broader concept and the exactMatch partner
        assert len(calls) == len(set(calls)) == 4
        assert ">Information science</a>" in body  # the partner's label in the asked language
        calls.clear()
        assert app.handle("GET", RESOURCE_PATH, {}).status == 303
        assert calls == []

    def test_mapping_held_by_two_graphs_is_one_row(self, tmp_path):
        manifest = fixture_manifest_json()
        manifest["mappings"].append(dict(manifest["mappings"][0], id="again"))
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        store, config, _ = load_manifest(path)
        body = LinkedDataApp(store, config).handle("GET", PAGE_PATH, {}).body.decode()
        assert body.count("<li>exactMatch") == 2  # outbound and inbound, not once per graph


class TestDataRoute:
    def test_ntriples_view_contains_listing1_verbatim(self, app):
        resp = app.handle("GET", DATA_PATH, {"Accept": "application/n-triples"})
        assert resp.status == 200
        assert resp.headers["Content-Type"].startswith(NTRIPLES_TYPE)
        assert LISTING1_LINE in resp.body.decode("utf-8")

    def test_default_is_turtle(self, app):
        resp = app.handle("GET", DATA_PATH, {})
        assert resp.headers["Content-Type"].startswith(TURTLE_TYPE)
        assert b"skos:exactMatch" in resp.body

    def test_turtle_reparses_to_same_graph(self, app):
        nt = app.handle("GET", DATA_PATH, {"Accept": "application/n-triples"})
        ttl = app.handle("GET", DATA_PATH, {"Accept": "text/turtle"})
        g_nt, errors = parse_ntriples(nt.body)
        assert errors == []
        assert parse_turtle(ttl.body) == g_nt

    def test_head_same_headers_empty_body(self, app):
        get = app.handle("GET", DATA_PATH, {"Accept": "application/n-triples"})
        head = app.handle("HEAD", DATA_PATH, {"Accept": "application/n-triples"})
        assert head.status == 200
        assert head.headers["Content-Type"] == get.headers["Content-Type"]
        assert head.body == b""

    def test_rdfxml_served_as_turtle_with_honest_type(self, app):
        resp = app.handle("GET", DATA_PATH, {"Accept": "application/rdf+xml"})
        assert resp.status == 200
        assert resp.headers["Content-Type"].startswith(TURTLE_TYPE)


class TestDescribe:
    def test_outbound_includes_mapping_and_neighbor_label(self, fixture_store):
        store, _ = fixture_store
        d = describe(store, Iri(THESOZ_CONCEPT), ["de"])
        preds = {t.predicate for t in d.outbound}
        assert ns.SKOS_EXACT_MATCH in preds
        assert d.neighbor_labels[Iri(STW_CONCEPT)].lexical == "Informationswissenschaft"

    def test_unknown_iri_empty_description(self, fixture_store):
        store, _ = fixture_store
        d = describe(store, Iri("http://nowhere.example/x:1"))
        assert d.outbound == [] and d.inbound_mappings == [] and d.neighbor_labels == {}

    def test_description_graph_outbound_subjects(self, fixture_store):
        store, _ = fixture_store
        d = describe(store, Iri(THESOZ_CONCEPT), ["de"])
        assert all(t.subject == d.focus for t in d.outbound)
        g = description_graph(d)
        assert all(t in g for t in d.outbound)


class TestPageDataConsistency:
    def test_partner_sets_agree(self, fixture_store):
        store, config = fixture_store
        app = LinkedDataApp(store, config)
        for reg in store.registrations:
            for t in reg.graph.match(p=ns.RDF_TYPE, o=ns.SKOS_CONCEPT):
                rest = t.subject.value[len(reg.base_iri.value):]
                page = app.handle("GET", "/%s/page/%s" % (reg.id, rest), {}).body.decode()
                data = app.handle(
                    "GET", "/%s/data/%s" % (reg.id, rest), {"Accept": "application/n-triples"}
                ).body.decode()
                g, _ = parse_ntriples(data)
                partners = set()
                for mt in g.match(s=t.subject) + g.match(o=t.subject):
                    if mt.predicate in ns.MAPPING_PROPERTIES:
                        other = mt.object if mt.subject == t.subject else mt.subject
                        partners.add(other)
                for partner in partners:
                    assert app.page_url(partner) in page


class TestQueryEndpoint:
    def test_predicate_curie_expanded(self, app):
        resp = app.handle("GET", "/query?p=skos:exactMatch", {})
        assert resp.status == 200
        lines = resp.body.decode().strip().splitlines()
        assert len(lines) == 2  # both directions in the fixture mapping graph
        assert LISTING1_LINE in lines

    def test_all_unbound_returns_merged_store(self, app, fixture_store):
        store, _ = fixture_store
        resp = app.handle("GET", "/query", {})
        g, errors = parse_ntriples(resp.body)
        assert errors == []
        assert g == store.export_merged()

    def test_scoped_query_limited_to_registration(self, app, fixture_store):
        store, _ = fixture_store
        resp = app.handle("GET", "/stw/query?p=skos:prefLabel", {})
        g, _ = parse_ntriples(resp.body)
        stw = next(r for r in store.registrations if r.id == "stw")
        assert set(g) == set(stw.graph.match(p=ns.SKOS_PREF_LABEL))

    def test_literal_object_token(self, app):
        resp = app.handle("GET", '/query?o="Informationswissenschaft"@de', {})
        g, _ = parse_ntriples(resp.body)
        assert len(g) == 2  # thesoz prefLabel and stw prefLabel

    def test_malformed_term_400(self, app):
        assert app.handle("GET", "/query?s=%22unterminated", {}).status == 400
        assert app.handle("GET", '/query?p="literal"', {}).status == 400
        assert app.handle("GET", "/query?s=%3Chttp://e.org/%7Bx%7D%3E", {}).status == 400

    def test_matches_graph_match_oracle(self, app, fixture_store):
        store, _ = fixture_store
        merged = store.export_merged()
        rng = random.Random(42)
        subjects = [t.subject for t in merged]
        preds = [t.predicate for t in merged]
        for _ in range(50):
            s = rng.choice(subjects) if rng.random() < 0.5 else None
            p = rng.choice(preds) if rng.random() < 0.5 else None
            from urllib.parse import quote

            qs = []
            if s is not None:
                qs.append("s=" + quote("<%s>" % s.value, safe=""))
            if p is not None:
                qs.append("p=" + quote("<%s>" % p.value, safe=""))
            resp = app.handle("GET", "/query" + ("?" + "&".join(qs) if qs else ""), {})
            g, _ = parse_ntriples(resp.body)
            assert set(g) == set(merged.match(s=s, p=p))

    def test_truncation_header(self, fixture_store):
        store, _ = fixture_store
        app = LinkedDataApp(store, ServiceConfig(result_limit=3))
        resp = app.handle("GET", "/query", {})
        assert resp.headers.get("X-Truncated") == "true"
        assert len(resp.body.decode().strip().splitlines()) == 3


class TestIndex:
    def test_index_lists_registrations_with_counts(self, app):
        body = app.handle("GET", "/", {}).body.decode()
        assert "Mini-TheSoz" in body and "Mini-STW" in body
        assert "5 concepts" in body  # thesoz fixture

    def test_index_counts_iri_concepts_only(self):
        # a blank node has no page or data URL, so it is not counted
        g = Graph([Triple(Iri("http://x.example/c/%d" % i), ns.RDF_TYPE, ns.SKOS_CONCEPT) for i in (1, 2)])
        g.insert(Triple(BlankNode("b1"), ns.RDF_TYPE, ns.SKOS_CONCEPT))
        store = MultiStore()
        store.register_thesaurus(ThesaurusRegistration("x", Iri("http://x.example/"), g))
        body = LinkedDataApp(store).handle("GET", "/", {}).body.decode()
        assert "2 concepts" in body

    def test_app_builds_each_skos_index_before_serving(self):
        store, _, _ = load_manifest(FIXTURES / "manifest.json")
        assert all(reg.graph.memo is None for reg in store.registrations)
        LinkedDataApp(store)
        assert all(reg.graph.memo is skos_index(reg.graph) for reg in store.registrations)


# --- request-path boundary ---------------------------------------------------

path_segment = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), whitelist_characters="-_.~%+()"),
    min_size=1,
    max_size=12,
)


@given(st.lists(path_segment, min_size=1, max_size=3))
@example(["München"])
@settings(max_examples=100, deadline=None)
def test_service_urls_of_registered_iris_resolve(segments):
    iri = Iri("http://x.example/c/" + "/".join(segments))
    g = Graph([
        Triple(iri, ns.RDF_TYPE, ns.SKOS_CONCEPT),
        Triple(iri, ns.SKOS_PREF_LABEL, Literal("Ort", lang="de")),
    ])
    store = MultiStore()
    store.register_thesaurus(ThesaurusRegistration("x", Iri("http://x.example/"), g))
    app = LinkedDataApp(store)
    assert app.handle("GET", app.page_url(iri)).status == 200
    assert app.handle("GET", app.local_path(iri, "data")).status == 200
    redirect = app.handle("GET", app.local_path(iri, "resource"))
    assert redirect.status == 303
    assert app.handle("GET", redirect.headers["Location"]).status == 200


PATH_PREFIXES = ["/", "/thesoz/resource/", "/thesoz/page/", "/stw/data/", "/query?s=", "/stw/query?o="]
request_path = st.one_of(
    st.text(),
    st.builds(str.__add__, st.sampled_from(PATH_PREFIXES), st.text()),
    st.builds(lambda prefix, raw: prefix + quote_from_bytes(raw), st.sampled_from(PATH_PREFIXES), st.binary()),
)


@given(request_path, st.dictionaries(st.sampled_from(["Accept", "Accept-Language"]), st.text(), max_size=2))
@example("/thesoz/resource/<", {})
@example('/thesoz/page/concept/a"b', {})
@settings(max_examples=300, deadline=None)
def test_handle_answers_every_path_with_a_status(fixture_store, path, headers):
    store, config = fixture_store
    resp = LinkedDataApp(store, config).handle("GET", path, headers)
    assert isinstance(resp.status, int) and 200 <= resp.status < 600


def test_query_that_is_not_utf8_answers_400(app):
    for path in ("/query?o=%22Informationswissenschaft%FC%22%40de", "/thesoz/query?s=%FF"):
        assert app.handle("GET", path).status == 400
        assert app.handle("HEAD", path).status == 400


def test_path_that_is_not_utf8_answers_404():
    # a registered IRI holding U+FFFD must not answer for a path whose bytes
    # only decode to it by replacement
    iri = Iri("http://x.example/c/a\ufffdb")
    store = MultiStore()
    store.register_thesaurus(
        ThesaurusRegistration("x", Iri("http://x.example/"), Graph([Triple(iri, ns.RDF_TYPE, ns.SKOS_CONCEPT)]))
    )
    app = LinkedDataApp(store)
    assert app.handle("GET", app.page_url(iri)).status == 200
    for kind in ("resource", "page", "data"):
        assert app.handle("GET", "/x/%s/c/a%%FFb" % kind).status == 404


# (before, after) the drawn bytes; the query ones put them inside a literal,
# which decoded text makes a valid term or, with a raw '"' or a bad escape, a
# malformed one
AROUND_BYTES = [
    ("/thesoz/resource/concept/", ""),
    ("/thesoz/page/", ""),
    ("/stw/data/descriptor/", ""),
    ("/query?o=%22", "%22%40de"),
    ("/stw/query?o=%22", "%22"),
]


@given(st.sampled_from(AROUND_BYTES), st.binary(min_size=1))
@example(("/query?o=%22", "%22%40de"), b"Informationswissenschaft\xfc")
@settings(max_examples=200, deadline=None)
def test_percent_encoded_bytes_decode_strictly(fixture_store, around, raw):
    store, config = fixture_store
    prefix, suffix = around
    resp = LinkedDataApp(store, config).handle("GET", prefix + quote_from_bytes(raw) + suffix)
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError:
        assert resp.status == (400 if "?" in prefix else 404)
    else:
        assert resp.status in ((200, 400) if "?" in prefix else (200, 303, 404))


# --- HTTP wrapper --------------------------------------------------------------


@contextlib.contextmanager
def running(app):
    server = make_server(app, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def test_keep_alive_responses_are_not_delayed(fixture_store):
    store, config = fixture_store
    with running(LinkedDataApp(store, config)) as (host, port):
        conn = http.client.HTTPConnection(host, port, timeout=10)
        elapsed = []
        for _ in range(5):
            start = time.perf_counter()
            conn.request("GET", PAGE_PATH)
            resp = conn.getresponse()
            resp.read()
            elapsed.append(time.perf_counter() - start)
            assert resp.status == 200
        conn.close()
    assert statistics.median(elapsed) < 0.020, elapsed


class FailingApp(LinkedDataApp):
    def handle(self, method, path, headers=None):
        raise RuntimeError("handler failed")


def test_handler_exception_becomes_logged_500(fixture_store, caplog):
    store, config = fixture_store
    with running(FailingApp(store, config)) as (host, port):
        conn = http.client.HTTPConnection(host, port, timeout=10)
        conn.request("GET", PAGE_PATH)
        resp = conn.getresponse()
        resp.read()
        conn.close()
    assert resp.status == 500
    assert "handler failed" in caplog.text
