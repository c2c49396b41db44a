"""Pubby-style linked-data frontend over a sealed MultiStore.

Resource URIs answer 303 redirects negotiated from the Accept header;
page URLs render a combined HTML view (cross-thesaurus mappings with
partner labels); data URLs serve RDF. Request handling is pure over the
sealed store, so the HTTP wrapper is a thin adapter and everything is
testable in-process.
"""

from __future__ import annotations

import html
import logging
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from itertools import islice
from typing import Optional
from urllib.parse import parse_qs, quote, unquote, urlsplit

from . import namespaces as ns
from .graph import Graph
from .multistore import MultiStore, ServiceConfig
from .ntriples import format_triple, parse_pattern, serialize_ntriples
from .skosmodel import extract_concept, skos_index
from .terms import Iri, Literal, TermError, Triple
from .turtle import serialize_turtle

log = logging.getLogger("skoshub.ldservice")

HTML_TYPE = "text/html"
TURTLE_TYPE = "text/turtle"
NTRIPLES_TYPE = "application/n-triples"
RDFXML_TYPE = "application/rdf+xml"

# Server preference order for tie-breaking equal q-values.
SERVER_PREFERENCE = [HTML_TYPE, TURTLE_TYPE, NTRIPLES_TYPE, RDFXML_TYPE]


@dataclass
class Response:
    status: int
    headers: dict = field(default_factory=dict)
    body: bytes = b""


def parse_accept(header: str) -> list:
    """Media ranges as (type, q) in declaration order; malformed parts skipped."""
    out = []
    for part in header.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(";")
        media = pieces[0].strip().lower()
        q = 1.0
        for param in pieces[1:]:
            param = param.strip()
            if param.startswith("q="):
                try:
                    q = float(param[2:])
                except ValueError:
                    q = 0.0
        out.append((media, max(0.0, min(q, 1.0))))
    return out


def _range_matches(media_range: str, concrete: str) -> bool:
    if media_range == "*/*":
        return True
    if media_range.endswith("/*"):
        return concrete.split("/")[0] == media_range.split("/")[0]
    return media_range == concrete


def negotiate(accept_header: Optional[str], supported: list) -> Optional[str]:
    """Best supported type per q-values; ties broken by server preference.

    None means nothing acceptable (406 territory). An absent header picks
    the server's first preference.
    """
    if accept_header is None or not accept_header.strip():
        return supported[0]
    ranges = parse_accept(accept_header)
    best = None
    for concrete in supported:
        q = None
        specificity = -1
        for media_range, rq in ranges:
            if _range_matches(media_range, concrete):
                spec = 2 if "*" not in media_range else (1 if media_range != "*/*" else 0)
                if spec > specificity:
                    specificity = spec
                    q = rq
        if q is None or q <= 0:
            continue
        rank = (q, -SERVER_PREFERENCE.index(concrete) if concrete in SERVER_PREFERENCE else -99)
        if best is None or rank > best[0]:
            best = (rank, concrete)
    return best[1] if best else None


def parse_accept_language(header: Optional[str]) -> list:
    if not header:
        return []
    tagged = []
    for i, (tag, q) in enumerate(parse_accept(header)):
        if tag != "*":
            tagged.append((-q, i, tag.lower()))
    return [tag for _, _, tag in sorted(tagged)]


@dataclass
class Description:
    focus: Iri
    outbound: list
    inbound_mappings: list
    neighbor_labels: dict  # Iri -> Literal

    @property
    def empty(self) -> bool:
        """Nothing is known about the focus: the service answers 404."""
        return not self.outbound and not self.inbound_mappings


def describe(store: MultiStore, iri: Iri, lang_pref=()) -> Description:
    """Everything the combined page and the data views need about one IRI."""
    outbound = store.subject_triples(iri)
    inbound = store.mappings_for(iri)
    neighbors = {t.object for t in outbound if isinstance(t.object, Iri)}
    for ref in inbound:
        neighbors.update((ref.other,) + (ref.members or ()))
    # one label_of per distinct neighbour; the page's mapping rows read these too
    labels = {n: store.label_of(n, lang_pref) for n in neighbors}
    return Description(iri, outbound, inbound, {n: l for n, l in labels.items() if l is not None})


def description_graph(d: Description) -> Graph:
    """RDF view of a Description: outbound + inbound mappings + neighbor labels."""
    g = Graph()
    g.update(d.outbound)
    for ref in d.inbound_mappings:
        if ref.direction == "inbound" and ref.members is None:
            g.insert(Triple(ref.other, ref.property, d.focus))
    for neighbor, label in d.neighbor_labels.items():
        g.insert(Triple(neighbor, ns.SKOS_PREF_LABEL, label))
    return g


class LinkedDataApp:
    """Route and render requests; pure functions over the sealed store."""

    def __init__(self, store: MultiStore, config: Optional[ServiceConfig] = None):
        self.store = store
        self.config = config or ServiceConfig()
        for reg in store.registrations:
            # built once before serving: never inside a request, never raced by handler threads
            skos_index(reg.graph)

    # --- URL mapping -------------------------------------------------------

    def local_path(self, iri: Iri, kind: str) -> Optional[str]:
        reg = self.store.owner_of(iri)
        if reg is None:
            return None
        rest = iri.value[len(reg.base_iri.value):]
        return "%s/%s/%s/%s" % (self.config.base_url, reg.id, kind, quote(rest, safe="/:-_.~"))

    def page_url(self, iri: Iri) -> Optional[str]:
        return self.local_path(iri, "page")

    # --- dispatch ----------------------------------------------------------

    def handle(self, method: str, path: str, headers: Optional[dict] = None) -> Response:
        headers = {k.lower(): v for k, v in (headers or {}).items()}
        if method not in ("GET", "HEAD"):
            return Response(405, {"Content-Type": "text/plain; charset=utf-8", "Allow": "GET, HEAD"}, b"method not allowed\n")
        split = urlsplit(path)
        try:
            query = {k: v[0] for k, v in parse_qs(split.query, errors="strict").items()}
        except UnicodeDecodeError:
            resp = Response(400, {"Content-Type": "text/plain; charset=utf-8"}, b"query is not percent-encoded UTF-8\n")
        else:
            segments = [s for s in split.path.split("/") if s]
            resp = self._route(segments, query, headers)
        if method == "HEAD":
            resp = Response(resp.status, dict(resp.headers), b"")
        return resp

    def _route(self, segments, query, headers) -> Response:
        if not segments:
            return self._index()
        if segments == ["query"]:
            return self._query(query, scope=None)
        reg = next((r for r in self.store.registrations if r.id == segments[0]), None)
        if reg is None:
            return self._not_found()
        if len(segments) == 2 and segments[1] == "query":
            return self._query(query, scope=reg)
        if len(segments) < 3 or segments[1] not in ("resource", "page", "data"):
            return self._not_found()
        kind = segments[1]
        rest = "/".join(segments[2:])
        try:
            iri = Iri(reg.base_iri.value + unquote(rest, errors="strict"))
        except (TermError, UnicodeDecodeError):
            return self._not_found()
        if kind == "resource":
            return self._resource(reg, rest, iri, headers)
        if kind == "page":
            return self._page(reg, iri, query, headers)
        return self._data(reg, iri, headers)

    def _not_found(self) -> Response:
        return Response(404, {"Content-Type": "text/plain; charset=utf-8"}, b"not found\n")

    # --- handlers ----------------------------------------------------------

    def _resource(self, reg, rest, iri, headers) -> Response:
        # existence only: a 303 needs no neighbour labels
        if not self.store.subject_triples(iri) and not self.store.mappings_for(iri):
            return self._not_found()
        chosen = negotiate(headers.get("accept"), SERVER_PREFERENCE)
        if chosen is None:
            return Response(406, {"Content-Type": "text/plain; charset=utf-8", "Vary": "Accept"}, b"not acceptable\n")
        kind = "page" if chosen == HTML_TYPE else "data"
        location = "%s/%s/%s/%s" % (self.config.base_url, reg.id, kind, rest)
        return Response(303, {"Location": location, "Vary": "Accept"}, b"")

    def _lang_pref(self, query, headers) -> list:
        pref = []
        if "lang" in query:
            pref.append(query["lang"].lower())
        pref.extend(parse_accept_language(headers.get("accept-language")))
        if self.config.default_lang:
            pref.append(self.config.default_lang.lower())
        return pref

    def _data(self, reg, iri, headers) -> Response:
        d = describe(self.store, iri)
        if d.empty:
            return self._not_found()
        g = description_graph(d)
        chosen = negotiate(headers.get("accept"), [TURTLE_TYPE, NTRIPLES_TYPE, RDFXML_TYPE])
        if chosen is None:
            return Response(406, {"Content-Type": "text/plain; charset=utf-8", "Vary": "Accept"}, b"not acceptable\n")
        if chosen == NTRIPLES_TYPE:
            body = serialize_ntriples(g)
            ctype = NTRIPLES_TYPE
        else:
            # rdf+xml requests get Turtle with an honest Content-Type
            body = serialize_turtle(g, self.store.combined_prefix_map())
            ctype = TURTLE_TYPE
        return Response(200, {"Content-Type": ctype + "; charset=utf-8", "Vary": "Accept"}, body)

    def _page(self, reg, iri, query, headers) -> Response:
        lang_pref = self._lang_pref(query, headers)
        d = describe(self.store, iri, lang_pref)
        if d.empty:
            return self._not_found()
        body = self._render_page(reg, iri, d, lang_pref)
        return Response(
            200,
            {"Content-Type": "text/html; charset=utf-8", "Vary": "Accept, Accept-Language"},
            body.encode("utf-8"),
        )

    def _link(self, iri: Iri, label: Optional[Literal] = None) -> str:
        text = html.escape(label.lexical if label else iri.value)
        url = self.page_url(iri)
        if url is None:
            return '<a href="%s">%s</a>' % (html.escape(iri.value, quote=True), text)
        return '<a href="%s">%s</a>' % (html.escape(url, quote=True), text)

    def _render_page(self, reg, iri, d: Description, lang_pref) -> str:
        concept = extract_concept(reg.graph, iri)
        title = iri.value
        if concept is not None:
            best = concept.pref_label(lang_pref)
            if best is not None:
                title = best.lexical
        parts = [
            "<!DOCTYPE html>",
            '<html><head><meta charset="utf-8"><title>%s</title></head><body>' % html.escape(title),
            "<h1>%s</h1>" % html.escape(title),
            '<p>IRI: <code>%s</code> (%s)</p>' % (html.escape(iri.value), html.escape(reg.title or reg.id)),
        ]
        if concept is not None:
            alt = [l.lexical for langs in sorted(concept.altLabels) for l in concept.altLabels[langs]]
            if alt:
                parts.append("<p>Alternative labels: %s</p>" % html.escape(", ".join(alt)))
            for heading, iris in (
                ("Broader", concept.broader),
                ("Narrower", concept.narrower),
                ("Related", concept.related),
            ):
                if iris:
                    links = ", ".join(
                        self._link(i, d.neighbor_labels.get(i)) for i in sorted(iris)
                    )
                    parts.append("<p>%s: %s</p>" % (heading, links))
        parts.append("<h2>Mappings</h2>")
        rows = []
        for ref in d.inbound_mappings:
            partner_reg = self.store.owner_of(ref.other)
            partner_title = partner_reg.title if partner_reg else ""
            prop_local = ref.property.value.rsplit("#", 1)[-1].rsplit("/", 1)[-1]
            if ref.members is not None and ref.direction == "outbound":
                member_links = ", ".join(self._link(m, d.neighbor_labels.get(m)) for m in ref.members)
                rows.append(
                    "<li>%s: combination of %s</li>" % (html.escape(prop_local), member_links)
                )
            else:
                rows.append(
                    "<li>%s (%s): %s%s</li>"
                    % (
                        html.escape(prop_local),
                        html.escape(ref.direction),
                        self._link(ref.other, d.neighbor_labels.get(ref.other)),
                        " [%s]" % html.escape(partner_title) if partner_title else "",
                    )
                )
        if rows:
            parts.append("<ul>%s</ul>" % "".join(rows))
        else:
            parts.append("<p>No mappings recorded for this concept.</p>")
        parts.append("</body></html>")
        return "\n".join(parts)

    def _index(self) -> Response:
        items = []
        for reg in self.store.registrations:
            schemes_count = len(reg.graph.match(p=ns.RDF_TYPE, o=ns.SKOS_CONCEPT_SCHEME))
            concept_count = len(skos_index(reg.graph).concepts)
            items.append(
                "<li><strong>%s</strong> (%s): %d concepts, %d schemes, %d triples</li>"
                % (html.escape(reg.title or reg.id), html.escape(reg.id), concept_count, schemes_count, len(reg.graph))
            )
        mapping_items = [
            "<li>%s: %d triples</li>" % (html.escape(mid), len(g)) for mid, g in self.store.mapping_graphs
        ]
        body = (
            "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>Thesaurus hub</title></head><body>"
            "<h1>Registered thesauri</h1><ul>%s</ul><h2>Mapping graphs</h2><ul>%s</ul>"
            "</body></html>" % ("".join(items), "".join(mapping_items))
        )
        return Response(200, {"Content-Type": "text/html; charset=utf-8"}, body.encode("utf-8"))

    # --- query endpoint ----------------------------------------------------

    def _query(self, query, scope) -> Response:
        try:
            s, p, o = parse_pattern(
                query.get("s"), query.get("p"), query.get("o"), self.store.combined_prefix_map()
            )
        except TermError as e:
            return Response(400, {"Content-Type": "text/plain; charset=utf-8"}, ("bad term: %s\n" % e).encode("utf-8"))
        limit = self.config.result_limit
        results = list(islice((scope.graph if scope else self.store).match(s=s, p=p, o=o), limit + 1))
        truncated = len(results) > limit
        body = "".join(format_triple(t) + "\n" for t in results[:limit]).encode("utf-8")
        headers = {"Content-Type": NTRIPLES_TYPE + "; charset=utf-8"}
        if truncated:
            headers["X-Truncated"] = "true"
        return Response(200, headers, body)


# --- HTTP wrapper ----------------------------------------------------------


def make_server(app: LinkedDataApp, host: str, port: int) -> ThreadingHTTPServer:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # headers and body go out in separate writes; without TCP_NODELAY the
        # body waits for the client's delayed ACK on a kept-alive connection
        disable_nagle_algorithm = True

        def _respond(self, method):
            start = time.monotonic()
            try:
                resp = app.handle(method, self.path, dict(self.headers))
            except Exception:
                log.exception("%s %s failed", method, self.path)
                resp = Response(500, {"Content-Type": "text/plain; charset=utf-8"}, b"internal server error\n")
            self.send_response(resp.status)
            for k, v in resp.headers.items():
                self.send_header(k, v)
            self.send_header("Content-Length", str(len(resp.body)))
            self.end_headers()
            if method != "HEAD" and resp.body:
                self.wfile.write(resp.body)
            log.info(
                "%s %s %d %.1fms", method, self.path, resp.status, (time.monotonic() - start) * 1000
            )

        def do_GET(self):
            self._respond("GET")

        def do_HEAD(self):
            self._respond("HEAD")

        def do_POST(self):
            self._respond("POST")

        def log_message(self, *args):
            pass

    return ThreadingHTTPServer((host, port), Handler)


def parse_listen(listen: str) -> tuple:
    """(host, port) of a HOST:PORT listen address; ValueError if it is none."""
    host, _, port = listen.rpartition(":")
    if not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise ValueError("listen address %r is no HOST:PORT with a port from 0 to 65535" % listen)
    return host or "127.0.0.1", int(port)


def serve(app: LinkedDataApp, address: tuple):
    """Run the service on a (host, port) until interrupted; logs one line per request."""
    server = make_server(app, *address)
    for reg in app.store.registrations:
        log.info(
            "registered %s (%s): %d concepts",
            reg.id,
            reg.title,
            len(skos_index(reg.graph).concepts),
        )
    log.info("listening on %s:%d", *address)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
