"""Registry of independently loaded thesaurus graphs plus mapping graphs.

Each thesaurus keeps its own named graph (simulating a separate storage
location); mapping graphs are stored apart from thesaurus graphs so the
provenance of every mapping set stays re-exportable. The store is built
during a load phase, then sealed for serving.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import namespaces as ns
from .graph import Graph
from .ntriples import load_ntriples
from .skosmodel import Diagnostic, best_label, make_diagnostic
from .terms import Iri, Literal, PrefixMap, TermError


class StoreError(ValueError):
    """Registration or manifest constraint violation."""


def match_union(graphs, s=None, p=None, o=None):
    """Triples matching the pattern in any of graphs, in canonical order and
    each once: every Graph.match is already sorted, so a merge of the sorted
    lists puts equal triples next to each other."""
    last = None
    for t in heapq.merge(*(g.match(s, p, o) for g in graphs)):
        if t != last:
            yield t
            last = t


@dataclass
class ThesaurusRegistration:
    id: str
    base_iri: Iri
    graph: Graph
    prefix_map: PrefixMap = field(default_factory=PrefixMap)
    title: str = ""


@dataclass(frozen=True)
class MappingRef:
    """One row of a concept's mapping listing, for the combined views."""

    direction: str            # "outbound" | "inbound"
    property: Iri
    other: Iri                # partner concept (or combination source)
    members: Optional[tuple] = None   # combination member IRIs


class MultiStore:
    def __init__(self, ext_namespace: str = ns.DEFAULT_EXT_NS):
        self.registrations: list[ThesaurusRegistration] = []
        self.mapping_graphs: list[tuple[str, Graph]] = []
        self.ext_namespace = ext_namespace

    # --- loading -----------------------------------------------------------

    def register_thesaurus(self, reg: ThesaurusRegistration):
        for existing in self.registrations:
            if existing.id == reg.id:
                raise StoreError("duplicate thesaurus id %r" % reg.id)
            a, b = existing.base_iri.value, reg.base_iri.value
            if a.startswith(b) or b.startswith(a):
                raise StoreError(
                    "base IRI %s overlaps registered base %s" % (reg.base_iri, existing.base_iri)
                )
        reg.graph.freeze()
        self.registrations.append(reg)

    def _mapping_predicates(self) -> set:
        extra = {
            ns.ext_matches_combination(self.ext_namespace),
            ns.ext_member(self.ext_namespace),
            ns.RDF_TYPE,
        }
        return set(ns.MAPPING_PROPERTIES) | extra

    def load_mappings(self, id: str, g: Graph) -> list:
        """Store a mapping graph; foreign triples and dangling endpoints are
        kept but reported, the foreign ones first."""
        allowed = self._mapping_predicates()
        combo_type = ns.ext_concept_combination(self.ext_namespace)
        foreign: list[Diagnostic] = []
        dangling: list[Diagnostic] = []
        for t in g.freeze():
            if t.predicate not in allowed or (
                t.predicate == ns.RDF_TYPE and t.object != combo_type
            ):
                foreign.append(
                    make_diagnostic(
                        "MAPPING_GRAPH_FOREIGN_TRIPLE",
                        subject=t.subject,
                        message="predicate %s does not belong in a mapping graph" % (t.predicate,),
                    )
                )
            if t.predicate not in ns.MAPPING_PROPERTIES:
                continue
            for endpoint in (t.subject, t.object):
                if isinstance(endpoint, Iri) and self.owner_of(endpoint) is None:
                    dangling.append(
                        make_diagnostic(
                            "DANGLING_MAPPING_TARGET",
                            subject=endpoint,
                            message="%s is under no registered base IRI" % (endpoint,),
                        )
                    )
        self.mapping_graphs.append((id, g))
        return foreign + dangling

    # --- lookup ------------------------------------------------------------

    def owner_of(self, iri: Iri) -> Optional[ThesaurusRegistration]:
        """Longest registered base-IRI prefix wins."""
        best = None
        for reg in self.registrations:
            if iri.value.startswith(reg.base_iri.value):
                if best is None or len(reg.base_iri.value) > len(best.base_iri.value):
                    best = reg
        return best

    def label_of(self, iri: Iri, lang_pref=()) -> Optional[Literal]:
        """Best-language prefLabel resolved across all registrations."""
        reg = self.owner_of(iri)
        if reg is None:
            return None
        by_lang: dict = {}
        for t in reg.graph.match(s=iri, p=ns.SKOS_PREF_LABEL):
            if isinstance(t.object, Literal):
                by_lang.setdefault(t.object.lang or "", t.object)
        return best_label(by_lang, lang_pref)

    def _mapping_graphs(self) -> list:
        return [g for _, g in self.mapping_graphs]

    def match(self, s=None, p=None, o=None):
        """Graph.match over every named graph, read in place, each triple once."""
        graphs = [reg.graph for reg in self.registrations] + self._mapping_graphs()
        return match_union(graphs, s, p, o)

    def _combination_members(self, node: Iri) -> tuple:
        triples = match_union(self._mapping_graphs(), s=node, p=ns.ext_member(self.ext_namespace))
        return tuple(t.object for t in triples if isinstance(t.object, Iri))

    def mappings_for(self, iri: Iri) -> list:
        """Every outbound and inbound mapping touching iri, one per mapping
        triple however many graphs hold it."""
        combo_prop = ns.ext_matches_combination(self.ext_namespace)
        member_prop = ns.ext_member(self.ext_namespace)
        graphs = self._mapping_graphs()
        refs: list[MappingRef] = []
        for t in match_union(graphs, s=iri):
            if t.predicate in ns.MAPPING_PROPERTIES and isinstance(t.object, Iri):
                refs.append(MappingRef("outbound", t.predicate, t.object))
            elif t.predicate == combo_prop and isinstance(t.object, Iri):
                refs.append(MappingRef("outbound", t.predicate, t.object, self._combination_members(t.object)))
        for t in match_union(graphs, o=iri):
            if t.predicate in ns.MAPPING_PROPERTIES and isinstance(t.subject, Iri):
                refs.append(MappingRef("inbound", t.predicate, t.subject))
            elif t.predicate == member_prop and isinstance(t.subject, Iri):
                # iri is a member of a combination node; surface the
                # combination's source concept as the inbound partner
                members = self._combination_members(t.subject)
                for ct in match_union(graphs, p=combo_prop, o=t.subject):
                    if isinstance(ct.subject, Iri):
                        refs.append(MappingRef("inbound", combo_prop, ct.subject, members))
        refs.sort(key=lambda r: (r.direction, r.property, r.other))
        return refs

    def export_merged(self) -> Graph:
        """Union of all registration graphs and mapping graphs."""
        g = Graph()
        for reg in self.registrations:
            g.update(reg.graph)
        for _, mg in self.mapping_graphs:
            g.update(mg)
        return g

    def subject_triples(self, iri: Iri) -> list:
        """Triples about iri from its owning graph plus all mapping graphs."""
        reg = self.owner_of(iri)
        graphs = ([reg.graph] if reg is not None else []) + self._mapping_graphs()
        return list(match_union(graphs, s=iri))

    def combined_prefix_map(self) -> PrefixMap:
        pm = PrefixMap()
        for prefix, namespace in ns.BUILTIN_PREFIXES.items():
            pm.bind(prefix, Iri(namespace))
        for reg in self.registrations:
            for prefix, namespace in reg.prefix_map:
                if pm.namespace(prefix) is None:
                    pm.bind(prefix, namespace)
        return pm


# --- manifest --------------------------------------------------------------


@dataclass
class ServiceConfig:
    listen: str = "127.0.0.1:8000"
    base_url: str = ""
    result_limit: int = 10000
    default_lang: str = "en"


def _field(obj, key: str, kind: str, default=None, cls=str):
    """obj[key] of a manifest object, or default; StoreError when obj is no
    object, or the value is missing, a bool, no instance of cls, or a string
    that is not valid Unicode (a lone surrogate escape)."""
    value = obj.get(key, default) if isinstance(obj, dict) else None
    if not isinstance(value, cls) or isinstance(value, bool):
        raise StoreError("%s needs %r of type %s" % (kind, key, cls.__name__))
    if isinstance(value, str):
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise StoreError("%s %r is not valid Unicode" % (kind, key))
    return value


def _iri(value: str) -> Iri:
    try:
        return Iri(value)
    except TermError as e:
        raise StoreError("manifest: %s" % e)


def _load_entry(base_dir: Path, entry, kind: str):
    """Graph and parse diagnostics of the file a manifest entry names."""
    file = _field(entry, "file", kind)
    try:
        return load_ntriples(base_dir / file)
    except (OSError, ValueError) as e:
        raise StoreError("cannot read %s: %s" % (file, e))


def load_manifest(path):
    """Build a MultiStore (plus diagnostics and service config) from a JSON manifest.

    Schema:
      {
        "ext_namespace": "http://example.org/skos-ext#",   // optional
        "thesauri": [
          {"id": "thesoz", "title": "...", "base_iri": "http://...",
           "file": "thesoz.nt", "prefixes": {"thesoz": "http://..."}}
        ],
        "mappings": [{"id": "thesoz-stw", "file": "mappings.nt"}],
        "service": {"listen": "127.0.0.1:8000", "base_url": "",
                    "result_limit": 10000, "default_lang": "de"}
      }
    File paths are resolved relative to the manifest. Any entry that breaks
    this schema (a missing key, a value of the wrong type, an invalid IRI)
    raises StoreError.
    """
    path = Path(path)
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        raise StoreError("cannot read manifest %s: %s" % (path, e))
    if not isinstance(manifest, dict):
        raise StoreError("manifest %s is not a JSON object" % path)
    base_dir = path.parent
    ext_namespace = _iri(_field(manifest, "ext_namespace", "manifest", ns.DEFAULT_EXT_NS)).value
    store = MultiStore(ext_namespace=ext_namespace)
    diags: list[Diagnostic] = []
    for entry in _field(manifest, "thesauri", "manifest", [], list):
        id = _field(entry, "id", "thesaurus")
        base_iri = _iri(_field(entry, "base_iri", "thesaurus"))
        prefixes = _field(entry, "prefixes", "thesaurus %r" % id, {}, dict)
        pm = PrefixMap()
        for prefix in prefixes:
            pm.bind(prefix, _iri(_field(prefixes, prefix, "thesaurus %r prefixes" % id)))
        graph, file_diags = _load_entry(base_dir, entry, "thesaurus")
        diags.extend(file_diags)
        title = _field(entry, "title", "thesaurus", id)
        store.register_thesaurus(ThesaurusRegistration(id, base_iri, graph, pm, title))
    for entry in _field(manifest, "mappings", "manifest", [], list):
        id = _field(entry, "id", "mapping")
        graph, file_diags = _load_entry(base_dir, entry, "mapping")
        diags.extend(file_diags)
        diags.extend(store.load_mappings(id, graph))
    svc = _field(manifest, "service", "manifest", {}, dict)
    result_limit = _field(svc, "result_limit", "service", 10000, int)
    if result_limit < 1:
        raise StoreError("manifest 'service' needs a 'result_limit' of at least 1")
    config = ServiceConfig(
        listen=_field(svc, "listen", "service", "127.0.0.1:8000"),
        base_url=_field(svc, "base_url", "service", ""),
        result_limit=result_limit,
        default_lang=_field(svc, "default_lang", "service", "en"),
    )
    return store, config, diags
