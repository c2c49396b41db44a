"""Legacy term-based crosswalk conversion to SKOS mapping triples.

Pipeline: parse the tab-separated crosswalk file, resolve each term
against a scheme's label index, emit typed mapping edges plus a
diagnostic for every entry (nothing vanishes silently), optionally
generate inverse edges, and materialize everything as triples.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from . import namespaces as ns
from .graph import Graph
from .ntriples import utf8_lines
from .skosmodel import Diagnostic, extract_schemes, make_diagnostic
from .terms import Iri, Literal, Triple


class RelationCode(Enum):
    EQUIVALENT = "="
    NARROWER = "<"   # source is narrower than target
    BROADER = ">"    # source is broader than target
    RELATED = "^"


# Forward property per relation code. `A < B`: A is the narrower side, so
# A points at the broader concept via broadMatch.
RELATION_PROPERTY = {
    RelationCode.EQUIVALENT: ns.SKOS_EXACT_MATCH,
    RelationCode.NARROWER: ns.SKOS_BROAD_MATCH,
    RelationCode.BROADER: ns.SKOS_NARROW_MATCH,
    RelationCode.RELATED: ns.SKOS_RELATED_MATCH,
}

INVERSE_PROPERTY = {
    ns.SKOS_EXACT_MATCH: ns.SKOS_EXACT_MATCH,
    ns.SKOS_CLOSE_MATCH: ns.SKOS_CLOSE_MATCH,
    ns.SKOS_BROAD_MATCH: ns.SKOS_NARROW_MATCH,
    ns.SKOS_NARROW_MATCH: ns.SKOS_BROAD_MATCH,
    ns.SKOS_RELATED_MATCH: ns.SKOS_RELATED_MATCH,
}


@dataclass(frozen=True)
class CrosswalkEntry:
    source_term: str
    source_lang: str
    relation: RelationCode
    target_terms: tuple
    target_lang: str
    line: int


@dataclass(frozen=True)
class CrosswalkHeader:
    source_id: str
    target_id: str
    source_lang: str
    target_lang: str


@dataclass(frozen=True)
class MappingEdge:
    source: Iri
    property: Iri
    targets: tuple
    provenance: tuple  # (file, line)

    @property
    def is_combination(self) -> bool:
        return len(self.targets) == 2


# --- term resolution -------------------------------------------------------


@dataclass(frozen=True)
class Preferred:
    concept: Iri


@dataclass(frozen=True)
class NonPreferred:
    concept: Iri
    label_kind: str  # "alt" or "hidden"


@dataclass(frozen=True)
class Ambiguous:
    candidates: tuple


@dataclass(frozen=True)
class NotFound:
    pass


_WS_RUN = re.compile(r"\s+")


def normalize_term(term: str) -> str:
    """Trim and collapse internal whitespace runs; matching stays case-sensitive."""
    return _WS_RUN.sub(" ", term.strip())


class SchemeView:
    """Label index over one concept scheme, built for term resolution."""

    def __init__(self, graph: Graph, scheme: Iri, concepts):
        self.graph = graph
        self.scheme = scheme
        self.concepts = set(concepts)
        self._pref: dict = {}
        self._nonpref: dict = {}
        for concept in self.concepts:
            for t in graph.match(s=concept):
                o = t.object
                if not isinstance(o, Literal) or o.lang is None:
                    continue
                key = (normalize_term(o.lexical), o.lang)
                if t.predicate == ns.SKOS_PREF_LABEL:
                    self._pref.setdefault(key, set()).add(concept)
                elif t.predicate == ns.SKOS_ALT_LABEL:
                    self._nonpref.setdefault(key, set()).add((concept, "alt"))
                elif t.predicate == ns.SKOS_HIDDEN_LABEL:
                    self._nonpref.setdefault(key, set()).add((concept, "hidden"))


def build_scheme_view(graph: Graph, scheme: Optional[Iri] = None) -> SchemeView:
    """View over `scheme`, or over the single scheme in the graph when omitted.

    Scheme membership comes from the graph's SKOS index (see skosmodel)."""
    schemes, _ = extract_schemes(graph)
    if scheme is None:
        if len(schemes) != 1:
            raise ValueError("graph contains %d schemes; specify one" % len(schemes))
        target = schemes[0]
    else:
        matches = [s for s in schemes if s.iri == scheme]
        if not matches:
            raise ValueError("scheme %s not found in graph" % (scheme,))
        target = matches[0]
    return SchemeView(graph, target.iri, target.concepts)


def resolve_term(view: SchemeView, term: str, lang: str):
    """Classify a term against the scheme's labels; preferred tier wins."""
    key = (normalize_term(term), lang.lower())
    pref = view._pref.get(key, set())
    if len(pref) == 1:
        return Preferred(next(iter(pref)))
    if len(pref) > 1:
        return Ambiguous(tuple(sorted(pref)))
    nonpref = view._nonpref.get(key, set())
    concepts = sorted({c for c, _ in nonpref})
    if len(concepts) == 1:
        kinds = sorted(kind for c, kind in nonpref)
        return NonPreferred(concepts[0], kinds[0])
    if len(concepts) > 1:
        return Ambiguous(tuple(concepts))
    return NotFound()


# --- crosswalk file parsing ------------------------------------------------

_HEADER_RE = re.compile(r"^#xwalk\s+(.*)$")
_RELATIONS = {r.value: r for r in RelationCode}


def parse_crosswalk(data, filename: str = "<crosswalk>"):
    """Parse the tab-separated crosswalk format.

    Returns (header, entries, diagnostics). Malformed lines, and lines
    that are not valid UTF-8, yield XWALK_SYNTAX diagnostics; later valid
    lines are still parsed.
    """
    header: Optional[CrosswalkHeader] = None
    entries: list[CrosswalkEntry] = []
    diags: list[Diagnostic] = []

    def syntax(lineno, msg):
        diags.append(make_diagnostic("XWALK_SYNTAX", message=msg, source_location=(filename, lineno)))

    for lineno, raw in enumerate(utf8_lines(data), start=1):
        if raw is None:
            syntax(lineno, "line is not valid UTF-8")
            continue
        line = raw.rstrip("\r")
        if not line.strip():
            continue
        m = _HEADER_RE.match(line)
        if m:
            fields = dict(
                part.split("=", 1) for part in m.group(1).split() if "=" in part
            )
            missing = [k for k in ("source", "target", "source-lang", "target-lang") if k not in fields]
            if missing:
                syntax(lineno, "header missing %s" % ", ".join(missing))
                continue
            header = CrosswalkHeader(
                fields["source"], fields["target"],
                fields["source-lang"].lower(), fields["target-lang"].lower(),
            )
            continue
        if line.lstrip().startswith("#"):
            continue
        if header is None:
            syntax(lineno, "data line before #xwalk header")
            continue
        parts = line.split("\t")
        if len(parts) not in (3, 4):
            syntax(lineno, "expected 3 or 4 tab-separated fields, got %d" % len(parts))
            continue
        source_term = normalize_term(parts[0])
        relation_token = parts[1].strip()
        targets = tuple(normalize_term(p) for p in parts[2:])
        if relation_token not in _RELATIONS:
            syntax(lineno, "unknown relation %r (expected one of = < > ^)" % relation_token)
            continue
        if not source_term or any(not t for t in targets):
            syntax(lineno, "empty term")
            continue
        relation = _RELATIONS[relation_token]
        if len(targets) == 2 and relation is not RelationCode.EQUIVALENT:
            syntax(lineno, "combination mapping requires relation '='")
            continue
        entries.append(
            CrosswalkEntry(
                source_term=source_term,
                source_lang=header.source_lang,
                relation=relation,
                target_terms=targets,
                target_lang=header.target_lang,
                line=lineno,
            )
        )
    return header, entries, diags


# --- conversion ------------------------------------------------------------


class NonPreferredMode(Enum):
    STRICT = "strict"
    PROMOTE = "promote"


class AmbiguityMode(Enum):
    FAIL = "fail"
    FIRST_BY_SORTED_IRI = "first"


@dataclass
class ConversionPolicy:
    nonpreferred_mode: NonPreferredMode = NonPreferredMode.STRICT
    ambiguity_mode: AmbiguityMode = AmbiguityMode.FAIL
    emit_inverses: bool = True


def _resolve_side(resolution, side, term, policy, loc, diags):
    """Apply policy to one resolved side; returns the concept Iri or None."""
    if isinstance(resolution, Preferred):
        return resolution.concept
    if isinstance(resolution, NonPreferred):
        if policy.nonpreferred_mode is NonPreferredMode.PROMOTE:
            diags.append(
                make_diagnostic(
                    "XWALK_PROMOTED",
                    subject=resolution.concept,
                    message="%s term %r is a %sLabel of %s; promoted to the concept"
                    % (side, term, resolution.label_kind, resolution.concept),
                    source_location=loc,
                )
            )
            return resolution.concept
        diags.append(
            make_diagnostic(
                "XWALK_NONPREFERRED",
                subject=resolution.concept,
                message="%s term %r is a %sLabel of %s, not a preferred term"
                % (side, term, resolution.label_kind, resolution.concept),
                source_location=loc,
            )
        )
        return None
    if isinstance(resolution, Ambiguous):
        if policy.ambiguity_mode is AmbiguityMode.FIRST_BY_SORTED_IRI:
            chosen = resolution.candidates[0]
            diags.append(
                make_diagnostic(
                    "XWALK_AMBIGUOUS_RESOLVED",
                    subject=chosen,
                    message="%s term %r matches %d concepts; took %s"
                    % (side, term, len(resolution.candidates), chosen),
                    source_location=loc,
                )
            )
            return chosen
        diags.append(
            make_diagnostic(
                "XWALK_AMBIGUOUS",
                message="%s term %r matches multiple concepts: %s"
                % (side, term, ", ".join(c.value for c in resolution.candidates)),
                source_location=loc,
            )
        )
        return None
    diags.append(
        make_diagnostic(
            "XWALK_UNRESOLVED",
            message="%s term %r matches no label" % (side, term),
            source_location=loc,
        )
    )
    return None


def convert_entry(
    entry: CrosswalkEntry,
    source_view: SchemeView,
    target_view: SchemeView,
    policy: ConversionPolicy,
    ext_namespace: str = ns.DEFAULT_EXT_NS,
    filename: str = "<crosswalk>",
):
    """Convert one crosswalk entry; returns (edges, diagnostics).

    Every failure mode becomes a diagnostic; the operation never raises
    on bad data, so batch conversion always completes.
    """
    diags: list[Diagnostic] = []
    loc = (filename, entry.line)

    src = _resolve_side(
        resolve_term(source_view, entry.source_term, entry.source_lang),
        "source", entry.source_term, policy, loc, diags,
    )
    tgts = []
    for term in entry.target_terms:
        tgts.append(
            _resolve_side(
                resolve_term(target_view, term, entry.target_lang),
                "target", term, policy, loc, diags,
            )
        )
    if src is None or any(t is None for t in tgts):
        return [], diags

    if len(tgts) == 2:  # parse_crosswalk admits only '=' for two targets
        if tgts[0] == tgts[1]:
            diags.append(
                make_diagnostic(
                    "XWALK_BAD_COMBINATION",
                    subject=src,
                    message="combination members are identical: %s" % (tgts[0],),
                    source_location=loc,
                )
            )
            return [], diags
        edge = MappingEdge(
            source=src,
            property=ns.ext_matches_combination(ext_namespace),
            targets=tuple(sorted(tgts)),
            provenance=loc,
        )
    else:
        edge = MappingEdge(
            source=src,
            property=RELATION_PROPERTY[entry.relation],
            targets=(tgts[0],),
            provenance=loc,
        )
    if not any(d.code in ("XWALK_PROMOTED", "XWALK_AMBIGUOUS_RESOLVED") for d in diags):
        diags.append(
            make_diagnostic(
                "XWALK_OK",
                subject=src,
                message="converted to %s" % (edge.property,),
                source_location=loc,
            )
        )
    return [edge], diags


def _fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def combination_node_iri(source: Iri, members, ext_namespace: str) -> Iri:
    """Deterministic combination node: hash of sorted members plus source."""
    key = "\n".join(sorted(m.value for m in members) + [source.value])
    return Iri(_combo_base(ext_namespace) + "%016x" % _fnv1a64(key.encode("utf-8")))


def _combo_base(ext_namespace: str) -> str:
    # ext namespaces end in '#' or '/'; combination nodes live one path
    # segment below so they stay dereferenceable.
    return ext_namespace.rstrip("#/") + "/combination/"


def convert_combination(source: Iri, members, ext_namespace: str) -> list:
    """The four triples of one combination mapping; its two distinct
    members are checked by convert_entry."""
    first, second = members
    node = combination_node_iri(source, members, ext_namespace)
    return [
        Triple(source, ns.ext_matches_combination(ext_namespace), node),
        Triple(node, ns.RDF_TYPE, ns.ext_concept_combination(ext_namespace)),
        Triple(node, ns.ext_member(ext_namespace), first),
        Triple(node, ns.ext_member(ext_namespace), second),
    ]


def generate_inverses(edges):
    """Inverse edges per the SKOS property table, minus ones already present.

    Combination edges have no inverse form and are skipped with an Info
    diagnostic. Returns (new_edges, diagnostics).
    """
    diags: list[Diagnostic] = []
    present = {(e.source, e.property, e.targets) for e in edges}
    out: list[MappingEdge] = []
    for e in edges:
        if e.is_combination:
            diags.append(
                make_diagnostic(
                    "XWALK_NO_INVERSE",
                    subject=e.source,
                    message="combination mapping has no inverse form",
                    source_location=e.provenance,
                )
            )
            continue
        inv_prop = INVERSE_PROPERTY[e.property]
        inv = MappingEdge(e.targets[0], inv_prop, (e.source,), e.provenance)
        key = (inv.source, inv.property, inv.targets)
        if key in present:
            continue
        present.add(key)
        out.append(inv)
    return out, diags


def edges_to_graph(edges, ext_namespace: str = ns.DEFAULT_EXT_NS) -> Graph:
    """Materialize edges as triples: 1 per simple edge, 4 per combination."""
    g = Graph()
    for e in edges:
        if e.is_combination:
            g.update(convert_combination(e.source, e.targets, ext_namespace))
        else:
            g.insert(Triple(e.source, e.property, e.targets[0]))
    return g


def convert_crosswalk(
    data,
    source_view: SchemeView,
    target_view: SchemeView,
    policy: Optional[ConversionPolicy] = None,
    ext_namespace: str = ns.DEFAULT_EXT_NS,
    filename: str = "<crosswalk>",
):
    """Full conversion of one crosswalk file; returns (edges, diagnostics).

    Rejects files whose header declares the same scheme id on both sides.
    """
    policy = policy or ConversionPolicy()
    header, entries, diags = parse_crosswalk(data, filename)
    if header is not None and header.source_id == header.target_id:
        diags.append(
            make_diagnostic(
                "XWALK_SAME_SCHEME",
                message="crosswalk declares %r on both sides" % header.source_id,
                source_location=(filename, 1),
            )
        )
        return [], diags
    edges: list[MappingEdge] = []
    for entry in entries:
        new_edges, new_diags = convert_entry(
            entry, source_view, target_view, policy, ext_namespace, filename
        )
        edges.extend(new_edges)
        diags.extend(new_diags)
    if policy.emit_inverses:
        inverses, inv_diags = generate_inverses(edges)
        edges.extend(inverses)
        diags.extend(inv_diags)
    return edges, diags
