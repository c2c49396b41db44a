"""SKOS-level views over raw graphs, plus integrity validation.

The validator never mutates or repairs; every finding is a Diagnostic with
a stable code so downstream tests and reports can compare codes rather
than message prose.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from . import namespaces as ns
from .graph import Graph
from .terms import Iri, Literal, Triple


class Severity(Enum):
    ERROR = "Error"
    WARNING = "Warning"
    INFO = "Info"


@dataclass(frozen=True)
class Diagnostic:
    severity: Severity
    code: str
    subject: Optional[Iri]
    message: str
    source_location: Optional[tuple] = None  # (file, line)

    def tsv(self) -> str:
        return "\t".join(
            [
                self.severity.value,
                self.code,
                self.subject.value if self.subject else "",
                self.message,
            ]
        )


# The closed registry: code -> (severity, trigger condition). Documented in
# the README; validate_skos and the crosswalk converter emit only these.
DIAGNOSTIC_REGISTRY = {
    "DUPLICATE_PREFLABEL": (Severity.ERROR, "two prefLabels with the same language on one concept"),
    "LABEL_CLASH": (Severity.ERROR, "same (lang, lexical) pair used as prefLabel and alt/hiddenLabel of one concept"),
    "ORPHAN_CONCEPT": (Severity.WARNING, "typed skos:Concept with no scheme membership triple"),
    "MAPPING_SAME_SCHEME": (Severity.WARNING, "SKOS mapping property between two concepts of one scheme"),
    "MAPPING_NON_CONCEPT": (Severity.ERROR, "SKOS mapping property whose subject or object is not a concept"),
    "DANGLING_MAPPING_TARGET": (Severity.INFO, "mapping object not present in any registered graph"),
    "XL_NO_LITERAL_FORM": (Severity.WARNING, "SKOS-XL label resource without a literalForm"),
    "MAPPING_GRAPH_FOREIGN_TRIPLE": (Severity.WARNING, "non-mapping predicate inside a mapping graph"),
    "NT_SYNTAX": (Severity.ERROR, "malformed N-Triples line, or one that is not valid UTF-8"),
    "XWALK_SYNTAX": (Severity.ERROR, "malformed crosswalk line"),
    "XWALK_OK": (Severity.INFO, "crosswalk entry converted cleanly"),
    "XWALK_NONPREFERRED": (Severity.ERROR, "term resolves only to a non-preferred label under strict policy"),
    "XWALK_PROMOTED": (Severity.WARNING, "non-preferred term promoted to its owning concept"),
    "XWALK_AMBIGUOUS": (Severity.ERROR, "term matches multiple concepts"),
    "XWALK_AMBIGUOUS_RESOLVED": (Severity.WARNING, "ambiguous term resolved to first concept by sorted IRI"),
    "XWALK_UNRESOLVED": (Severity.ERROR, "term matches no label in the scheme"),
    "XWALK_BAD_COMBINATION": (Severity.ERROR, "two target terms resolve to one concept"),
    "XWALK_NO_INVERSE": (Severity.INFO, "combination mapping has no inverse form"),
    "XWALK_SAME_SCHEME": (Severity.ERROR, "crosswalk declares the same scheme on both sides"),
}


def make_diagnostic(code: str, subject=None, message: str = "", source_location=None) -> Diagnostic:
    """A registered diagnostic; a subject that is no IRI (a blank node, a literal) is dropped."""
    severity, _ = DIAGNOSTIC_REGISTRY[code]
    return Diagnostic(severity, code, subject if isinstance(subject, Iri) else None, message, source_location)


def diagnostics_tsv(diags) -> str:
    return "".join(d.tsv() + "\n" for d in diags)


def diagnostics_json(diags) -> str:
    return json.dumps(
        [
            {
                "severity": d.severity.value,
                "code": d.code,
                "subject": d.subject.value if d.subject else None,
                "message": d.message,
                "source": list(d.source_location) if d.source_location else None,
            }
            for d in diags
        ],
        indent=2,
        ensure_ascii=False,
    )


@dataclass
class ConceptScheme:
    iri: Iri
    title: Optional[Literal] = None
    concepts: set = field(default_factory=set)


@dataclass
class Concept:
    iri: Iri
    scheme: Optional[Iri] = None
    prefLabels: dict = field(default_factory=dict)     # lang -> Literal
    altLabels: dict = field(default_factory=dict)      # lang -> [Literal]
    hiddenLabels: dict = field(default_factory=dict)   # lang -> [Literal]
    broader: set = field(default_factory=set)
    narrower: set = field(default_factory=set)
    related: set = field(default_factory=set)

    def pref_label(self, lang_pref=()) -> Optional[Literal]:
        return best_label(self.prefLabels, lang_pref)


def best_label(by_lang: dict, lang_pref=()) -> Optional[Literal]:
    """Best-language label of a lang -> Literal map: first preference hit, else any."""
    for lang in lang_pref:
        lit = by_lang.get(lang.lower())
        if lit is not None:
            return lit
    for lang in sorted(by_lang):
        return by_lang[lang]
    return None


class SkosIndex:
    """The SKOS lookups of one graph, built in one pass over its membership triples.

    schemes: concept Iri -> tuple of scheme Iris sorted by value, from
    inScheme, topConceptOf and the inverted hasTopConcept. concepts: the
    IRIs typed skos:Concept.
    """

    __slots__ = ("schemes", "concepts")

    def __init__(self, g: Graph):
        members: dict = {}
        for prop in (ns.SKOS_IN_SCHEME, ns.SKOS_TOP_CONCEPT_OF, ns.SKOS_HAS_TOP_CONCEPT):
            for t in g.match(p=prop):
                if isinstance(t.subject, Iri) and isinstance(t.object, Iri):
                    if prop == ns.SKOS_HAS_TOP_CONCEPT:
                        members.setdefault(t.object, set()).add(t.subject)
                    else:
                        members.setdefault(t.subject, set()).add(t.object)
        self.schemes = {c: tuple(sorted(s)) for c, s in members.items()}
        self.concepts = frozenset(
            t.subject for t in g.match(p=ns.RDF_TYPE, o=ns.SKOS_CONCEPT) if isinstance(t.subject, Iri)
        )

    def is_concept(self, iri) -> bool:
        return iri in self.concepts or iri in self.schemes


def skos_index(g: Graph) -> SkosIndex:
    """The graph's SkosIndex, built on first use and memoised until the next insert."""
    index = g.memo
    if index is None:
        index = g.memo = SkosIndex(g)
    return index


def extract_schemes(g: Graph):
    """All skos:ConceptScheme subjects with their member concepts.

    Returns (schemes, diagnostics); typed concepts missing any scheme
    membership are reported as ORPHAN_CONCEPT, not dropped silently.
    """
    schemes: dict[Iri, ConceptScheme] = {}
    for t in g.match(p=ns.RDF_TYPE, o=ns.SKOS_CONCEPT_SCHEME):
        if isinstance(t.subject, Iri):
            titles = g.match(s=t.subject, p=ns.DCT_TITLE)
            title = titles[0].object if titles else None
            schemes[t.subject] = ConceptScheme(t.subject, title=title if isinstance(title, Literal) else None)
    index = skos_index(g)
    for concept, s_iris in index.schemes.items():
        for s_iri in s_iris:
            if s_iri in schemes:
                schemes[s_iri].concepts.add(concept)
    diags = [
        make_diagnostic("ORPHAN_CONCEPT", subject=c, message="concept has no scheme membership")
        for c in sorted(index.concepts)
        if c not in index.schemes
    ]
    return sorted(schemes.values(), key=lambda s: s.iri.value), diags


_XL_TO_PLAIN = {
    ns.SKOSXL_PREF_LABEL: ns.SKOS_PREF_LABEL,
    ns.SKOSXL_ALT_LABEL: ns.SKOS_ALT_LABEL,
    ns.SKOSXL_HIDDEN_LABEL: ns.SKOS_HIDDEN_LABEL,
}


def resolve_xl_labels(g: Graph):
    """Dumb SKOS-XL labels down to plain SKOS label triples.

    Returns (augmented graph copy, diagnostics). Original XL triples are
    retained; the operation is idempotent.
    """
    out = g.copy()
    diags: list[Diagnostic] = []
    for xl_prop, plain_prop in _XL_TO_PLAIN.items():
        for t in g.match(p=xl_prop):
            forms = [
                lt.object
                for lt in g.match(s=t.object, p=ns.SKOSXL_LITERAL_FORM)
                if isinstance(lt.object, Literal)
            ]
            if not forms:
                diags.append(
                    make_diagnostic(
                        "XL_NO_LITERAL_FORM",
                        subject=t.object,
                        message="label resource of %s has no literalForm" % (t.subject,),
                    )
                )
                continue
            for form in forms:
                out.insert(Triple(t.subject, plain_prop, form))
    return out, diags


def extract_concept(g: Graph, iri: Iri) -> Optional[Concept]:
    """Concept view for iri, or None when nothing SKOS-shaped exists for it."""
    triples = g.match(s=iri)
    relevant = [
        t
        for t in triples
        if t.predicate.value.startswith(ns.SKOS_NS)
        or (t.predicate == ns.RDF_TYPE and t.object == ns.SKOS_CONCEPT)
    ]
    if not relevant:
        return None
    c = Concept(iri)
    schemes = skos_index(g).schemes.get(iri)
    if schemes:
        c.scheme = schemes[0]
    for t in triples:
        p, o = t.predicate, t.object
        if p == ns.SKOS_PREF_LABEL and isinstance(o, Literal):
            lang = o.lang or ""
            c.prefLabels.setdefault(lang, o)
        elif p == ns.SKOS_ALT_LABEL and isinstance(o, Literal):
            c.altLabels.setdefault(o.lang or "", []).append(o)
        elif p == ns.SKOS_HIDDEN_LABEL and isinstance(o, Literal):
            c.hiddenLabels.setdefault(o.lang or "", []).append(o)
        elif p == ns.SKOS_BROADER and isinstance(o, Iri):
            c.broader.add(o)
        elif p == ns.SKOS_NARROWER and isinstance(o, Iri):
            c.narrower.add(o)
        elif p == ns.SKOS_RELATED and isinstance(o, Iri):
            c.related.add(o)
    return c


def validate_skos(g: Graph, external_graphs=()) -> list:
    """Integrity checks backing the conversion rules; see the registry table.

    external_graphs: additional graphs that mapping objects may legally
    live in (registered thesauri); objects found nowhere are reported as
    DANGLING_MAPPING_TARGET at Info level.
    """
    diags: list[Diagnostic] = []

    label_triples: dict[Iri, list[Triple]] = {}
    for prop in (ns.SKOS_PREF_LABEL, ns.SKOS_ALT_LABEL, ns.SKOS_HIDDEN_LABEL):
        for t in g.match(p=prop):
            if isinstance(t.subject, Iri) and isinstance(t.object, Literal):
                label_triples.setdefault(t.subject, []).append(t)

    for subject in sorted(label_triples):
        prefs: dict[str, list[Literal]] = {}
        nonpref_pairs: dict[tuple, str] = {}
        for t in label_triples[subject]:
            lit = t.object
            lang = lit.lang or ""
            if t.predicate == ns.SKOS_PREF_LABEL:
                prefs.setdefault(lang, []).append(lit)
            else:
                kind = "altLabel" if t.predicate == ns.SKOS_ALT_LABEL else "hiddenLabel"
                nonpref_pairs[(lang, lit.lexical)] = kind
        for lang, lits in sorted(prefs.items()):
            if len(lits) > 1:
                diags.append(
                    make_diagnostic(
                        "DUPLICATE_PREFLABEL",
                        subject=subject,
                        message="%d prefLabels with language %r" % (len(lits), lang or "(none)"),
                    )
                )
            for lit in lits:
                kind = nonpref_pairs.get((lang, lit.lexical))
                if kind:
                    diags.append(
                        make_diagnostic(
                            "LABEL_CLASH",
                            subject=subject,
                            message='"%s"@%s is both prefLabel and %s' % (lit.lexical, lang or "", kind),
                        )
                    )

    _, orphan_diags = extract_schemes(g)
    diags.extend(orphan_diags)

    index = skos_index(g)
    external = [(eg, skos_index(eg)) for eg in external_graphs]
    for prop in sorted(ns.MAPPING_PROPERTIES):
        for t in g.match(p=prop):
            s_ok = index.is_concept(t.subject)
            local = prop.value[len(ns.SKOS_NS):]
            if not s_ok:
                diags.append(
                    make_diagnostic(
                        "MAPPING_NON_CONCEPT",
                        subject=t.subject,
                        message="subject of %s is not a concept" % local,
                    )
                )
            o = t.object
            if not isinstance(o, Iri):
                diags.append(
                    make_diagnostic(
                        "MAPPING_NON_CONCEPT",
                        subject=t.subject,
                        message="object of %s is not a resource" % local,
                    )
                )
                continue
            known_here = bool(g.match(s=o)) or o in index.schemes
            if known_here:
                if not index.is_concept(o):
                    diags.append(
                        make_diagnostic(
                            "MAPPING_NON_CONCEPT",
                            subject=t.subject,
                            message="object %s of %s is not a concept" % (o, local),
                        )
                    )
                elif s_ok and not set(index.schemes.get(t.subject, ())).isdisjoint(index.schemes.get(o, ())):
                    diags.append(
                        make_diagnostic(
                            "MAPPING_SAME_SCHEME",
                            subject=t.subject,
                            message="%s links two concepts of one scheme" % local,
                        )
                    )
            elif not any(eg.match(s=o) or eindex.is_concept(o) for eg, eindex in external):
                diags.append(
                    make_diagnostic(
                        "DANGLING_MAPPING_TARGET",
                        subject=t.subject,
                        message="mapping object %s is not present in any registered graph" % (o,),
                    )
                )
    return diags
