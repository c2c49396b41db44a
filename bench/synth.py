"""Seeded input generator and independent oracle for the skoshub benchmark.

One seed gives one pair of thesauri shaped like TheSoz and STW (numeric
concept IRIs, German and English labels with umlauts and sharp s, a
broader/narrower hierarchy, alt labels, SKOS-XL labels, a few seeded
validator defects), a legacy crosswalk between them that uses every
relation and every failure class, the mapping file that converting that
crosswalk must give, and a store manifest.

The oracle is the generator's own model. It keeps its own triple lists and
predicts what the program must answer: mapping triples and diagnostics of
`convert`, the diagnostics of `validate`, pattern matches over the merged
store, and the description a data view of one concept must hold. It imports
nothing from skoshub, so a fault in the program cannot hide in the checks.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
SKOS = "http://www.w3.org/2004/02/skos/core#"
SKOSXL = "http://www.w3.org/2008/05/skos-xl#"
DCT = "http://purl.org/dc/terms/"
EXT = "http://example.org/skos-ext#"

TYPE = RDF + "type"
CONCEPT = SKOS + "Concept"
SCHEME = SKOS + "ConceptScheme"
IN_SCHEME = SKOS + "inScheme"
TOP_CONCEPT_OF = SKOS + "topConceptOf"
PREF = SKOS + "prefLabel"
ALT = SKOS + "altLabel"
BROADER = SKOS + "broader"
NARROWER = SKOS + "narrower"
RELATED = SKOS + "related"
EXACT = SKOS + "exactMatch"
CLOSE = SKOS + "closeMatch"
BROAD_MATCH = SKOS + "broadMatch"
NARROW_MATCH = SKOS + "narrowMatch"
RELATED_MATCH = SKOS + "relatedMatch"
MAPPING_PROPERTIES = (EXACT, CLOSE, BROAD_MATCH, NARROW_MATCH, RELATED_MATCH)
XL_PREF = SKOSXL + "prefLabel"
XL_ALT = SKOSXL + "altLabel"
XL_LABEL = SKOSXL + "Label"
XL_FORM = SKOSXL + "literalForm"
TITLE = DCT + "title"
COMBINES = EXT + "matchesCombination"
MEMBER = EXT + "member"
COMBINATION = EXT + "ConceptCombination"
COMBINATION_BASE = "http://example.org/skos-ext/combination/"

RELATION_PROPERTY = {"=": EXACT, "<": BROAD_MATCH, ">": NARROW_MATCH, "^": RELATED_MATCH}
INVERSE = {EXACT: EXACT, BROAD_MATCH: NARROW_MATCH, NARROW_MATCH: BROAD_MATCH, RELATED_MATCH: RELATED_MATCH}

# Label vocabulary: compound noun = first part + second part, optionally
# qualified by a region, in German and English. 30 x 30 x 13 unique labels.
FIRST = [
    ("Arbeits", "labour"), ("Bildungs", "education"), ("Familien", "family"),
    ("Gesundheits", "health"), ("Jugend", "youth"), ("Wirtschafts", "economic"),
    ("Umwelt", "environmental"), ("Verkehrs", "transport"), ("Wohnungs", "housing"),
    ("Energie", "energy"), ("Gemeinde", "municipal"), ("Kultur", "cultural"),
    ("Sozial", "welfare"), ("Steuer", "tax"), ("Straßen", "road"),
    ("Größen", "scale"), ("Außen", "foreign"), ("Müll", "waste"),
    ("Rüstungs", "arms"), ("Städte", "urban"), ("Bevölkerungs", "population"),
    ("Einkommens", "income"), ("Unternehmens", "business"), ("Handels", "trade"),
    ("Finanz", "finance"), ("Agrar", "agricultural"), ("Medien", "media"),
    ("Hochschul", "university"), ("Bürger", "citizen"), ("Flüchtlings", "refugee"),
]
SECOND = [
    ("politik", "policy"), ("markt", "market"), ("forschung", "research"),
    ("recht", "law"), ("förderung", "promotion"), ("maßnahme", "measure"),
    ("prüfung", "audit"), ("bewegung", "movement"), ("planung", "planning"),
    ("verwaltung", "administration"), ("statistik", "statistics"),
    ("versicherung", "insurance"), ("beratung", "counselling"),
    ("entwicklung", "development"), ("struktur", "structure"), ("gesetz", "act"),
    ("reform", "reform"), ("ausgaben", "expenditure"), ("geschäft", "business"),
    ("kosten", "costs"), ("verhältnisse", "conditions"), ("größe", "size"),
    ("schutz", "protection"), ("dienst", "service"), ("bericht", "report"),
    ("theorie", "theory"), ("soziologie", "sociology"), ("ökonomie", "economics"),
    ("verbände", "associations"), ("zuschüsse", "subsidies"),
]
QUALIFIER = [
    ("", ""), ("Ostdeutschland", "East Germany"), ("Westdeutschland", "West Germany"),
    ("Österreich", "Austria"), ("Schweiz", "Switzerland"), ("Europa", "Europe"),
    ("Bayern", "Bavaria"), ("Thüringen", "Thuringia"), ("Sachsen", "Saxony"),
    ("Köln", "Cologne"), ("München", "Munich"), ("Lübeck", "Luebeck"),
    ("Düsseldorf", "Dusseldorf"),
]

DEFAULT_CONCEPTS = 2000
RESULT_LIMIT = 500
MAX_CHILDREN = 8
ROOTS = 12


def label_pool():
    pool = []
    for q_de, q_en in QUALIFIER:
        for f_de, f_en in FIRST:
            for s_de, s_en in SECOND:
                de = f_de + s_de
                en = "%s %s" % (f_en, s_en)
                if q_de:
                    de, en = "%s (%s)" % (de, q_de), "%s (%s)" % (en, q_en)
                pool.append((de, en))
    return pool


# --- terms and N-Triples ---------------------------------------------------
# A term is ("I", iri) or ("L", lexical, lang); a triple is (s, p, o) with
# s and p IRI strings. Canonical order follows the README: IRIs before
# literals, raw UTF-8 byte comparison.


def iri(v):
    return ("I", v)


def lit(lexical, lang):
    return ("L", lexical, lang)


def term_key(t):
    if t[0] == "I":
        return (0, t[1].encode("utf-8"))
    return (2, t[1].encode("utf-8"), t[2].encode("utf-8"), b"")


def triple_key(t):
    return ((0, t[0].encode("utf-8")), (0, t[1].encode("utf-8")), term_key(t[2]))


_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def format_term(t):
    if t[0] == "I":
        return "<%s>" % t[1]
    lex = "".join(_ESCAPES.get(c, c) if ord(c) >= 0x20 or c in _ESCAPES else "\\u%04X" % ord(c) for c in t[1])
    return '"%s"@%s' % (lex, t[2])


def format_triple(t):
    return "<%s> <%s> %s ." % (t[0], t[1], format_term(t[2]))


def ntriples(triples):
    return "".join(format_triple(t) + "\n" for t in sorted(set(triples), key=triple_key))


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def combination_node(source, members):
    key = "\n".join(sorted(members) + [source])
    return COMBINATION_BASE + "%016x" % fnv1a64(key.encode("utf-8"))


# --- model -----------------------------------------------------------------


class Thesaurus:
    """One generated thesaurus: its triples plus the views the oracle needs."""

    def __init__(self, id, title, base, scheme, concept_iris):
        self.id = id
        self.title = title
        self.base = base
        self.scheme = scheme
        self.concepts = concept_iris
        self.pref = {}        # concept -> {lang: [lexical, ...]}
        self.alt = {}         # concept -> [lexical] (plain and XL, de)
        self.broader = {}     # concept -> parent
        self.narrower = {}    # concept -> [children]
        self.related = {}     # concept -> [concepts]
        self.triples = []
        self.triple_set = set()
        self.members = set()  # concepts with scheme membership
        self.xl = []          # concepts with SKOS-XL labels
        self.xl_missing = None  # the XL label resource seeded without literalForm
        self.spare_labels = iter(())  # unused (de, en) labels, for alt labels and defects

    def add(self, s, p, o):
        self.triples.append((s, p, o))

    def label(self, concept, lang):
        """The prefLabel a view picks for lang: the smallest in canonical order."""
        lexicals = self.pref.get(concept, {}).get(lang)
        return min(lexicals, key=lambda s: s.encode("utf-8")) if lexicals else None


class Model:
    def __init__(self, seed, concepts=DEFAULT_CONCEPTS):
        self.seed = seed
        self.size = concepts
        rng = random.Random(seed)
        self.thesoz = self._thesaurus(
            rng, "thesoz", "Thesaurus Sozialwissenschaften", "http://lod.gesis.org/thesoz/",
            "http://lod.gesis.org/thesoz/thesoz", self._thesoz_iris(rng, concepts),
        )
        self.stw = self._thesaurus(
            rng, "stw", "Standard-Thesaurus Wirtschaft", "http://zbw.eu/stw/",
            "http://zbw.eu/stw/scheme", self._stw_iris(rng, concepts),
        )
        self.thesauri = (self.thesoz, self.stw)
        self._seed_defects(rng)
        self._crosswalk(rng)
        self._index()

    @classmethod
    def of(cls, thesoz, stw, mappings, combos):
        """A model over given thesauri and mapping triples, for checking the oracle by hand."""
        m = cls.__new__(cls)
        m.thesoz, m.stw, m.thesauri = thesoz, stw, (thesoz, stw)
        m.mappings, m.combos = mappings, combos
        m._index()
        return m

    # --- thesauri --------------------------------------------------------------

    @staticmethod
    def _thesoz_iris(rng, n):
        ids = sorted(rng.sample(range(10030000, 10070000), n))
        return ["http://lod.gesis.org/thesoz/concept/%d" % i for i in ids]

    @staticmethod
    def _stw_iris(rng, n):
        ids = sorted(rng.sample(range(10000, 30000), n))
        # STW descriptor numbers carry a check digit after the dash
        return ["http://zbw.eu/stw/descriptor/%d-%d" % (i, sum(map(int, str(i))) % 10) for i in ids]

    def _thesaurus(self, rng, id, title, base, scheme, concepts):
        th = Thesaurus(id, title, base, scheme, concepts)
        pool = label_pool()
        rng.shuffle(pool)
        th.spare_labels = spare = iter(pool[len(concepts):])
        th.add(scheme, TYPE, iri(SCHEME))
        th.add(scheme, TITLE, lit(title, "de"))
        parents = []  # concepts that may still take children, topmost first
        children = {}
        for i, c in enumerate(concepts):
            de, en = pool[i]
            th.pref[c] = {"de": [de], "en": [en]}
            th.add(c, TYPE, iri(CONCEPT))
            th.add(c, IN_SCHEME, iri(scheme))
            th.members.add(c)
            th.add(c, PREF, lit(de, "de"))
            th.add(c, PREF, lit(en, "en"))
            if i < ROOTS:
                th.add(c, TOP_CONCEPT_OF, iri(scheme))
            else:
                # skewed toward the top of the hierarchy, where pages are largest
                parent = parents[int(len(parents) * rng.random() ** 2)]
                th.broader[c] = parent
                th.narrower.setdefault(parent, []).append(c)
                th.add(c, BROADER, iri(parent))
                th.add(parent, NARROWER, iri(c))
                children[parent] = children.get(parent, 0) + 1
                if children[parent] == MAX_CHILDREN:
                    parents.remove(parent)
            parents.append(c)
            if rng.random() < 0.4:
                alt = next(spare)[0]
                th.alt.setdefault(c, []).append(alt)
                th.add(c, ALT, lit(alt, "de"))
        for c in concepts:
            if rng.random() < 0.15:
                other = concepts[rng.randrange(len(concepts))]
                if other != c and other not in th.related.get(c, ()):
                    th.related.setdefault(c, []).append(other)
                    th.related.setdefault(other, []).append(c)
                    th.add(c, RELATED, iri(other))
                    th.add(other, RELATED, iri(c))
        for c in concepts:
            if rng.random() < 0.1:
                self._add_xl(th, c, next(spare)[0])
        return th

    @staticmethod
    def _add_xl(th, c, alt_form):
        """SKOS-XL pref and alt label resources, as TheSoz publishes them."""
        local = c.rsplit("/", 1)[1]
        for kind, prop, form in (("pref", XL_PREF, th.label(c, "de")), ("alt", XL_ALT, alt_form)):
            node = "%slabel/%s-%s" % (th.base, local, kind)
            th.add(c, prop, iri(node))
            th.add(node, TYPE, iri(XL_LABEL))
            th.add(node, XL_FORM, lit(form, "de"))
        th.alt.setdefault(c, []).append(alt_form)
        th.xl.append(c)

    def _seed_defects(self, rng):
        """A few validator defects per thesaurus; validate must report exactly these."""
        self.expected_validate = []
        self.defective = set()
        for th in self.thesauri:
            plain = [c for c in th.concepts[ROOTS:] if c not in th.xl and c not in th.alt]
            dup, clash, orphan, xl_bad = rng.sample(plain, 4)
            second = next(th.spare_labels)[0]
            th.pref[dup]["de"].append(second)
            th.add(dup, PREF, lit(second, "de"))
            self.expected_validate.append(("DUPLICATE_PREFLABEL", dup))
            same = th.label(clash, "de")
            th.alt.setdefault(clash, []).append(same)
            th.add(clash, ALT, lit(same, "de"))
            self.expected_validate.append(("LABEL_CLASH", clash))
            th.triples.remove((orphan, IN_SCHEME, iri(th.scheme)))
            th.members.discard(orphan)
            self.expected_validate.append(("ORPHAN_CONCEPT", orphan))
            node = "%slabel/%s-alt" % (th.base, xl_bad.rsplit("/", 1)[1])
            th.add(xl_bad, XL_ALT, iri(node))
            th.add(node, TYPE, iri(XL_LABEL))
            self.expected_validate.append(("XL_NO_LITERAL_FORM", node))
            th.xl_missing = node
            self.defective |= {dup, clash, orphan, xl_bad}
        # a legacy cross-link into a scheme resource, and a mapping inside one scheme
        a = rng.choice([c for c in self.thesoz.concepts if c not in self.defective])
        self.thesoz.add(a, CLOSE, iri(self.stw.scheme))
        self.expected_validate.append(("MAPPING_NON_CONCEPT", a))
        b, c = rng.sample([c for c in self.stw.concepts if c not in self.defective], 2)
        self.stw.add(b, RELATED_MATCH, iri(c))
        self.expected_validate.append(("MAPPING_SAME_SCHEME", b))
        # homonyms: two STW concepts share one German prefLabel
        self.homonyms = []
        for _ in range(3):
            x, y = rng.sample([c for c in self.stw.concepts if c not in self.defective and c not in self.stw.xl], 2)
            old = self.stw.pref[y]["de"][0]
            self.stw.pref[y]["de"] = [self.stw.label(x, "de")]
            self.stw.triples.remove((y, PREF, lit(old, "de")))
            self.stw.add(y, PREF, lit(self.stw.label(x, "de"), "de"))
            self.defective |= {x, y}
            self.homonyms.append(self.stw.label(x, "de"))

    # --- crosswalk -------------------------------------------------------------

    def _crosswalk(self, rng):
        """Crosswalk lines, the mapping triples they convert to, and per-line codes."""
        clean_src = [c for c in self.thesoz.concepts if c in self.thesoz.members and c not in self.defective]
        clean_tgt = [c for c in self.stw.concepts if c in self.stw.members and c not in self.defective]
        lines = ["#xwalk source=thesoz target=stw source-lang=de target-lang=de"]
        self.expected_codes = {}   # crosswalk line number -> sorted codes
        edges = []                 # (source, property, target)
        combos = []                # (source, (member, member))
        seen = set()
        n_entries = len(clean_src) * 3 // 4
        kinds = ["="] * 50 + ["<"] * 12 + [">"] * 12 + ["^"] * 10 + ["combo"] * 5 + \
            ["nonpref"] * 4 + ["ambiguous"] * 3 + ["unresolved"] * 3 + ["orphan"] + ["comment"]
        nonpref_src = sorted(set(self.thesoz.alt) & set(clean_src))
        orphans = [o for code, o in self.expected_validate if code == "ORPHAN_CONCEPT"]
        for _ in range(n_entries):
            kind = rng.choice(kinds)
            src = rng.choice(clean_src)
            src_label = self.thesoz.label(src, "de")
            lineno = len(lines) + 1
            if kind == "comment":
                lines.append("# geprüft %d" % rng.randrange(2000, 2011))
                continue
            if kind == "combo":
                m1, m2 = rng.sample(clean_tgt, 2)
                if (src, m1, m2) in seen:
                    continue
                seen.add((src, m1, m2))
                lines.append("%s\t=\t%s\t%s" % (src_label, self.stw.label(m1, "de"), self.stw.label(m2, "de")))
                combos.append((src, (m1, m2)))
                self.expected_codes[lineno] = ["XWALK_NO_INVERSE", "XWALK_OK"]
                continue
            if kind in ("=", "<", ">", "^"):
                tgt = rng.choice(clean_tgt)
                if (src, tgt) in seen:
                    continue
                seen.add((src, tgt))
                lines.append("%s\t%s\t%s" % (src_label, kind, self.stw.label(tgt, "de")))
                edges.append((src, RELATION_PROPERTY[kind], tgt))
                self.expected_codes[lineno] = ["XWALK_OK"]
                continue
            tgt_label = self.stw.label(rng.choice(clean_tgt), "de")
            if kind == "nonpref":
                src_label = rng.choice(self.thesoz.alt[rng.choice(nonpref_src)])
                code = "XWALK_NONPREFERRED"
            elif kind == "ambiguous":
                tgt_label = rng.choice(self.homonyms)
                code = "XWALK_AMBIGUOUS"
            elif kind == "orphan":
                # an orphan is in no scheme, so its label resolves nowhere
                tgt_label = self.stw.label(rng.choice([o for o in orphans if o in self.stw.pref]), "de")
                code = "XWALK_UNRESOLVED"
            else:
                tgt_label = "%s (%s)" % (tgt_label, rng.choice(["alt", "veraltet", "1990"]))
                code = "XWALK_UNRESOLVED"
            lines.append("%s\t%s\t%s" % (src_label, rng.choice("=<>^"), tgt_label))
            self.expected_codes[lineno] = [code]
        self.crosswalk = "\n".join(lines) + "\n"
        self.mappings = []
        for s, p, o in edges:
            self.mappings += [(s, p, iri(o)), (o, INVERSE[p], iri(s))]
        for src, members in combos:
            node = combination_node(src, members)
            self.mappings += [
                (src, COMBINES, iri(node)),
                (node, TYPE, iri(COMBINATION)),
                (node, MEMBER, iri(members[0])),
                (node, MEMBER, iri(members[1])),
            ]
        self.combos = combos

    # --- oracle ----------------------------------------------------------------

    def _index(self):
        for th in self.thesauri:
            th.triple_set = set(th.triples)
        self.merged = sorted(set(self.thesoz.triples + self.stw.triples + self.mappings), key=triple_key)
        self.mapping_set = set(self.mappings)
        self.by_s, self.by_o = {}, {}
        for t in self.merged:
            self.by_s.setdefault(t[0], []).append(t)
            if t[2][0] == "I":
                self.by_o.setdefault(t[2][1], []).append(t)

    def owner_of(self, v):
        for th in self.thesauri:
            if v.startswith(th.base):
                return th
        return None

    def match(self, s=None, p=None, o=None, graph=None):
        """Triples of the merged store (or one thesaurus) matching a pattern, canonically ordered."""
        if s is not None:
            pool = self.by_s.get(s, [])
        elif o is not None and o[0] == "I":
            pool = self.by_o.get(o[1], [])
        else:
            pool = self.merged
        return [
            t for t in pool
            if (s is None or t[0] == s) and (p is None or t[1] == p) and (o is None or t[2] == o)
            and (graph is None or t in graph.triple_set)
        ]

    def concept_label(self, v, lang_pref):
        """prefLabel term a store view shows for v: first preferred language, else any."""
        th = self.owner_of(v)
        if th is None or v not in th.pref:
            return None
        for lang in list(lang_pref) + sorted(th.pref[v]):
            if th.label(v, lang):
                return lit(th.label(v, lang), lang)

    def _mapping_triples(self, c):
        """Mapping-property triples of the mapping graph with c as subject or object."""
        for t in self.by_s.get(c, []) + self.by_o.get(c, []):
            if t[1] in MAPPING_PROPERTIES and t in self.mapping_set:
                yield t

    def mapping_partners(self, c):
        """Concepts a page links to from its Mappings section."""
        partners = set()
        for s, p, o in self._mapping_triples(c):
            partners.add(o[1] if s == c else s)
        for src, members in self.combos:
            if src == c:
                partners |= set(members)
            elif c in members:
                partners.add(src)
        return partners

    def description(self, c):
        """Triples the data view of concept c must hold (N-Triples lines)."""
        out = list(self.by_s.get(c, []))
        neighbours = {t[2][1] for t in out if t[2][0] == "I"}
        for s, p, o in self._mapping_triples(c):
            if s != c:
                out.append((s, p, o))
                neighbours.add(s)
        for src, members in self.combos:
            if c == src:
                neighbours |= set(members)
            elif c in members:
                neighbours |= {src, *members}
        for n in neighbours:
            label = self.concept_label(n, ())
            if label is not None:
                out.append((n, PREF, label))
        return {format_triple(t) for t in out}

    def page_links(self, c):
        th = self.owner_of(c)
        return {
            "broader": [th.broader[c]] if c in th.broader else [],
            "narrower": list(th.narrower.get(c, ())),
            "mapping": sorted(self.mapping_partners(c)),
        }

    # --- files -----------------------------------------------------------------

    def write(self, directory):
        """Write the program's inputs; returns the manifest path."""
        d = Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        (d / "thesoz.nt").write_text(ntriples(self.thesoz.triples), encoding="utf-8")
        (d / "stw.nt").write_text(ntriples(self.stw.triples), encoding="utf-8")
        (d / "mappings.nt").write_text(ntriples(self.mappings), encoding="utf-8")
        (d / "thesoz-stw.xwalk").write_text(self.crosswalk, encoding="utf-8")
        manifest = d / "manifest.json"
        manifest.write_text(json.dumps(self.manifest("mappings.nt"), indent=2, ensure_ascii=False), encoding="utf-8")
        return manifest

    def manifest(self, mappings_file, thesaurus_dir=""):
        return {
            "ext_namespace": EXT,
            "thesauri": [
                {"id": th.id, "title": th.title, "base_iri": th.base, "file": thesaurus_dir + th.id + ".nt",
                 "prefixes": {th.id: th.base}}
                for th in self.thesauri
            ],
            "mappings": [{"id": "thesoz-stw", "file": mappings_file}],
            "service": {"listen": "127.0.0.1:0", "result_limit": RESULT_LIMIT, "default_lang": "de"},
        }
