"""RDF term model: IRIs, literals, blank nodes, triples, prefix maps.

Each term is a tuple of its canonical sort key, and each triple the tuple
of its three terms, so hashing, equality and canonical ordering are the
tuple's own (C code, no Python call):

    Iri        (0, value as UTF-8)
    BlankNode  (1, label as UTF-8)
    Literal    (2, lexical, lang, datatype IRI), each UTF-8, "" when absent
    Triple     (subject, predicate, object)

Equality and ordering are defined on content only, so graphs built in any
insertion order serialize identically; terms of different kinds never
compare equal. The text fields (`value`, `label`, `lexical`, `lang`,
`datatype`; a triple's `subject`, `predicate`, `object`) are read-only
attributes. An IRI keeps its text beside the key, because a load builds
each IRI once and reads it often; a literal, built per occurrence and
mostly read once, decodes `lexical` and `lang` from its key on each read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Optional, Union

_LANG_RE = re.compile(r"^[a-z]{2,3}(-[a-z0-9]{1,8})*$")
_BNODE_RE = re.compile(r"^[A-Za-z0-9]+$")
# what RDF 1.1 IRIREF forbids: U+0000-U+0020, <>"{}|^` and the backslash;
# and lone surrogates, which no UTF-8 output can hold
_IRI_FORBIDDEN = re.compile(r'[\x00-\x20<>"{}|^`\\\ud800-\udfff]')
_new = tuple.__new__


class TermError(ValueError):
    """Raised when a term violates its structural invariants."""


def _read_only(term, *args):
    raise AttributeError("%s is immutable" % type(term).__name__)


class Iri(tuple):
    __setattr__ = __delattr__ = _read_only

    def __new__(cls, value: str):
        if not value:
            raise TermError("empty IRI")
        if _IRI_FORBIDDEN.search(value):
            raise TermError("IRI contains forbidden character: %r" % value)
        colon = value.find(":")
        slash = value.find("/")
        if colon < 1 or (0 <= slash < colon):
            raise TermError("IRI has no scheme component: %r" % value)
        self = _new(cls, (0, value.encode("utf-8")))
        self.__dict__["value"] = value
        return self

    def __str__(self):
        return self.value

    def __repr__(self):
        return "Iri(value=%r)" % self.value

    def sort_key(self):
        return self


class BlankNode(tuple):
    __setattr__ = __delattr__ = _read_only

    def __new__(cls, label: str):
        if not _BNODE_RE.match(label):
            raise TermError("invalid blank node label: %r" % label)
        self = _new(cls, (1, label.encode("utf-8")))
        self.__dict__["label"] = label
        return self

    def __str__(self):
        return "_:" + self.label

    def __repr__(self):
        return "BlankNode(label=%r)" % self.label

    def sort_key(self):
        return self


class Literal(tuple):
    __setattr__ = __delattr__ = _read_only
    datatype = None  # a literal with a datatype holds that Iri in its instance dict

    def __new__(cls, lexical: str, lang: Optional[str] = None, datatype: Optional[Iri] = None):
        if lang is not None and datatype is not None:
            raise TermError("literal cannot carry both lang and datatype")
        if lang is not None:
            lang = lang.lower()
            if not _LANG_RE.match(lang):
                raise TermError("invalid language tag: %r" % lang)
        try:
            lex = lexical.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate, which no UTF-8 output can hold
            raise TermError("literal contains a lone surrogate: %r" % lexical) from None
        self = _new(cls, (2, lex, lang.encode("utf-8") if lang else b"", datatype[1] if datatype else b""))
        if datatype is not None:
            self.__dict__["datatype"] = datatype
        return self

    @property
    def lexical(self) -> str:
        return self[1].decode("utf-8")

    @property
    def lang(self) -> Optional[str]:
        return self[2].decode("utf-8") or None

    def __repr__(self):
        return "Literal(lexical=%r, lang=%r, datatype=%r)" % (self.lexical, self.lang, self.datatype)

    def sort_key(self):
        return self


Term = Union[Iri, BlankNode, Literal]
Subject = Union[Iri, BlankNode]


class Triple(tuple):
    __slots__ = ()

    def __new__(cls, subject: Subject, predicate: Iri, object: Term):
        if isinstance(subject, Literal):
            raise TermError("literal in subject position")
        if not isinstance(predicate, Iri):
            raise TermError("predicate must be an IRI")
        return _new(cls, (subject, predicate, object))

    subject = property(itemgetter(0))
    predicate = property(itemgetter(1))
    object = property(itemgetter(2))

    def __repr__(self):
        return "Triple(subject=%r, predicate=%r, object=%r)" % (self.subject, self.predicate, self.object)

    def sort_key(self):
        return self


@dataclass
class PrefixMap:
    """Ordered prefix -> namespace registry; prefixes unique, namespaces free."""

    entries: list = field(default_factory=list)

    def bind(self, prefix: str, namespace: Iri):
        for p, _ in self.entries:
            if p == prefix:
                raise TermError("duplicate prefix: %r" % prefix)
        self.entries.append((prefix, namespace))

    def namespace(self, prefix: str) -> Optional[Iri]:
        for p, ns in self.entries:
            if p == prefix:
                return ns
        return None

    def compact(self, iri: Iri):
        """Return (prefix, localname) for the longest matching namespace, or None."""
        best = None
        for p, ns in self.entries:
            if iri.value.startswith(ns.value):
                if best is None or len(ns.value) > len(best[1].value):
                    best = (p, ns)
        if best is None:
            return None
        return best[0], iri.value[len(best[1].value):]

    def expand(self, curie: str) -> Optional[Iri]:
        if ":" not in curie:
            return None
        prefix, local = curie.split(":", 1)
        ns = self.namespace(prefix)
        if ns is None:
            return None
        return Iri(ns.value + local)

    def __iter__(self):
        return iter(self.entries)

