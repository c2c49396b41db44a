"""RDF term model: IRIs, literals, blank nodes, triples, prefix maps.

Terms are immutable value objects. Equality and ordering are defined on
content only, so graphs built in any insertion order serialize identically.
Each term computes its hash and canonical sort key once, when it is built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Union

_LANG_RE = re.compile(r"^[a-z]{2,3}(-[a-z0-9]{1,8})*$")
_BNODE_RE = re.compile(r"^[A-Za-z0-9]+$")
# what RDF 1.1 IRIREF forbids: U+0000-U+0020, <>"{}|^` and the backslash;
# and lone surrogates, which no UTF-8 output can hold
_IRI_FORBIDDEN = re.compile(r'[\x00-\x20<>"{}|^`\\\ud800-\udfff]')


class TermError(ValueError):
    """Raised when a term violates its structural invariants."""


def _store_key(term, key: tuple):
    """Store a checked term's sort key, and its hash taken from that key:
    equal terms have equal keys, so equal hashes."""
    object.__setattr__(term, "_key", key)
    object.__setattr__(term, "_hash", hash(key))


@dataclass(frozen=True, order=True)
class Iri:
    value: str

    def __post_init__(self):
        v = self.value
        if not v:
            raise TermError("empty IRI")
        if _IRI_FORBIDDEN.search(v):
            raise TermError("IRI contains forbidden character: %r" % v)
        colon = v.find(":")
        slash = v.find("/")
        if colon < 1 or (0 <= slash < colon):
            raise TermError("IRI has no scheme component: %r" % v)
        _store_key(self, (0, v.encode("utf-8")))

    def __hash__(self):
        return self._hash

    def __str__(self):
        return self.value

    def sort_key(self):
        return self._key


@dataclass(frozen=True)
class BlankNode:
    label: str

    def __post_init__(self):
        if not _BNODE_RE.match(self.label):
            raise TermError("invalid blank node label: %r" % self.label)
        _store_key(self, (1, self.label.encode("utf-8")))

    def __hash__(self):
        return self._hash

    def __str__(self):
        return "_:" + self.label

    def sort_key(self):
        return self._key


@dataclass(frozen=True)
class Literal:
    lexical: str
    lang: Optional[str] = None
    datatype: Optional[Iri] = None

    def __post_init__(self):
        if self.lang is not None and self.datatype is not None:
            raise TermError("literal cannot carry both lang and datatype")
        if self.lang is not None:
            lowered = self.lang.lower()
            if lowered != self.lang:
                object.__setattr__(self, "lang", lowered)
            if not _LANG_RE.match(lowered):
                raise TermError("invalid language tag: %r" % self.lang)
        try:
            lexical = self.lexical.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate, which no UTF-8 output can hold
            raise TermError("literal contains a lone surrogate: %r" % self.lexical) from None
        _store_key(self, (
            2,
            lexical,
            (self.lang or "").encode("utf-8"),
            (self.datatype.value if self.datatype else "").encode("utf-8"),
        ))

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return self._key


Term = Union[Iri, BlankNode, Literal]
Subject = Union[Iri, BlankNode]


@dataclass(frozen=True)
class Triple:
    subject: Subject
    predicate: Iri
    object: Term

    def __post_init__(self):
        if isinstance(self.subject, Literal):
            raise TermError("literal in subject position")
        if not isinstance(self.predicate, Iri):
            raise TermError("predicate must be an IRI")

    def sort_key(self):
        return (self.subject.sort_key(), self.predicate.sort_key(), self.object.sort_key())


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

