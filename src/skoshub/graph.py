"""In-memory triple container with set semantics.

Construction is single-writer; freeze() seals the graph for shared
read-only use. All lookups return triples in canonical order, read from
one view: the triples, plus a dict per position from term to the triples
holding it there. An insert drops the view and `memo` (the index that
`skosmodel.skos_index` keeps). freeze() sorts once and builds the view in
canonical order, so a sealed graph (`serve` seals each one before it
listens) answers without sorting; one still being built sorts each answer.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from .terms import Iri, Term, Triple


class SealedGraphError(RuntimeError):
    """Raised on attempted mutation of a frozen graph."""


class Graph:
    def __init__(self, triples: Iterable[Triple] = ()):
        self._triples: set[Triple] = set(triples)  # a set's copy reuses its stored hashes
        self._view = None  # (triples, by subject, by predicate, by object)
        self._frozen = False
        self.memo = None  # derived view owned by skosmodel.skos_index

    def insert(self, t: Triple) -> bool:
        """Add a triple; return True iff it was not already present."""
        if self._frozen:
            raise SealedGraphError("graph is sealed")
        n = len(self._triples)
        self._triples.add(t)
        if len(self._triples) == n:
            return False
        self._view = self.memo = None
        return True

    def update(self, triples: Iterable[Triple]) -> int:
        return sum(1 for t in triples if self.insert(t))

    def freeze(self):
        if not self._frozen:
            self._frozen, self._view = True, None
            self._index()
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    def _index(self):
        if self._view is None:
            order = sorted(self._triples, key=Triple.sort_key) if self._frozen else list(self._triples)
            by_s, by_p, by_o = {}, {}, {}
            for t in order:
                by_s.setdefault(t.subject, []).append(t)
                by_p.setdefault(t.predicate, []).append(t)
                by_o.setdefault(t.object, []).append(t)
            self._view = (order, by_s, by_p, by_o)
        return self._view

    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, t: Triple) -> bool:
        return t in self._triples

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._view[0] if self._frozen else sorted(self._triples, key=Triple.sort_key))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._triples == other._triples

    def __hash__(self):
        raise TypeError("graphs are unhashable")

    def match(
        self,
        s: Optional[Term] = None,
        p: Optional[Iri] = None,
        o: Optional[Term] = None,
    ) -> list[Triple]:
        """All triples matching the bound positions, canonically ordered; read-only."""
        order, by_s, by_p, by_o = self._index()
        bound = [by.get(term, []) for by, term in ((by_s, s), (by_p, p), (by_o, o)) if term is not None]
        found = min(bound, key=len) if bound else order
        if len(bound) > 1:  # the subject last: its list is the one most often chosen
            found = [t for t in found if (p is None or t.predicate == p) and (o is None or t.object == o)
                     and (s is None or t.subject == s)]
        return found if self._frozen else sorted(found, key=Triple.sort_key)

    def copy(self) -> "Graph":
        return Graph(self._triples)

    def union(self, *others: "Graph") -> "Graph":
        g = self.copy()
        for other in others:
            g.update(other._triples)
        return g
