"""Indexed in-memory triple container with set semantics.

Construction is single-writer; freeze() seals the graph for shared
read-only use. All lookups return triples in canonical order.

SKOS views (concept to schemes, the typed concept set) read one derived
index per graph, built by `skosmodel.skos_index` on first use and kept in
`memo`. Every insert drops it, so an unsealed graph never serves a stale
view; a sealed graph keeps it for good.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator, Optional

from .terms import Iri, Term, Triple


class SealedGraphError(RuntimeError):
    """Raised on attempted mutation of a frozen graph."""


class Graph:
    def __init__(self, triples: Iterable[Triple] = ()):
        self._triples: set[Triple] = set()
        self._by_s: dict = defaultdict(set)
        self._by_p: dict = defaultdict(set)
        self._by_o: dict = defaultdict(set)
        self._frozen = False
        self.memo = None  # derived view owned by skosmodel.skos_index
        for t in triples:
            self.insert(t)

    def insert(self, t: Triple) -> bool:
        """Add a triple; return True iff it was not already present."""
        if self._frozen:
            raise SealedGraphError("graph is sealed")
        if t in self._triples:
            return False
        self._triples.add(t)
        self._by_s[t.subject].add(t)
        self._by_p[t.predicate].add(t)
        self._by_o[t.object].add(t)
        self.memo = None
        return True

    def update(self, triples: Iterable[Triple]) -> int:
        return sum(1 for t in triples if self.insert(t))

    def freeze(self):
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, t: Triple) -> bool:
        return t in self._triples

    def __iter__(self) -> Iterator[Triple]:
        return iter(sorted(self._triples, key=Triple.sort_key))

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
        """All triples matching the bound positions, canonically ordered."""
        candidates = None
        if s is not None:
            candidates = self._by_s.get(s, set())
        if p is not None:
            byp = self._by_p.get(p, set())
            candidates = byp if candidates is None else candidates & byp
        if o is not None:
            byo = self._by_o.get(o, set())
            candidates = byo if candidates is None else candidates & byo
        if candidates is None:
            candidates = self._triples
        # each index holds exactly the triples with that term in that
        # position, so the candidates need no second filter
        return sorted(candidates, key=Triple.sort_key)

    def copy(self) -> "Graph":
        return Graph(self._triples)

    def union(self, *others: "Graph") -> "Graph":
        g = self.copy()
        for other in others:
            g.update(other._triples)
        return g
