import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skoshub.graph import Graph, SealedGraphError
from skoshub.terms import BlankNode, Iri, Literal, Triple

IRIS = [Iri("http://example.org/n%d" % i) for i in range(8)]
PREDS = [Iri("http://example.org/p%d" % i) for i in range(4)]


def rand_triple(rng):
    s = rng.choice(IRIS + [BlankNode("b%d" % rng.randrange(3))])
    p = rng.choice(PREDS)
    o = rng.choice(IRIS + [Literal("v%d" % rng.randrange(5), lang=rng.choice([None, "de", "en"]))])
    return Triple(s, p, o)


def test_insert_set_semantics():
    t = Triple(IRIS[0], PREDS[0], IRIS[1])
    g = Graph()
    assert g.insert(t) is True
    assert g.insert(t) is False
    assert len(g) == 1


def test_duplicate_heavy_inserts_match_naive_dedup():
    rng = random.Random(7)
    triples = [rand_triple(rng) for _ in range(1000)]
    g = Graph()
    naive = []
    for t in triples:
        g.insert(t)
        if t not in naive:
            naive.append(t)
    assert len(g) == len(naive)
    assert set(g) == set(naive)


def test_match_equals_brute_force_scan():
    rng = random.Random(13)
    triples = {rand_triple(rng) for _ in range(600)}
    g = Graph(triples)
    for _ in range(300):
        s = rng.choice([None, rng.choice(IRIS)])
        p = rng.choice([None, rng.choice(PREDS)])
        o = rng.choice([None, rng.choice(IRIS), Literal("v1", lang="de")])
        expected = sorted(
            (
                t
                for t in triples
                if (s is None or t.subject == s)
                and (p is None or t.predicate == p)
                and (o is None or t.object == o)
            ),
            key=Triple.sort_key,
        )
        assert g.match(s=s, p=p, o=o) == expected


def test_all_unbound_returns_whole_graph_sorted():
    rng = random.Random(3)
    g = Graph(rand_triple(rng) for _ in range(50))
    out = g.match()
    assert len(out) == len(g)
    assert out == sorted(out, key=Triple.sort_key)


def test_index_coherence_every_subpattern_finds_triple():
    rng = random.Random(99)
    triples = {rand_triple(rng) for _ in range(200)}
    g = Graph(triples)
    for t in triples:
        for s in (t.subject, None):
            for p in (t.predicate, None):
                for o in (t.object, None):
                    assert t in g.match(s=s, p=p, o=o)


def test_frozen_graph_rejects_insert():
    g = Graph()
    g.insert(Triple(IRIS[0], PREDS[0], IRIS[1]))
    g.freeze()
    with pytest.raises(SealedGraphError):
        g.insert(Triple(IRIS[0], PREDS[0], IRIS[2]))


def test_equality_ignores_insertion_order():
    rng = random.Random(21)
    triples = [rand_triple(rng) for _ in range(100)]
    g1 = Graph(triples)
    shuffled = triples[:]
    rng.shuffle(shuffled)
    g2 = Graph(shuffled)
    assert g1 == g2


@given(st.lists(st.integers(0, 7), min_size=0, max_size=40))
@settings(max_examples=50)
def test_union_is_set_union(seeds):
    rng = random.Random(5)
    pool = [rand_triple(rng) for _ in range(8)]
    a = Graph(pool[i] for i in seeds[: len(seeds) // 2])
    b = Graph(pool[i] for i in seeds[len(seeds) // 2 :])
    u = a.union(b)
    assert set(u) == set(a) | set(b)


# --- the view: both paths and its invalidation --------------------------------

SUBJECTS = st.sampled_from(IRIS[:4] + [BlankNode("b0"), BlankNode("b1")])
PREDICATES = st.sampled_from(PREDS[:3])
OBJECTS = st.sampled_from(IRIS[:4] + [BlankNode("b0"), Literal("v"), Literal("v", lang="de"), Literal("w", lang="en")])
INSERT = st.tuples(st.just("insert"), st.builds(Triple, SUBJECTS, PREDICATES, OBJECTS))
MATCH = st.tuples(st.just("match"), st.none() | SUBJECTS, st.none() | PREDICATES, st.none() | OBJECTS)
# freeze is one draw in eight, so most runs read the graph while it is built
OPS = st.one_of(INSERT, INSERT, INSERT, MATCH, MATCH, MATCH, st.just(("iter",)), st.just(("freeze",)))


def brute_force(triples, s=None, p=None, o=None):
    found = [
        t for t in triples
        if (s is None or t.subject == s) and (p is None or t.predicate == p) and (o is None or t.object == o)
    ]
    return sorted(found, key=Triple.sort_key)


@given(st.lists(OPS, max_size=60))
@settings(max_examples=300, deadline=None)
def test_reads_agree_with_a_sorted_brute_force_filter(ops):
    g, model = Graph(), set()
    for op, *args in ops + [("freeze",), ("iter",)]:
        if op == "insert" and g.frozen:
            with pytest.raises(SealedGraphError):
                g.insert(args[0])
        elif op == "insert":
            assert g.insert(args[0]) is (args[0] not in model)
            model.add(args[0])
        elif op == "freeze":
            assert g.freeze() is g
        elif op == "iter":
            assert list(g) == brute_force(model)
        else:
            assert g.match(*args) == brute_force(model, *args)
        assert len(g) == len(model)


def count_sort_keys(monkeypatch):
    calls = []
    for cls in (Iri, BlankNode, Literal, Triple):
        sort_key = cls.sort_key
        monkeypatch.setattr(cls, "sort_key", lambda t, sort_key=sort_key: calls.append(t) or sort_key(t))
    return calls


def test_a_graph_is_sorted_once_at_freeze_and_never_again(monkeypatch):
    rng = random.Random(11)
    g = Graph(rand_triple(rng) for _ in range(300))
    g.match(s=IRIS[0])  # a view built before the seal is rebuilt in canonical order
    calls = count_sort_keys(monkeypatch)
    g.freeze()
    assert sum(isinstance(t, Triple) for t in calls) == len(g)
    del calls[:]
    g.freeze()
    patterns = [(s, p, o) for s in (None, IRIS[0]) for p in (None, PREDS[0]) for o in (None, IRIS[1])]
    results = [g.match(*pattern) for pattern in patterns]
    assert list(g) == results[0]
    assert calls == []
    assert all(r == sorted(r, key=Triple.sort_key) for r in results)
