"""The two service workloads: browse and harvest against a live `skoshub serve`.

Both are closed loops on one keep-alive HTTP/1.1 connection: the client
sends its next request only when the previous answer has been read and
checked. Requests come from a fixed plan built from the generator's model,
never from earlier responses, and every answer is checked against the
oracle.
"""

from __future__ import annotations

import html
import http.client
import random
import re
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from urllib.parse import quote

import synth

PLAN_ROUNDS = 16
READY_LINE = "listening on"
SERVE_TIMEOUT_S = 60.0


# --- the server process ------------------------------------------------------


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Server:
    """`skoshub serve` as a child process; stderr goes to a file, so it never blocks."""

    def __init__(self, manifest: Path, env: dict, log_path: Path):
        self.port = free_port()
        self.log_path = log_path
        self._log = open(log_path, "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "skoshub.cli", "serve", str(manifest), "--listen", "127.0.0.1:%d" % self.port],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=self._log,
        )
        try:
            self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _wait_ready(self):
        deadline = time.perf_counter() + SERVE_TIMEOUT_S
        with open(self.log_path, "rb") as log:
            seen = b""
            while READY_LINE.encode() not in seen:
                if self.proc.poll() is not None:
                    raise RuntimeError("serve exited with %s: %s" % (self.proc.returncode, seen.decode(errors="replace")[-2000:]))
                if time.perf_counter() > deadline:
                    raise RuntimeError("serve not ready after %.0f s" % SERVE_TIMEOUT_S)
                time.sleep(0.002)
                seen += log.read()

    def peak_rss_mb(self) -> float:
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for server process")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


# --- requests and checks -------------------------------------------------------


class Request:
    """One planned request: where to send it, its kind, and how to check the answer."""

    __slots__ = ("path", "headers", "kind", "check")

    def __init__(self, path, headers, kind, check):
        self.path = path
        self.headers = headers
        self.kind = kind
        self.check = check


def local(model, c, kind):
    th = model.owner_of(c)
    return "/%s/%s/%s" % (th.id, kind, quote(c[len(th.base):], safe="/:-_.~"))


def verdict(check, *args):
    """What `check` finds wrong, or None; a check that raises on malformed
    output (say, a body that is not UTF-8) finds that output wrong too."""
    try:
        return check(*args)
    except Exception as e:
        return "unreadable output: %s: %s" % (type(e).__name__, e)


def check_resource(location):
    def check(status, headers, body):
        if status != 303:
            return "status %d, expected 303" % status
        if headers.get("location") != location:
            return "Location %r, expected %r" % (headers.get("location"), location)
        return None
    return check


def check_page(title, hrefs):
    def check(status, headers, body):
        if status != 200:
            return "status %d, expected 200" % status
        text = body.decode("utf-8")
        m = re.search(r"<title>(.*?)</title>", text)
        if m is None or m.group(1) != html.escape(title):
            return "title %r, expected %r" % (m and m.group(1), title)
        missing = [h for h in hrefs if 'href="%s"' % html.escape(h, quote=True) not in text]
        if missing:
            return "page lacks links %s" % missing[:3]
        return None
    return check


def check_ntriples(expected, limit=None):
    """Exact triple set; with limit, a truncated answer of exactly limit oracle lines."""
    def check(status, headers, body):
        if status != 200:
            return "status %d, expected 200" % status
        lines = body.decode("utf-8").splitlines()
        truncated = headers.get("x-truncated") == "true"
        if limit is not None:
            if not truncated or len(lines) != limit:
                return "expected a truncated answer of %d lines, got %d (X-Truncated %s)" % (limit, len(lines), truncated)
            stray = set(lines) - expected
            return "truncated answer has %d lines outside the oracle set" % len(stray) if stray else None
        if truncated:
            return "unexpected X-Truncated"
        got = set(lines)
        if len(got) != len(lines) or got != expected:
            return "triple set differs: %d missing, %d extra" % (len(expected - got), len(got - expected))
        return None
    return check


def check_turtle(expected):
    def check(status, headers, body):
        if status != 200:
            return "status %d, expected 200" % status
        if not headers.get("content-type", "").startswith("text/turtle"):
            return "content type %r" % headers.get("content-type")
        try:
            got = read_turtle(body.decode("utf-8"))
        except ValueError as e:
            return "unreadable Turtle: %s" % e
        if got != expected:
            return "Turtle triple set differs: %d missing, %d extra" % (len(expected - got), len(got - expected))
        return None
    return check


_TTL_TOKEN = re.compile(r'\s*(<[^>]*>|"(?:[^"\\]|\\.)*"(?:@[A-Za-z0-9-]+)?|@prefix|[A-Za-z][\w-]*:[\w.-]*(?<!\.)|\ba\b|[;,.])')


def read_turtle(text):
    """N-Triples lines of the Turtle subset the service writes (prefixes, ';' and ',')."""
    prefixes, out = {}, set()
    tokens, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TTL_TOKEN.match(text, pos)
        if m is None:
            raise ValueError("bad token at %d: %r" % (pos, text[pos:pos + 30]))
        tokens.append(m.group(1))
        pos = m.end()

    def expand(tok):
        if tok.startswith("<") or tok.startswith('"'):
            return tok
        if tok == "a":
            return "<%s>" % synth.TYPE
        prefix, _, rest = tok.partition(":")
        if prefix not in prefixes:
            raise ValueError("undeclared prefix %r" % prefix)
        return "<%s%s>" % (prefixes[prefix], rest)

    i = 0
    try:
        while i < len(tokens):
            if tokens[i] == "@prefix":
                prefixes[tokens[i + 1][:-1]] = tokens[i + 2][1:-1]
                i += 4
                continue
            subject = expand(tokens[i])
            i += 1
            while True:
                predicate = expand(tokens[i])
                i += 1
                while True:
                    out.add("%s %s %s ." % (subject, predicate, expand(tokens[i])))
                    i += 1
                    if tokens[i] != ",":
                        break
                    i += 1
                sep = tokens[i]
                i += 1
                if sep == ".":
                    break
    except IndexError:
        raise ValueError("Turtle ends inside a statement") from None
    return out


# --- plans -------------------------------------------------------------------

HTML_FOLLOWS = (1, 2, 3, 1, 2, 3)   # six page sessions per round
PILOT_ROUNDS = 32
ROUND_TOLERANCE = 0.02
DATA_ACCEPTS = ("text/turtle", "application/n-triples")  # two data sessions per round


class Oracle:
    """Per-concept expectations, cached: the plan repeats concepts."""

    def __init__(self, model):
        self.model = model
        self._desc = {}

    def description(self, c):
        if c not in self._desc:
            self._desc[c] = self.model.description(c)
        return self._desc[c]

    def page(self, c, lang):
        m = self.model
        links = m.page_links(c)
        hrefs = [local(m, x, "page") for x in links["broader"] + links["narrower"] + links["mapping"]]
        return check_page(m.concept_label(c, (lang, "de"))[1], hrefs)


def skewed_concept(rng, model, th, stratum, strata):
    """A concept of th drawn toward the top of its hierarchy, with at least three
    links to follow. Each session of a round draws from its own stratum of the
    skewed distribution, so every round mixes top and deep concepts alike."""
    while True:
        u = (stratum + rng.random()) / strata
        c = th.concepts[int(len(th.concepts) * u ** 2)]
        links = model.page_links(c)
        if len(links["broader"] + links["narrower"] + links["mapping"]) >= 3:
            return c, links


def browse_round(rng, model, oracle):
    """One round of 8 sessions, 6 reading pages (1 resource + 2..4 pages) and
    2 fetching data; returns it with the oracle size of each page or data
    answer in it."""
    rnd, sizes = [], []
    sessions = [("page", k) for k in HTML_FOLLOWS] + [("data", a) for a in DATA_ACCEPTS]
    rng.shuffle(sessions)
    strata = list(range(len(sessions)))
    rng.shuffle(strata)
    for i, (kind, arg) in enumerate(sessions):
        c, links = skewed_concept(rng, model, model.thesauri[i % 2], strata[i], len(sessions))
        if kind == "page":
            lang = rng.choice(("de", "en"))
            hdr = {"Accept": "text/html,application/xhtml+xml;q=0.9,*/*;q=0.8", "Accept-Language": lang}
            rnd.append(Request(local(model, c, "resource"), hdr, "resource", check_resource(local(model, c, "page"))))
            targets = links["broader"] + links["narrower"] + links["mapping"]
            for t in [c] + rng.sample(targets, arg):
                rnd.append(Request(local(model, t, "page"), hdr, "page", oracle.page(t, lang)))
                sizes.append(len(oracle.description(t)))
        else:
            hdr = {"Accept": arg}
            rnd.append(Request(local(model, c, "resource"), hdr, "resource", check_resource(local(model, c, "data"))))
            expected = oracle.description(c)
            check = check_turtle(expected) if arg == "text/turtle" else check_ntriples(expected)
            rnd.append(Request(local(model, c, "data"), hdr, "data", check))
            sizes.append(len(expected))
    return rnd, sizes


def browse_plan(model, seed):
    """Rounds alike in the two figures that set a run's latencies, each equal
    to its median over PILOT_ROUNDS rounds drawn first: the total size of the
    answers (within ROUND_TOLERANCE), and the size of the answer at the
    round's median request. Page cost grows with a concept's neighbourhood,
    and equal rounds keep one seed's run from being heavier than another's."""
    rng = random.Random("browse-%d" % seed)
    oracle = Oracle(model)

    def figures(rnd, sizes):
        # the fast 303s come first, so the median request is a page or data answer
        return sum(sizes), sorted(sizes)[len(rnd) // 2 - (len(rnd) - len(sizes))]

    pilot = [figures(*browse_round(rng, model, oracle)) for _ in range(PILOT_ROUNDS)]
    totals, middles = zip(*pilot)
    total, middle = statistics.median(totals), statistics.median_low(middles)
    plan = []
    while len(plan) < PLAN_ROUNDS:
        rnd, sizes = browse_round(rng, model, oracle)
        t, m = figures(rnd, sizes)
        if abs(t - total) <= ROUND_TOLERANCE * total and m == middle:
            plan.append(rnd)
    return plan


def term_param(v):
    return quote("<%s>" % v, safe="")


def harvest_plan(model, seed):
    """Rounds of 20 pattern requests: 14 to merged /query (8 with a bound subject,
    5 for the inbound mappings of a concept, 1 predicate-only and truncated) and
    6 to /{id}/query. The slow truncated class is 5% of a round, so the 90th
    percentile stays inside the bound-pattern classes."""
    rng = random.Random("harvest-%d" % seed)
    mapping_triples = [t for t in model.mappings if t[1] in synth.MAPPING_PROPERTIES]
    big_predicates = [synth.PREF, synth.TYPE, synth.IN_SCHEME, synth.BROADER]
    plan = []
    for _ in range(PLAN_ROUNDS):
        rnd = []
        for pattern in ["s"] * 8 + ["po"] * 5 + ["p"] + ["scoped"] * 6:
            kind, limit = "query_merged", None
            if pattern == "s":
                c = rng.choice(rng.choice(model.thesauri).concepts)
                path, expected = "/query?s=%s" % term_param(c), model.match(s=c)
            elif pattern == "po":
                _, p, o = rng.choice(mapping_triples)
                path = "/query?p=skos:%s&o=%s" % (p[len(synth.SKOS):], term_param(o[1]))
                expected = model.match(p=p, o=o)
            elif pattern == "p":
                p = rng.choice(big_predicates)
                path, expected, limit = "/query?p=%s" % term_param(p), model.match(p=p), synth.RESULT_LIMIT
            else:
                kind = "query_scoped"
                th = rng.choice(model.thesauri)
                c = rng.choice(th.concepts)
                if rng.random() < 0.5:
                    path, expected = "/%s/query?s=%s" % (th.id, term_param(c)), model.match(s=c, graph=th)
                else:
                    path = "/%s/query?p=skos:broader&o=%s" % (th.id, term_param(c))
                    expected = model.match(p=synth.BROADER, o=synth.iri(c), graph=th)
            rnd.append(Request(path, {}, kind, check_ntriples(set(map(synth.format_triple, expected)), limit)))
        plan.append(rnd)
    return plan


# --- the closed loop -------------------------------------------------------------


class Client:
    """One keep-alive connection; times each request from send to last body byte."""

    def __init__(self, port):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def get(self, req):
        start = time.perf_counter()
        self.conn.request("GET", req.path, headers=req.headers)
        resp = self.conn.getresponse()
        body = resp.read()
        elapsed = time.perf_counter() - start
        return resp.status, {k.lower(): v for k, v in resp.getheaders()}, body, elapsed

    def close(self):
        self.conn.close()


def replay(port, plan, seconds):
    """Replay whole rounds until `seconds` have passed; returns (samples, failures, elapsed).

    samples: (kind, seconds, path) per request answered correctly.
    """
    client = Client(port)
    samples, failures = [], []
    start = time.perf_counter()
    rounds = 0
    try:
        while not rounds or time.perf_counter() - start < seconds:
            for req in plan[rounds % len(plan)]:
                try:
                    status, headers, body, elapsed = client.get(req)
                except (OSError, http.client.HTTPException) as e:
                    problem = "%s: %s" % (type(e).__name__, e)
                    client.close()
                    client = Client(port)
                else:
                    problem = verdict(req.check, status, headers, body)
                if problem:
                    failures.append("%s %s: %s" % (req.kind, req.path, problem))
                else:
                    samples.append((req.kind, elapsed, req.path))
            rounds += 1
    finally:
        client.close()
    return samples, failures, time.perf_counter() - start
