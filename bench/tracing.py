"""Traced run: per-layer metrics from spans recorded around skoshub's public functions.

The wrappers live here, in the benchmark, and are installed on the imported
modules for the traced phase only; the program's sources are not changed.
Coarse functions get spans (name, start, end, parent, request id); hot ones
(`sort_key`, `Graph.match`, `Graph.insert`, `format_triple`) get counters
only. A span opened with no span around it starts a new request id.

The same operations are replayed three times: over HTTP or as child
processes (what a user sees), in process without wrappers (layer times),
and in process with wrappers (spans and counts). The difference between the
last two is the tracing overhead. Spans are kept in memory and written to
`spans.jsonl` in the run's work directory when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import io
import json
import os
import random
import re
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import publish
import service

HTTP_SHARE = 3  # the HTTP phase of a service workload gets seconds / HTTP_SHARE
SERVICE_KINDS = ("resource", "page", "data", "query_merged", "query_scoped")
CLI_STEPS = ("convert", "merge", "validate", "query")
STARTUP_LAUNCHES = 5  # `skoshub --help` processes timed for cli.startup_s

# (module, attribute, span name); attribute "Class.method" patches the class
SPANS = [
    ("ntriples", "parse_ntriples", "ntriples.parse"),
    ("ntriples", "serialize_ntriples", "ntriples.serialize"),
    ("turtle", "serialize_turtle", "turtle.serialize"),
    ("skosmodel", "extract_concept", "skosmodel.extract_concept"),
    ("skosmodel", "resolve_xl_labels", "skosmodel.resolve_xl_labels"),
    ("skosmodel", "validate_skos", "skosmodel.validate_skos"),
    ("crosswalk", "build_scheme_view", "crosswalk.build_scheme_view"),
    ("crosswalk", "convert_crosswalk", "crosswalk.convert_crosswalk"),
    ("multistore", "load_manifest", "multistore.load_manifest"),
    ("multistore", "MultiStore.export_merged", "multistore.export_merged"),
    ("multistore", "MultiStore.mappings_for", "multistore.mappings_for"),
    ("multistore", "MultiStore.label_of", "multistore.label_of"),
    ("ldservice", "LinkedDataApp.handle", "ldservice.handle"),
    ("cli", "main", "cli.main"),
]
COUNTERS = [
    ("terms", "Iri.sort_key", "terms.sort_key"),
    ("terms", "BlankNode.sort_key", "terms.sort_key"),
    ("terms", "Literal.sort_key", "terms.sort_key"),
    ("terms", "Triple.sort_key", "terms.sort_key"),
    ("graph", "Graph.match", "graph.match"),
    ("graph", "Graph.insert", "graph.insert"),
    ("ntriples", "format_triple", "ntriples.format_triple"),
]


def import_program(src: Path):
    """Import skoshub from the checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module("skoshub." + name)
            for name in ("terms", "graph", "ntriples", "turtle", "skosmodel", "crosswalk", "multistore", "ldservice", "cli")}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit("error: skoshub imported from %s, not %s" % (mods["cli"].__file__, src))
    return mods


class Tracer:
    """Spans and counters for one traced phase."""

    def __init__(self, mods):
        self.mods = mods
        self.spans = []   # [id, parent, request, name, start, end]
        self.stack = []
        self.counts = Counter()
        self.requests = 0
        self._undo = []

    def _span(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.stack:
                tracer.requests += 1
            span = [len(tracer.spans), tracer.stack[-1][0] if tracer.stack else None,
                    tracer.requests, name, time.perf_counter(), None]
            tracer.spans.append(span)
            tracer.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                tracer.stack.pop()
            if name == "ntriples.parse":
                tracer.counts["ntriples.parse.triples"] += len(result[0])
            return result
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        if name == "graph.match":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts[name] += 1
                counts["graph.match.returned"] += len(result)
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        return wrapper

    def _patch(self, module, attr, wrapper):
        mod = self.mods[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, wrapper(orig))
            self._undo.append((cls, meth, orig))
            return
        orig = getattr(mod, attr)
        wrapped = wrapper(orig)
        # `from .ntriples import parse_ntriples` binds the function in other modules too
        for other in self.mods.values():
            if other.__dict__.get(attr) is orig:
                setattr(other, attr, wrapped)
                self._undo.append((other, attr, orig))

    def __enter__(self):
        for module, attr, name in SPANS:
            self._patch(module, attr, functools.partial(self._span, name))
        for module, attr, name in COUNTERS:
            self._patch(module, attr, functools.partial(self._counter, name))
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def total(self, name):
        return sum((s[5] - s[4] for s in self.spans if s[3] == name), 0.0)

    def calls(self, name):
        return sum(1 for s in self.spans if s[3] == name)

    def dump(self, f, phase):
        for id, parent, request, name, start, end in self.spans:
            f.write(json.dumps({"phase": phase, "id": id, "parent": parent, "request": request,
                                "name": name, "start": start, "end": end}) + "\n")
        f.write(json.dumps({"phase": phase, "counts": dict(self.counts)}) + "\n")


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def kb_per_triple(load, triples):
    """Peak traced Python memory of one call of `load`, in KB per triple of
    what it returns, as counted by `triples(result)`."""
    tracemalloc.start()
    try:
        result = load()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1024.0 / triples(result)


def load_kb_per_triple(mods, manifest):
    """kb_per_triple of one manifest load, over the triples of every graph in the store."""
    return kb_per_triple(
        lambda: mods["multistore"].load_manifest(manifest)[0],
        lambda store: sum(len(r.graph) for r in store.registrations) + sum(len(g) for _, g in store.mapping_graphs))


def layer_metrics(load, replay, ops, kb):
    """Per-layer metrics shared by every workload; `ops` is the number of operations replayed."""
    both = load.counts + replay.counts
    parse_s = load.total("ntriples.parse") + replay.total("ntriples.parse")
    parsed = both["ntriples.parse.triples"]
    loads = load.calls("multistore.load_manifest") + replay.calls("multistore.load_manifest")
    exports = replay.calls("multistore.export_merged")
    return {
        "ntriples.parse.s": (parse_s, "s"),
        "ntriples.parse.us_per_triple": (parse_s / parsed * 1e6 if parsed else 0.0, "us"),
        "ntriples.serialize.s": (replay.total("ntriples.serialize"), "s"),
        "ntriples.format_triple.calls_per_req": (replay.counts["ntriples.format_triple"] / ops, "count"),
        "terms.sort_key.calls_per_req": (replay.counts["terms.sort_key"] / ops, "count"),
        "terms.sort_key.calls": (both["terms.sort_key"], "count"),
        "graph.match.calls_per_req": (replay.counts["graph.match"] / ops, "count"),
        "graph.match.returned_per_req": (replay.counts["graph.match.returned"] / ops, "count"),
        "graph.insert.calls": (both["graph.insert"], "count"),
        "skosmodel.extract_concept.calls_per_req": (replay.calls("skosmodel.extract_concept") / ops, "count"),
        "skosmodel.extract_concept.ms_per_req": (replay.total("skosmodel.extract_concept") * 1000 / ops, "ms"),
        "skosmodel.resolve_xl_labels.s": (replay.total("skosmodel.resolve_xl_labels"), "s"),
        "skosmodel.validate_skos.s": (replay.total("skosmodel.validate_skos"), "s"),
        "crosswalk.build_scheme_view.s": (replay.total("crosswalk.build_scheme_view"), "s"),
        "crosswalk.convert_crosswalk.s": (replay.total("crosswalk.convert_crosswalk"), "s"),
        "multistore.load_manifest.s": (
            (load.total("multistore.load_manifest") + replay.total("multistore.load_manifest")) / loads if loads else 0.0, "s"),
        "multistore.load_manifest.kb_per_triple": (kb, "KB"),
        "multistore.export_merged.calls_per_req": (exports / ops, "count"),
        "multistore.export_merged.ms": (replay.total("multistore.export_merged") * 1000 / exports if exports else 0.0, "ms"),
        "multistore.mappings_for.calls_per_req": (replay.calls("multistore.mappings_for") / ops, "count"),
        "multistore.label_of.calls_per_req": (replay.calls("multistore.label_of") / ops, "count"),
        "multistore.label_of.ms_per_req": (replay.total("multistore.label_of") * 1000 / ops, "ms"),
        "turtle.serialize.ms_per_req": (replay.total("turtle.serialize") * 1000 / ops, "ms"),
    }


# --- service workloads ---------------------------------------------------------


def replay_in_process(app, requests, tracer=None):
    """Send each request through LinkedDataApp.handle; returns ([(kind, seconds)], failures)."""
    times, failures = [], []
    with tracer or contextlib.nullcontext():
        for req in requests:
            start = time.perf_counter()
            try:
                resp = app.handle("GET", req.path, req.headers)
            except Exception as e:
                elapsed = time.perf_counter() - start
                problem = "handle raised %s: %s" % (type(e).__name__, e)
            else:
                elapsed = time.perf_counter() - start
                problem = service.verdict(req.check, resp.status, {k.lower(): v for k, v in resp.headers.items()}, resp.body)
            if problem:
                failures.append("in process %s %s: %s" % (req.kind, req.path, problem))
            times.append((req.kind, elapsed))
    return times, failures


_LOGGED = re.compile(r" GET (\S+) \d+ ([0-9.]+)ms$")


def http_waits(samples, log_path):
    """Per request answered over HTTP: client latency minus the in-server time
    that `serve` logs for it. Log lines are in request order (one connection),
    so each sample is paired with the next line for its path.

    Returns ({kind: [ms]}, failures)."""
    logged = []
    with open(log_path, encoding="utf-8") as f:
        for line in f:
            m = _LOGGED.search(line.rstrip("\n"))
            if m:
                logged.append((m.group(1), float(m.group(2))))
    waits, failures, i = {}, [], 0
    for kind, elapsed, path in samples:
        while i < len(logged) and logged[i][0] != path:
            i += 1
        if i == len(logged):
            failures.append("serve.log has no line for %s %s" % (kind, path))
            break
        waits.setdefault(kind, []).append(elapsed * 1000 - logged[i][1])
        i += 1
    return waits, failures


def run_service(workload, seed, seconds, work, env, manifest, model, mods):
    plan = (service.browse_plan if workload == "browse" else service.harvest_plan)(model, seed)
    with service.Server(manifest, env, work / "serve.log") as server:
        http_samples, failures, _ = service.replay(server.port, plan, seconds / HTTP_SHARE)
    waits, log_failures = http_waits(http_samples, work / "serve.log")
    failures += log_failures
    rounds = -(-len(http_samples + failures) // len(plan[0]))
    requests = [req for i in range(rounds) for req in plan[i % len(plan)]]

    gc.collect()
    gc.freeze()
    kb = load_kb_per_triple(mods, manifest)
    load = Tracer(mods)
    with load:
        store, config, _ = mods["multistore"].load_manifest(manifest)
    app = mods["ldservice"].LinkedDataApp(store, config)
    plain, plain_failures = replay_in_process(app, requests)
    traced = Tracer(mods)
    traced_times, traced_failures = replay_in_process(app, requests, traced)
    failures += plain_failures + traced_failures

    metrics = layer_metrics(load, traced, len(requests), kb)
    for kind in SERVICE_KINDS:
        in_proc = median_or_zero([t for k, t in plain if k == kind]) * 1000
        metrics["ldservice.handle.%s_ms" % kind] = (in_proc, "ms")
        metrics["ldservice.http_wait_ms.%s" % kind] = (median_or_zero(waits.get(kind, [])), "ms")
    for name in ("startup",) + CLI_STEPS:
        metrics["cli.%s_s" % name] = (0.0, "s")
    overhead = sum(t for _, t in traced_times) / sum(t for _, t in plain) - 1
    metrics["tracing.overhead_pct"] = (overhead * 100, "%")
    with open(work / "spans.jsonl", "w") as f:
        load.dump(f, "load")
        traced.dump(f, "replay")
    return metrics, len(http_samples) + 2 * len(requests), failures


# --- publish ----------------------------------------------------------------------


def main_in_process(mods, pub, step):
    """cli.main in this process, from the step's directory; returns (seconds, problem)."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(pub.out)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = mods["cli"].main(step.argv)
            elapsed = time.perf_counter() - start
    finally:
        os.chdir(cwd)
    return elapsed, service.verdict(step.check, code, out.getvalue(), err.getvalue())


def run_publish(seed, work, env, model, mods):
    """One round of commands: as child processes, then through cli.main plain and traced."""
    pub = publish.Publisher(model, work)
    steps = pub.round(random.Random("publish-%d" % seed))
    failures, walls, plain, traced_times = [], [], [], []
    for step in steps:
        wall, _, problem = pub.run_step(step, env)
        walls.append(wall)
        if problem:
            failures.append("%s: %s" % (step.name, problem))
    # Start-up is timed on its own: a command's wall time minus its in-process
    # time mixes two phases run apart, and reads below 0 when the machine
    # slows between them.
    startup = []
    for _ in range(STARTUP_LAUNCHES):
        code, wall, _ = publish.run_child(["--help"], env, pub.out, pub.out / "help.out", pub.out / "help.err")
        startup.append(wall)
        if code != 0:
            failures.append("--help: exit %d" % code)
    gc.collect()
    gc.freeze()
    kb = load_kb_per_triple(mods, pub.out / "manifest.json")
    for step in steps:
        elapsed, problem = main_in_process(mods, pub, step)
        plain.append(elapsed)
        if problem:
            failures.append("in process %s: %s" % (step.name, problem))
    traced = Tracer(mods)
    with traced:
        for step in steps:
            elapsed, problem = main_in_process(mods, pub, step)
            traced_times.append(elapsed)
            if problem:
                failures.append("traced %s: %s" % (step.name, problem))

    metrics = layer_metrics(Tracer(mods), traced, len(steps), kb)
    for kind in SERVICE_KINDS:
        metrics["ldservice.handle.%s_ms" % kind] = (0.0, "ms")
        metrics["ldservice.http_wait_ms.%s" % kind] = (0.0, "ms")
    metrics["cli.startup_s"] = (statistics.median(startup), "s")
    for name in CLI_STEPS:
        metrics["cli.%s_s" % name] = (statistics.median(w for w, s in zip(walls, steps) if s.name == name), "s")
    metrics["tracing.overhead_pct"] = ((sum(traced_times) / sum(plain) - 1) * 100, "%")
    with open(work / "spans.jsonl", "w") as f:
        traced.dump(f, "replay")
    return metrics, 3 * len(steps) + STARTUP_LAUNCHES, failures


def run(workload, seed, seconds, work, env, manifest, model):
    mods = import_program(Path(env["PYTHONPATH"]))
    if workload == "publish":
        return run_publish(seed, work, env, model, mods)
    return run_service(workload, seed, seconds, work, env, manifest, model, mods)
