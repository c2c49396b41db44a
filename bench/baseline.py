"""In-process stage timings at several store sizes (the ROADMAP Baseline table).

    python3 bench/baseline.py

Each of SIZES is one generated pair of thesauri (see synth.py), from SEED,
with that many concepts each. Stages run once, in this process, against the
checkout's `src/`; per-request stages report the median of REQUESTS
requests. A stage whose time, extrapolated from the previous size by its
growth so far, would exceed BUDGET_S is skipped and marked so, instead of
stalling the table. Prints a Markdown table.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import sys
import time
from pathlib import Path

import service
import synth
import tracing

SIZES = (1000, 2000, 4000)
SEED = 1
REQUESTS = 15
BUDGET_S = 60.0
ROOT = Path(__file__).resolve().parent.parent


def timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def per_request(app, paths):
    return statistics.median(timed(lambda p=p: app.handle("GET", p)) for p in paths)


def stages(mods, model, work):
    """(stage name, seconds callable) pairs for one store."""
    nt, skos, xw, ms, ld = (mods[m] for m in ("ntriples", "skosmodel", "crosswalk", "multistore", "ldservice"))
    data = (work / "thesoz.nt").read_bytes()
    thesoz, _ = nt.parse_ntriples(data)
    stw, _ = nt.parse_ntriples((work / "stw.nt").read_bytes())
    mappings, _ = nt.parse_ntriples((work / "mappings.nt").read_bytes())
    src_view = xw.build_scheme_view(skos.resolve_xl_labels(thesoz)[0])
    tgt_view = xw.build_scheme_view(skos.resolve_xl_labels(stw)[0])
    crosswalk = (work / "thesoz-stw.xwalk").read_bytes()
    with_mappings = thesoz.union(mappings)
    store, config, _ = ms.load_manifest(work / "manifest.json")
    app = ld.LinkedDataApp(store, config)
    rng = random.Random(model.seed)
    concepts = [rng.choice(model.thesoz.concepts[:len(model.thesoz.concepts) // 4]) for _ in range(REQUESTS)]
    return [
        ("parse_ntriples one thesaurus", lambda: timed(lambda: nt.parse_ntriples(data))),
        ("convert_crosswalk", lambda: timed(lambda: xw.convert_crosswalk(crosswalk, src_view, tgt_view))),
        ("validate_skos thesaurus only", lambda: timed(lambda: skos.validate_skos(thesoz))),
        ("validate_skos thesaurus + mappings, other thesaurus external",
         lambda: timed(lambda: skos.validate_skos(with_mappings, external_graphs=[stw]))),
        ("load_manifest (2 thesauri + mappings)", lambda: timed(lambda: ms.load_manifest(work / "manifest.json"))),
        ("GET page, per request", lambda: per_request(app, [service.local(model, c, "page") for c in concepts])),
        ("GET data, per request", lambda: per_request(app, [service.local(model, c, "data") for c in concepts])),
        ("GET /query?s= (merged store), per request",
         lambda: per_request(app, ["/query?s=%s" % service.term_param(c) for c in concepts])),
        ("GET /{id}/query?s=, per request",
         lambda: per_request(app, ["/thesoz/query?s=%s" % service.term_param(c) for c in concepts])),
    ]


def fmt(seconds):
    if seconds < 0.01:
        return "%.2f ms" % (seconds * 1000)
    return "%.0f ms" % (seconds * 1000) if seconds < 1 else "%.2f s" % seconds


def main():
    mods = tracing.import_program(ROOT / "src")
    table, header = {}, []
    last, growth = {}, {}  # stage -> (size, seconds); stage -> exponent of growth in N
    for n in SIZES:
        model = synth.Model(SEED, concepts=n)
        work = ROOT / "bench" / "_work" / ("baseline-%d" % n)
        model.write(work)
        gc.collect()
        header.append("N=%d (%dk triples)" % (n, round(len(model.merged) / 1000)))
        for name, run in stages(mods, model, work):
            if name in last:
                n0, t0 = last[name]
                predicted = t0 * (n / n0) ** growth.get(name, 2.0)
                if predicted > BUDGET_S:
                    table.setdefault(name, []).append("skipped (~%s predicted)" % fmt(predicted))
                    continue
            t = run()
            if name in last:
                n0, t0 = last[name]
                growth[name] = max(1.0, math.log(t / t0) / math.log(n / n0))
            last[name] = (n, t)
            cell = fmt(t)
            if name.startswith("parse_ntriples"):
                data = (work / "thesoz.nt").read_bytes()
                kb = tracing.kb_per_triple(lambda: mods["ntriples"].parse_ntriples(data)[0], len)
                cell += " (%.1f KB traced/triple)" % kb
            table.setdefault(name, []).append(cell)
            print("N=%d %s: %s" % (n, name, cell), file=sys.stderr)
    print("| stage | %s |" % " | ".join(header))
    print("|---|" + "---|" * len(header))
    for name, cells in table.items():
        print("| %s | %s |" % (name, " | ".join(cells)))


if __name__ == "__main__":
    main()
