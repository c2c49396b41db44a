"""The publish workload: the batch steps an operator reruns when a crosswalk changes.

Each step is its own `python -m skoshub.cli` process: convert the crosswalk,
merge the store, validate the merged dump, and query it twice. Every output
file, report and exit code is checked against the oracle.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import service
import synth

ERROR_CODES = {
    "DUPLICATE_PREFLABEL", "LABEL_CLASH", "MAPPING_NON_CONCEPT", "NT_SYNTAX",
    "XWALK_SYNTAX", "XWALK_NONPREFERRED", "XWALK_AMBIGUOUS", "XWALK_UNRESOLVED",
    "XWALK_BAD_COMBINATION", "XWALK_SAME_SCHEME",
}


class Step:
    """One CLI invocation with the check of its results."""

    def __init__(self, name, argv, check, stdout):
        self.name = name
        self.argv = argv
        self.check = check
        self.stdout = stdout


def run_child(argv, env, cwd, stdout_path, stderr_path):
    """Run one CLI process; returns (exit code, wall seconds, peak RSS in MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "skoshub.cli"] + argv, cwd=cwd, env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def expected_exit(codes):
    return 1 if ERROR_CODES & set(codes) else 0


class Publisher:
    """Builds the steps of each round and the oracle's expectations for them."""

    def __init__(self, model, work: Path):
        self.model = model
        self.out = work / "publish"
        self.out.mkdir(parents=True, exist_ok=True)
        manifest = model.manifest("mappings.nt", thesaurus_dir="../inputs/")
        (self.out / "manifest.json").write_text(json.dumps(manifest, indent=2), encoding="utf-8")
        self.mappings_nt = synth.ntriples(model.mappings).encode("utf-8")
        self.merged_nt = "".join(synth.format_triple(t) + "\n" for t in model.merged).encode("utf-8")
        line_codes = [c for codes in model.expected_codes.values() for c in codes]
        self.convert_exit = expected_exit(line_codes)
        self.validate_exit = expected_exit([c for c, _ in model.expected_validate])
        self.xl_missing = sorted(th.xl_missing for th in model.thesauri)

    def round(self, rng):
        m = self.model
        c = rng.choice(rng.choice(m.thesauri).concepts)
        _, p, o = rng.choice([t for t in m.mappings if t[1] in synth.MAPPING_PROPERTIES])
        return [
            Step("convert", ["convert", "--source", "../inputs/thesoz.nt", "--target", "../inputs/stw.nt",
                             "--crosswalk", "../inputs/thesoz-stw.xwalk", "--output", "mappings.nt",
                             "--report-json"], self.check_convert, "convert.json"),
            Step("merge", ["merge", "manifest.json", "--output", "merged.nt"], self.check_merge, "merge.out"),
            Step("validate", ["validate", "merged.nt", "--report-json"], self.check_validate, "validate.json"),
            Step("query", ["query", "manifest.json", "--subject", "<%s>" % c],
                 self.check_query(m.match(s=c)), "query.nt"),
            Step("query", ["query", "manifest.json", "--predicate", "skos:" + p[len(synth.SKOS):],
                           "--object", "<%s>" % o[1]], self.check_query(m.match(p=p, o=o)), "query.nt"),
        ]

    # --- checks: each returns None or a description of what is wrong ---------

    def check_convert(self, code, stdout, stderr):
        if code != self.convert_exit:
            return "exit %d, expected %d" % (code, self.convert_exit)
        if (self.out / "mappings.nt").read_bytes() != self.mappings_nt:
            return "mapping triples differ from the oracle"
        report = json.loads(stdout)
        per_line, other = {}, []
        for d in report:
            if d["source"]:
                per_line.setdefault(d["source"][1], []).append(d["code"])
            else:
                other.append((d["code"], d["subject"]))
        per_line = {line: sorted(codes) for line, codes in per_line.items()}
        if per_line != self.model.expected_codes:
            wrong = [n for n in set(per_line) | set(self.model.expected_codes)
                     if per_line.get(n) != self.model.expected_codes.get(n)]
            return "diagnostics differ on %d crosswalk lines, first line %d" % (len(wrong), min(wrong))
        if sorted(other) != [("XL_NO_LITERAL_FORM", n) for n in self.xl_missing]:
            return "unexpected file-level diagnostics %s" % other[:3]
        return None

    def check_merge(self, code, stdout, stderr):
        if code != 0:
            return "exit %d" % code
        if stderr.strip():
            return "unexpected load diagnostics: %s" % stderr[:200]
        if (self.out / "merged.nt").read_bytes() != self.merged_nt:
            return "merged dump is not the canonical union of the inputs"
        return None

    def check_validate(self, code, stdout, stderr):
        if code != self.validate_exit:
            return "exit %d, expected %d" % (code, self.validate_exit)
        got = Counter((d["code"], d["subject"]) for d in json.loads(stdout))
        if got != Counter(self.model.expected_validate):
            return "diagnostics differ: missing %s, extra %s" % (
                list((Counter(self.model.expected_validate) - got).elements())[:3],
                list((got - Counter(self.model.expected_validate)).elements())[:3])
        return None

    def check_query(self, expected):
        lines = "".join(synth.format_triple(t) + "\n" for t in expected)

        def check(code, stdout, stderr):
            if code != 0:
                return "exit %d" % code
            return None if stdout == lines else "answer differs from the oracle filter"
        return check

    def run_step(self, step, env):
        stdout_path = self.out / step.stdout
        stderr_path = self.out / (step.name + ".err")
        code, wall, rss = run_child(step.argv, env, self.out, stdout_path, stderr_path)
        problem = service.verdict(lambda: step.check(
            code, stdout_path.read_text(encoding="utf-8"), stderr_path.read_text(encoding="utf-8")))
        return wall, rss, problem


def run(model, work, env, seed, seconds):
    """Whole rounds until `seconds` have passed; returns (samples, failures, peak MB, elapsed).

    samples: (command, wall seconds) per command whose results were correct."""
    pub = Publisher(model, work)
    rng = random.Random("publish-%d" % seed)
    samples, failures, peak = [], [], 0.0
    start = time.perf_counter()
    while not samples + failures or time.perf_counter() - start < seconds:
        for step in pub.round(rng):
            wall, rss, problem = pub.run_step(step, env)
            peak = max(peak, rss)
            if problem:
                failures.append("%s: %s" % (step.name, problem))
            else:
                samples.append((step.name, wall))
    return samples, failures, peak, time.perf_counter() - start
