"""Turtle writer (output only; a subset with no collections or anonymous nodes).

IRIs are compacted against the supplied prefix map where the local part is
safe to write as a prefixed name; everything else falls back to <...> form.
Triples are grouped by subject with ';' predicate continuation and ','
object lists. The empty graph serializes to empty output.
"""

from __future__ import annotations

import re
from itertools import groupby

from .graph import Graph
from .namespaces import RDF_TYPE
from .ntriples import format_term
from .terms import Iri, Literal, PrefixMap, Term

# Conservative PN_LOCAL: avoids the Turtle grammar's trickier corners
# (percent escapes, leading digits with dots, etc.)
_LOCAL_RE = re.compile(r"^[A-Za-z0-9_]([A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?$")
_PREFIX_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_\-]*$")


def _compact(iri: Iri, prefixes: PrefixMap, used: set) -> str:
    hit = prefixes.compact(iri)
    if hit is not None:
        prefix, local = hit
        if _PREFIX_RE.match(prefix) and (local == "" or _LOCAL_RE.match(local)):
            used.add(prefix)
            return "%s:%s" % (prefix, local)
    return "<%s>" % iri.value


def _term(t: Term, prefixes: PrefixMap, used: set) -> str:
    if isinstance(t, Iri):
        return _compact(t, prefixes, used)
    if isinstance(t, Literal) and t.datatype:
        # format_term ends a typed literal with <datatype>; write that IRI compacted
        text = format_term(t)
        return text[: len(text) - len(t.datatype.value) - 2] + _compact(t.datatype, prefixes, used)
    return format_term(t)


def serialize_turtle(g: Graph, prefixes: PrefixMap) -> bytes:
    if len(g) == 0:
        return b""
    used: set[str] = set()
    body_lines: list[str] = []
    # a Graph iterates in canonical order, so each subject's triples are adjacent
    for subject, group in groupby(g, key=lambda t: t.subject):
        subj_str = _term(subject, prefixes, used)
        pred_parts = []
        for predicate, pgroup in groupby(group, key=lambda t: t.predicate):
            objs = ", ".join(_term(t.object, prefixes, used) for t in pgroup)
            pred_str = "a" if predicate == RDF_TYPE else _term(predicate, prefixes, used)
            pred_parts.append("%s %s" % (pred_str, objs))
        body_lines.append(subj_str + " " + " ;\n    ".join(pred_parts) + " .")
        body_lines.append("")
    header = [
        "@prefix %s: <%s> ." % (p, ns.value)
        for p, ns in prefixes
        if p in used
    ]
    text = ""
    if header:
        text += "\n".join(header) + "\n\n"
    text += "\n".join(body_lines).rstrip("\n") + "\n"
    return text.encode("utf-8")
