"""Line-based N-Triples reader and canonical writer.

The reader is line-recoverable: every bad line, including one that is not
valid UTF-8 (`utf8_lines`, shared with the crosswalk reader), becomes a
ParseError record with its 1-based line number and parsing continues.
The writer emits one triple per line in canonical order (subject,
predicate, object; literals after IRIs; raw UTF-8 byte comparison), so
output is a pure function of graph content.

This is the one module that knows RDF term syntax. The line grammar is
one regular expression, `_LINE`: blanks, an optional triple, blanks, an
optional comment. Its object alternative, `_TERM`, is also the grammar of
a query's `<IRI>` and quoted-literal tokens (`parse_term`), so a term that
`format_term` writes reads back as the same term. Escapes are checked
inside the IRI and literal groups; the term constructors check the rest
(IRI scheme and characters, blank node label, language tag).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Tuple, Union

from .graph import Graph
from .skosmodel import make_diagnostic
from .terms import BlankNode, Iri, Literal, PrefixMap, Term, TermError, Triple


@dataclass(frozen=True)
class ParseError:
    line: int
    message: str


class _LineSyntaxError(ValueError):
    pass


# UCHAR in IRIs, ECHAR or UCHAR in literals; unrolled loops
# `[^"\\]*(?:ESCAPE[^"\\]*)*` keep the regex engine off a per-character
# alternation. A literal holds no raw CR or LF (STRING_LITERAL_QUOTE).
# Blank node labels and language tags are `\w` runs; BlankNode and Literal
# reject any that is not ASCII letters and digits (and '-' in a tag).
_UCHAR = r"\\(?:u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8})"
_ESCAPE = r"""(?:\\[tbnrf"'\\]|%s)""" % _UCHAR
_IRI = r"<([^>\\]*(?:%s[^>\\]*)*)>" % _UCHAR
# an object term: IRI, blank node, or literal with an optional @lang or ^^<datatype>
_TERM = r"""(?:{iri}|_:(\w+)|"([^"\\\r\n]*(?:{esc}[^"\\\r\n]*)*)"(?:@([\w-]+)|\^\^{iri})?)""".format(iri=_IRI, esc=_ESCAPE)
_LINE = re.compile(
    r"""[ \t]*(?:
        (?:{iri}|_:(\w+)) [ \t]* {iri} [ \t]* {term}
        [ \t]*\.[ \t]*
    )?(?:\#.*)?""".format(iri=_IRI, term=_TERM),
    re.S | re.X,
)
_TERM_TOKEN = re.compile(_TERM)
_UNESCAPE = re.compile(_ESCAPE)
_ECHARS = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}


def _decode(m) -> str:
    e = m.group()
    if len(e) == 2:
        return _ECHARS[e[1]]
    cp = int(e[2:], 16)
    if 0xD800 <= cp <= 0xDFFF or cp > 0x10FFFF:
        raise TermError("escape %s is no Unicode scalar value" % e)
    return chr(cp)


def _unescape(raw: str) -> str:
    return _UNESCAPE.sub(_decode, raw) if "\\" in raw else raw


def _iri(raw: str, iris: dict) -> Iri:
    """The Iri of raw, the text between the angle brackets, built once per
    parse: iris maps each text to its term. A text whose Iri raised is never
    stored, so each line that holds it fails on its own, and Iri still
    checks every distinct IRI."""
    t = iris.get(raw)
    if t is None:
        t = iris[raw] = Iri(_unescape(raw))
    return t


def _term(iri, bnode, lexical, lang, datatype, iris: dict) -> Term:
    """The term of one match of _TERM's groups, with the IRIs of its parse."""
    if iri is not None:
        return _iri(iri, iris)
    if bnode is not None:
        return BlankNode(bnode)
    return Literal(_unescape(lexical), lang=lang, datatype=None if datatype is None else _iri(datatype, iris))


def parse_line(line: str, iris: dict) -> Optional[Triple]:
    """Parse one N-Triples line with the IRIs of its parse (see _iri); None
    for blank/comment lines.

    Raises _LineSyntaxError or TermError; callers use parse_ntriples for
    the recoverable interface.
    """
    m = _LINE.fullmatch(line)
    if m is None:
        raise _LineSyntaxError("not an N-Triples line")
    s, s_bnode, p, o, o_bnode, lexical, lang, datatype = m.groups()
    if p is None:
        return None
    obj = _term(o, o_bnode, lexical, lang, datatype, iris)
    # built as the bare tuple: _LINE admits only an IRI or blank node subject
    # and an IRI predicate, the checks Triple() would repeat
    return tuple.__new__(Triple, (BlankNode(s_bnode) if s is None else _iri(s, iris), _iri(p, iris), obj))


def parse_term(token: str, prefixes: PrefixMap) -> Term:
    """One query term token: an N-Triples `<IRI>`, blank node or literal,
    escapes included, exactly as format_term writes it; else a CURIE whose
    prefix is bound, or else a bare IRI.

    Raises TermError when the token is not a valid term.
    """
    token = token.strip()
    if token.startswith(("<", '"', "_:")):
        m = _TERM_TOKEN.fullmatch(token)
        if m is None:
            raise TermError("malformed term: %r" % token)
        return _term(*m.groups(), {})
    return prefixes.expand(token) or Iri(token)


def parse_pattern(s, p, o, prefixes: PrefixMap) -> tuple:
    """Terms of a single triple pattern from subject, predicate and object
    tokens; a missing or empty token leaves its position unbound.

    Raises TermError on a malformed token, a predicate that is not an IRI,
    or a literal subject.
    """
    s, p, o = (parse_term(tok, prefixes) if tok else None for tok in (s, p, o))
    if p is not None and not isinstance(p, Iri):
        raise TermError("predicate must be an IRI")
    if isinstance(s, Literal):
        raise TermError("subject cannot be a literal")
    return s, p, o


def _utf8(line: bytes) -> Optional[str]:
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError:
        return None


def utf8_lines(data: Union[bytes, str]) -> list:
    """The lines of data, split at LF, with None for each line that is not
    valid UTF-8. A str is encoded first, lone surrogates passed through, so
    a line that holds one is invalid too."""
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    try:
        return data.decode("utf-8").split("\n")
    except UnicodeDecodeError:
        # decode line by line so only the undecodable lines are lost
        return [_utf8(line) for line in data.split(b"\n")]


def parse_ntriples(data: Union[bytes, str]) -> Tuple[Graph, list]:
    """Parse N-Triples input; every bad line becomes a ParseError record.
    Each distinct IRI is built once per call (see _iri); the Graph gets its
    triples in file order."""
    triples = []
    errors: list[ParseError] = []
    iris: dict[str, Iri] = {}
    for lineno, line in enumerate(utf8_lines(data), start=1):
        if line is None:
            errors.append(ParseError(lineno, "line is not valid UTF-8"))
            continue
        try:
            t = parse_line(line.rstrip("\r"), iris)
        except (_LineSyntaxError, TermError) as e:
            errors.append(ParseError(lineno, str(e)))
            continue
        if t is not None:
            triples.append(t)
    return Graph(triples), errors


def load_ntriples(path) -> Tuple[Graph, list]:
    """Read and parse one N-Triples file.

    Returns the graph and one NT_SYNTAX Diagnostic per bad line, located at
    (file, line). OSError from reading the file propagates.
    """
    g, errors = parse_ntriples(Path(path).read_bytes())
    return g, [
        make_diagnostic("NT_SYNTAX", message=e.message, source_location=(str(path), e.line))
        for e in errors
    ]


# the writer's escapes: backslash, quote, and every control character below 0x20
_ESCAPES = {c: "\\u%04X" % c for c in range(0x20)}
_ESCAPES.update({ord("\\"): "\\\\", ord('"'): '\\"', ord("\n"): "\\n", ord("\r"): "\\r", ord("\t"): "\\t"})


def _escape(s: str) -> str:
    return s.translate(_ESCAPES)


def format_term(t: Term) -> str:
    if isinstance(t, Iri):
        return "<%s>" % t.value
    if isinstance(t, BlankNode):
        return "_:%s" % t.label
    lex = _escape(t.lexical)
    if t.lang:
        return '"%s"@%s' % (lex, t.lang)
    if t.datatype:
        return '"%s"^^<%s>' % (lex, t.datatype.value)
    return '"%s"' % lex


def format_triple(t: Triple) -> str:
    return "%s %s %s ." % (format_term(t.subject), format_term(t.predicate), format_term(t.object))


def serialize_ntriples(g: Iterable[Triple]) -> bytes:
    """N-Triples, one triple per line, each line ending in a newline. Canonical
    when g is a Graph or any other triples already in canonical order, such as
    Graph.match or MultiStore.match."""
    texts = {}  # each distinct term is formatted once per call: most IRIs recur

    def text(t):
        s = texts.get(t)
        if s is None:
            s = texts[t] = format_term(t)
        return s

    lines = ["%s %s %s ." % (text(s), text(p), text(o)) for s, p, o in g]
    if not lines:
        return b""
    return ("\n".join(lines) + "\n").encode("utf-8")
