"""Line-based N-Triples reader and canonical writer.

The reader is line-recoverable: every bad line, including one that is not
valid UTF-8, becomes a ParseError record with its 1-based line number and
parsing continues. The writer emits one triple per line in canonical order
(subject, predicate, object; literals after IRIs; raw UTF-8 byte
comparison), so output is a pure function of graph content.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Tuple, Union

from .graph import Graph
from .skosmodel import make_diagnostic
from .terms import BlankNode, Iri, Literal, Term, TermError, Triple


@dataclass(frozen=True)
class ParseError:
    line: int
    message: str


_NAMED_ESCAPES = {"n": "\n", "r": "\r", "t": "\t", "b": "\b", "f": "\f", '"': '"', "\\": "\\", "'": "'"}


class _LineSyntaxError(ValueError):
    pass


def _unescape(raw: str) -> str:
    if "\\" not in raw:
        return raw
    out = []
    i = 0
    n = len(raw)
    while i < n:
        c = raw[i]
        if c != "\\":
            out.append(c)
            i += 1
            continue
        if i + 1 >= n:
            raise _LineSyntaxError("dangling backslash")
        e = raw[i + 1]
        if e in _NAMED_ESCAPES:
            out.append(_NAMED_ESCAPES[e])
            i += 2
        elif e == "u":
            hexpart = raw[i + 2 : i + 6]
            if len(hexpart) != 4:
                raise _LineSyntaxError("truncated \\u escape")
            out.append(chr(_hex(hexpart)))
            i += 6
        elif e == "U":
            hexpart = raw[i + 2 : i + 10]
            if len(hexpart) != 8:
                raise _LineSyntaxError("truncated \\U escape")
            cp = _hex(hexpart)
            if cp > 0x10FFFF:
                raise _LineSyntaxError("code point out of range")
            out.append(chr(cp))
            i += 10
        else:
            raise _LineSyntaxError("unknown escape \\%s" % e)
    return "".join(out)


def _hex(s: str) -> int:
    try:
        return int(s, 16)
    except ValueError:
        raise _LineSyntaxError("bad hex digits in escape: %r" % s)


class _Scanner:
    def __init__(self, line: str):
        self.line = line
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.line) and self.line[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        return self.pos >= len(self.line)

    def peek(self) -> str:
        return self.line[self.pos] if self.pos < len(self.line) else ""

    def expect(self, c: str):
        if self.peek() != c:
            raise _LineSyntaxError("expected %r at column %d" % (c, self.pos + 1))
        self.pos += 1

    def read_iri(self) -> Iri:
        self.expect("<")
        end = self.line.find(">", self.pos)
        if end < 0:
            raise _LineSyntaxError("unterminated IRI")
        raw = self.line[self.pos : end]
        self.pos = end + 1
        try:
            return Iri(_unescape(raw))
        except TermError as e:
            raise _LineSyntaxError(str(e))

    def read_bnode(self) -> BlankNode:
        self.expect("_")
        self.expect(":")
        start = self.pos
        while self.pos < len(self.line) and self.line[self.pos].isalnum():
            self.pos += 1
        if self.pos == start:
            raise _LineSyntaxError("empty blank node label")
        try:
            return BlankNode(self.line[start : self.pos])
        except TermError as e:
            raise _LineSyntaxError(str(e))

    def read_literal(self) -> Literal:
        self.expect('"')
        # scan for closing quote, skipping escaped characters
        i = self.pos
        line = self.line
        while True:
            if i >= len(line):
                raise _LineSyntaxError("unterminated literal")
            c = line[i]
            if c == "\\":
                i += 2
            elif c == '"':
                break
            else:
                i += 1
        lexical = _unescape(line[self.pos : i])
        self.pos = i + 1
        if self.peek() == "@":
            self.pos += 1
            start = self.pos
            while self.pos < len(line) and (line[self.pos].isalnum() or line[self.pos] == "-"):
                self.pos += 1
            tag = line[start : self.pos]
            if not tag:
                raise _LineSyntaxError("empty language tag")
            try:
                return Literal(lexical, lang=tag.lower())
            except TermError as e:
                raise _LineSyntaxError(str(e))
        if self.line[self.pos : self.pos + 2] == "^^":
            self.pos += 2
            dt = self.read_iri()
            return Literal(lexical, datatype=dt)
        return Literal(lexical)

    def read_subject(self) -> Union[Iri, BlankNode]:
        if self.peek() == "<":
            return self.read_iri()
        if self.peek() == "_":
            return self.read_bnode()
        raise _LineSyntaxError("expected IRI or blank node")

    def read_object(self) -> Term:
        c = self.peek()
        if c == "<":
            return self.read_iri()
        if c == "_":
            return self.read_bnode()
        if c == '"':
            return self.read_literal()
        raise _LineSyntaxError("expected IRI, blank node, or literal")


def parse_line(line: str) -> Optional[Triple]:
    """Parse one N-Triples line; None for blank/comment lines.

    Raises _LineSyntaxError internally; callers use parse_ntriples for the
    recoverable interface.
    """
    sc = _Scanner(line)
    sc.skip_ws()
    if sc.at_end() or sc.peek() == "#":
        return None
    s = sc.read_subject()
    sc.skip_ws()
    p = sc.read_iri()
    sc.skip_ws()
    o = sc.read_object()
    sc.skip_ws()
    sc.expect(".")
    sc.skip_ws()
    if not sc.at_end() and sc.peek() != "#":
        raise _LineSyntaxError("trailing content after '.'")
    return Triple(s, p, o)


def parse_ntriples(data: Union[bytes, str]) -> Tuple[Graph, list]:
    """Parse N-Triples input; every bad line becomes a ParseError record."""
    if isinstance(data, bytes):
        try:
            lines = data.decode("utf-8").split("\n")
        except UnicodeDecodeError:
            # decode line by line so only the undecodable lines are lost
            lines = data.split(b"\n")
    else:
        lines = data.split("\n")
    g = Graph()
    errors: list[ParseError] = []
    for lineno, line in enumerate(lines, start=1):
        try:
            if isinstance(line, bytes):
                line = line.decode("utf-8")
            t = parse_line(line.rstrip("\r"))
        except (UnicodeDecodeError, _LineSyntaxError, TermError) as e:
            errors.append(ParseError(lineno, str(e)))
            continue
        if t is not None:
            g.insert(t)
    return g, errors


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


def _escape(s: str) -> str:
    out = []
    for c in s:
        if c == "\\":
            out.append("\\\\")
        elif c == '"':
            out.append('\\"')
        elif c == "\n":
            out.append("\\n")
        elif c == "\r":
            out.append("\\r")
        elif c == "\t":
            out.append("\\t")
        elif ord(c) < 0x20:
            out.append("\\u%04X" % ord(c))
        else:
            out.append(c)
    return "".join(out)


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
    lines = [format_triple(t) for t in g]
    if not lines:
        return b""
    return ("\n".join(lines) + "\n").encode("utf-8")
