import gc
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from urllib.parse import quote

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skoshub import cli, ldservice
from skoshub import namespaces as ns
from skoshub.cli import main
from skoshub.graph import Graph
from skoshub.ldservice import LinkedDataApp
from skoshub.multistore import MultiStore, load_manifest
from skoshub.ntriples import format_triple, parse_ntriples, serialize_ntriples
from skoshub.skosmodel import validate_skos
from skoshub.terms import Iri, Literal, Triple

from conftest import FIXTURES, LISTING1_LINE, SKOS, STW_CONCEPT, THESOZ_CONCEPT, fixture_manifest_json

SRC = FIXTURES.parents[1] / "src"

INVERSE_LINE = (
    "<http://zbw.eu/stw/descriptor/11971-0> "
    "<http://www.w3.org/2004/02/skos/core#exactMatch> "
    "<http://lod.gesis.org/thesoz/concept/10039068> ."
)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fixture_manifest(tmp_path, **service):
    """A copy of the fixture manifest with its service settings updated."""
    manifest = fixture_manifest_json()
    manifest["service"].update(service)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return str(path)


@pytest.fixture()
def no_socket(monkeypatch):
    """Fail the test if serve gets as far as opening a listening socket."""
    def refuse(*args):
        raise AssertionError("serve opened a socket for %r" % (args,))

    monkeypatch.setattr(ldservice, "make_server", refuse)
    monkeypatch.delenv("SKOSHUB_LISTEN", raising=False)


class TestValidate:
    def test_clean_fixture_exit_0(self, capsys):
        code, out, _ = run(["validate", str(FIXTURES / "mini_thesoz.nt")], capsys)
        assert code == 0
        assert out == ""

    def test_seeded_error_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.nt"
        bad.write_text(
            "<http://e.org/c:1> <http://www.w3.org/2004/02/skos/core#prefLabel> \"A\"@de .\n"
            "<http://e.org/c:1> <http://www.w3.org/2004/02/skos/core#prefLabel> \"B\"@de .\n"
        )
        code, out, _ = run(["validate", str(bad)], capsys)
        assert code == 1
        assert "DUPLICATE_PREFLABEL" in out

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(["validate", "/no/such/file.nt"], capsys)
        assert code == 2
        assert "error" in err

    def test_json_report(self, tmp_path, capsys):
        bad = tmp_path / "bad.nt"
        bad.write_text("<http://e.org/c:1> <http://www.w3.org/2004/02/skos/core#exactMatch> \"x\" .\n")
        code, out, _ = run(["validate", "--report-json", str(bad)], capsys)
        assert code == 1
        records = json.loads(out)
        assert any(r["code"] == "MAPPING_NON_CONCEPT" for r in records)


class TestConvert:
    def convert(self, capsys, tmp_path, crosswalk="listing1.xwalk", *flags):
        out_path = tmp_path / "mappings.nt"
        code, out, err = run(
            [
                "convert",
                "--source", str(FIXTURES / "mini_thesoz.nt"),
                "--target", str(FIXTURES / "mini_stw.nt"),
                "--crosswalk", str(FIXTURES / crosswalk),
                "--output", str(out_path),
                *flags,
            ],
            capsys,
        )
        return code, out_path, out, err

    def test_listing1_trio_exact_output(self, capsys, tmp_path):
        code, out_path, report, _ = self.convert(capsys, tmp_path)
        assert code == 0
        assert out_path.read_bytes() == (LISTING1_LINE + "\n" + INVERSE_LINE + "\n").encode()
        assert "XWALK_OK" in report

    def test_no_inverses_flag(self, capsys, tmp_path):
        code, out_path, _, _ = self.convert(capsys, tmp_path, "listing1.xwalk", "--no-inverses")
        assert code == 0
        assert out_path.read_bytes() == (LISTING1_LINE + "\n").encode()

    def test_unresolvable_line_partial_output_exit_1(self, capsys, tmp_path):
        code, out_path, report, _ = self.convert(capsys, tmp_path, "full.xwalk")
        assert code == 1
        assert "XWALK_UNRESOLVED" in report
        g, errors = parse_ntriples(out_path.read_bytes())
        assert errors == []
        assert len(g) > 0  # successful subset still written

    def test_missing_input_exit_2(self, capsys, tmp_path):
        code, _, _, err = self.convert(capsys, tmp_path, "absent.xwalk")
        assert code == 2

    def test_crosswalk_line_not_utf8_is_reported_and_the_rest_converted(self, capsys, tmp_path):
        crosswalk = tmp_path / "bad.xwalk"
        crosswalk.write_bytes((FIXTURES / "listing1.xwalk").read_bytes() + b"Arbeit\xff\t=\tArbeit\n")
        lines = crosswalk.read_bytes().count(b"\n")
        code, out_path, report, _ = self.convert(capsys, tmp_path, str(crosswalk), "--report-json")
        assert code == 1
        assert [(r["code"], r["source"]) for r in json.loads(report) if r["severity"] == "Error"] == [
            ("XWALK_SYNTAX", [str(crosswalk), lines])
        ]
        assert out_path.read_bytes() == (LISTING1_LINE + "\n" + INVERSE_LINE + "\n").encode()

    @pytest.mark.parametrize("namespace", ["foo", "http://e.org/a b#"])
    def test_ext_namespace_not_an_iri_exit_2(self, capsys, tmp_path, namespace):
        code, out_path, report, err = self.convert(capsys, tmp_path, "full.xwalk", "--ext-namespace", namespace)
        assert code == 2
        assert report == "" and err.startswith("error: ") and err.count("\n") == 1
        assert not out_path.exists()

    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        _, p1, r1, _ = self.convert(capsys, a, "full.xwalk")
        _, p2, r2, _ = self.convert(capsys, b, "full.xwalk")
        assert p1.read_bytes() == p2.read_bytes()
        assert r1 == r2

    def test_promote_policy_flag(self, capsys, tmp_path):
        xwalk = tmp_path / "np.xwalk"
        xwalk.write_text(
            "#xwalk source=thesoz target=stw source-lang=de target-lang=de\n"
            "Wanderung\t=\tArbeitsmigration\n"
        )
        shutil.copy(xwalk, tmp_path / "np2.xwalk")
        out_path = tmp_path / "out.nt"
        code, out, _ = run(
            [
                "convert",
                "--source", str(FIXTURES / "mini_thesoz.nt"),
                "--target", str(FIXTURES / "mini_stw.nt"),
                "--crosswalk", str(xwalk),
                "--output", str(out_path),
                "--nonpreferred", "promote",
            ],
            capsys,
        )
        assert code == 0
        assert "XWALK_PROMOTED" in out
        g, _ = parse_ntriples(out_path.read_bytes())
        assert len(g) == 2  # forward + inverse


@pytest.fixture()
def convert_fixtures(tmp_path, capsys):
    return tmp_path


class TestMerge:
    def test_merged_size_is_sum_of_parts(self, tmp_path, capsys, fixture_store):
        store, _ = fixture_store
        out = tmp_path / "merged.nt"
        code, _, _ = run(["merge", str(FIXTURES / "manifest.json"), "--output", str(out)], capsys)
        assert code == 0
        g, errors = parse_ntriples(out.read_bytes())
        assert errors == []
        assert len(g) == sum(len(r.graph) for r in store.registrations) + 2

    def test_empty_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text("{}")
        out = tmp_path / "merged.nt"
        code, _, _ = run(["merge", str(manifest), "--output", str(out)], capsys)
        assert code == 0
        assert out.read_bytes() == b""

    def test_bad_manifest_exit_2(self, tmp_path, capsys):
        code, _, err = run(["merge", "/no/such.json", "--output", str(tmp_path / "o.nt")], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "entry",
        [
            {"id": "a"},
            {"id": "a", "base_iri": "not an iri"},
            {"id": "a", "base_iri": "http://lod.gesis.org/thesoz/", "prefixes": {"t": "not an iri"}},
        ],
    )
    def test_bad_manifest_entry_exit_2(self, tmp_path, capsys, entry):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"thesauri": [dict(entry, file=str(FIXTURES / "mini_thesoz.nt"))]}))
        for argv in (["merge", str(manifest), "--output", str(tmp_path / "o.nt")], ["query", str(manifest)]):
            code, _, err = run(argv, capsys)
            assert code == 2
            assert err.startswith("error: ") and "Traceback" not in err


class TestQuery:
    def test_exact_match_pattern(self, capsys):
        code, out, _ = run(
            ["query", str(FIXTURES / "manifest.json"), "--predicate", "skos:exactMatch"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert LISTING1_LINE in lines
        assert len(lines) == 2

    def test_no_matches_empty_exit_0(self, capsys):
        code, out, _ = run(
            ["query", str(FIXTURES / "manifest.json"), "--predicate", "skos:closeMatch"],
            capsys,
        )
        assert code == 0
        assert out == ""

    def test_malformed_term_exit_2(self, capsys):
        code, _, err = run(
            ["query", str(FIXTURES / "manifest.json"), "--predicate", '"a literal"'],
            capsys,
        )
        assert code == 2

    @pytest.mark.parametrize("flag, term", [("--subject", "<http://e.org/{x}>"), ("--object", "http://e.org/a|b")])
    def test_iri_that_rdf_forbids_exit_2(self, capsys, flag, term):
        code, _, err = run(["query", str(FIXTURES / "manifest.json"), flag, term], capsys)
        assert code == 2 and err.startswith("error: ")

    def test_literal_argument_not_utf8_exit_2(self, capsys):
        # a 0xFF byte in argv reaches Python as the lone surrogate U+DCFF
        code, _, err = run(["query", str(FIXTURES / "manifest.json"), "--object", '"a\udcff"'], capsys)
        assert code == 2 and err.startswith("error: ")

    def test_manifest_prefix_expansion(self, capsys):
        code, out, _ = run(
            [
                "query",
                str(FIXTURES / "manifest.json"),
                "--subject", "thesoz:concept/10039068",
                "--predicate", "skos:exactMatch",
            ],
            capsys,
        )
        assert code == 0
        assert out.strip() == LISTING1_LINE


def test_no_command_copies_the_store_into_one_graph(fixture_store, monkeypatch, tmp_path, capsys):
    store, config = fixture_store
    merged = store.export_merged()  # the reference, taken before the patch

    def refuse(self):
        raise AssertionError("export_merged called")

    monkeypatch.setattr(MultiStore, "export_merged", refuse)
    app = LinkedDataApp(store, config)
    for path in ("/query", "/query?p=skos:exactMatch", "/thesoz/query", "/stw/query?p=skos:prefLabel"):
        assert app.handle("GET", path, {}).status == 200
    out = tmp_path / "merged.nt"
    code, _, _ = run(["merge", str(FIXTURES / "manifest.json"), "--output", str(out)], capsys)
    assert code == 0
    assert out.read_bytes() == serialize_ntriples(merged)
    code, stdout, _ = run(["query", str(FIXTURES / "manifest.json"), "-p", "skos:exactMatch"], capsys)
    assert code == 0
    assert stdout.splitlines() == [format_triple(t) for t in merged.match(p=ns.SKOS_EXACT_MATCH)]


@pytest.mark.parametrize("limit", [0, -1])
def test_result_limit_below_one_exit_2(tmp_path, capsys, no_socket, limit):
    manifest = fixture_manifest(tmp_path, result_limit=limit)
    for argv in (["merge", manifest, "--output", str(tmp_path / "o.nt")], ["query", manifest], ["serve", manifest]):
        code, _, err = run(argv, capsys)
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("listen", ["foo", "127.0.0.1:notaport", "127.0.0.1:99999"])
@pytest.mark.parametrize("source", ["flag", "env", "manifest"])
def test_bad_listen_address_exit_2(tmp_path, capsys, monkeypatch, no_socket, listen, source):
    argv = ["serve", fixture_manifest(tmp_path, **({"listen": listen} if source == "manifest" else {}))]
    if source == "flag":
        argv += ["--listen", listen]
    elif source == "env":
        monkeypatch.setenv("SKOSHUB_LISTEN", listen)
    code, _, err = run(argv, capsys)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestInvocation:
    def test_unknown_subcommand_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_available(self, capsys):
        assert main(["convert", "--help"]) == 0
        out = capsys.readouterr().out
        assert "--nonpreferred" in out

    def test_batch_commands_start_without_the_http_stack(self):
        # a fresh interpreter: this one has imported ldservice already
        probe = "import sys, skoshub.cli; print(sorted({'http.server', 'skoshub.ldservice'} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"


def thesoz_with_line(tmp_path, line):
    """A copy of the TheSoz fixture with line inserted as line 3, and a
    manifest that loads it."""
    lines = (FIXTURES / "mini_thesoz.nt").read_text(encoding="utf-8").splitlines()
    lines.insert(2, line)
    bad = tmp_path / "mini_thesoz.nt"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    manifest = json.loads((FIXTURES / "manifest.json").read_text())
    for entry in manifest["thesauri"] + manifest["mappings"]:
        if entry["file"] != bad.name:
            entry["file"] = str(FIXTURES / entry["file"])
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(manifest))
    return bad, manifest_path


@pytest.fixture()
def broken_thesoz(tmp_path):
    """A copy of the TheSoz fixture with a bad line 3, and a manifest that loads it."""
    return thesoz_with_line(tmp_path, "<http://lod.gesis.org/thesoz/concept/1> <broken")


def located(report):
    return [(r["code"], *r["source"]) for r in json.loads(report) if r["code"] == "NT_SYNTAX"]


class TestOneLoader:
    def test_every_command_reports_the_same_bad_line(self, broken_thesoz, tmp_path, capsys):
        bad, manifest_path = broken_thesoz
        expected = [("NT_SYNTAX", str(bad), 3)]
        code, out, _ = run(["validate", "--report-json", str(bad)], capsys)
        assert (code, located(out)) == (1, expected)
        code, out, _ = run(
            [
                "convert",
                "--source", str(bad),
                "--target", str(FIXTURES / "mini_stw.nt"),
                "--crosswalk", str(FIXTURES / "listing1.xwalk"),
                "--output", str(tmp_path / "mappings.nt"),
                "--report-json",
            ],
            capsys,
        )
        assert (code, located(out)) == (1, expected)
        merged = tmp_path / "merged.nt"
        code, _, err = run(["merge", str(manifest_path), "--output", str(merged), "--report-json"], capsys)
        assert (code, located(err)) == (1, expected)
        assert LISTING1_LINE in merged.read_text(encoding="utf-8").splitlines()
        _, _, diags = load_manifest(manifest_path)
        assert [(d.code, *d.source_location) for d in diags] == expected
        code, out, err = run(["query", str(manifest_path), "--predicate", "skos:exactMatch"], capsys)
        assert code == 1
        assert LISTING1_LINE in out.splitlines()
        assert "NT_SYNTAX" in err

    @pytest.mark.parametrize(
        "line",
        [
            '<http://lod.gesis.org/thesoz/concept/1> <%sprefLabel> "x\\uD800y"@de .' % SKOS,
            "<http://lod.gesis.org/thesoz/concept/\\uDFFF> <%sprefLabel> \"x\"@de ." % SKOS,
        ],
        ids=["literal", "iri"],
    )
    def test_escape_of_no_scalar_value_is_a_bad_line(self, tmp_path, capsys, line):
        bad, manifest_path = thesoz_with_line(tmp_path, line)
        code, out, err = run(["validate", "--report-json", str(bad)], capsys)
        assert (code, located(out)) == (1, [("NT_SYNTAX", str(bad), 3)])
        assert "Traceback" not in err
        merged, clean = tmp_path / "merged.nt", tmp_path / "clean.nt"
        code, _, err = run(["merge", str(manifest_path), "--output", str(merged)], capsys)
        assert code == 1 and "Traceback" not in err
        assert run(["merge", str(FIXTURES / "manifest.json"), "--output", str(clean)], capsys)[0] == 0
        assert merged.read_bytes() == clean.read_bytes()

    def test_serve_prints_load_diagnostics_before_listening(self, broken_thesoz):
        _, manifest_path = broken_thesoz
        proc = subprocess.Popen(
            [sys.executable, "-m", "skoshub.cli", "serve", str(manifest_path), "--listen", "127.0.0.1:0"],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            before = []
            for line in proc.stderr:
                if "listening on" in line:
                    break
                before.append(line)
        finally:
            proc.kill()
            proc.wait(timeout=10)
            proc.stderr.close()
        assert any(line.startswith("Error\tNT_SYNTAX\t") for line in before), before


IRIS = [THESOZ_CONCEPT, STW_CONCEPT, SKOS + "exactMatch", SKOS + "prefLabel", "urn:x", "not an iri"]
term_token = st.one_of(
    st.sampled_from(IRIS).map("<{}>".format),
    st.sampled_from(IRIS),
    st.sampled_from(["skos:exactMatch", "rdf:type", "thesoz:concept/10039068", "stw:descriptor/11971-0", "nope:x"]),
    # N-Triples escapes: decoded, or a TermError for no Unicode scalar value or a forbidden IRI character
    st.sampled_from(['"a\\"b"@de', '"\\u00e4"', '"\\uD800"', "<http://x.org/\\u00e4>", "<http://x.org/\\u0020>"]),
    st.builds(
        '"{}"{}'.format,
        st.sampled_from(["Informationswissenschaft", "Arbeit", 'a"b', ""]),
        st.sampled_from(["", "@de", "@DE", "@", "@x y", "^^<http://www.w3.org/2001/XMLSchema#string>", "^^<>"]),
    ),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8),
)
POSITION_FLAG = {"s": "--subject", "p": "--predicate", "o": "--object"}


@given(st.fixed_dictionaries({}, optional={"s": term_token, "p": term_token, "o": term_token}))
@example({"s": '"Arbeit"@de'})
@example({"o": '"Informationswissenschaft"@DE'})
@settings(max_examples=150, deadline=None)
def test_query_cli_and_endpoint_parse_terms_alike(fixture_store, pattern):
    store, config = fixture_store
    resp = LinkedDataApp(store, config).handle(
        "GET", "/query?" + "&".join("%s=%s" % (k, quote(v, safe="")) for k, v in pattern.items())
    )
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["query", str(FIXTURES / "manifest.json")]
                    + ["%s=%s" % (POSITION_FLAG[k], v) for k, v in pattern.items()])
    if resp.status == 400:
        assert code == 2
    else:
        assert (resp.status, code) == (200, 0)
        assert out.getvalue() == resp.body.decode("utf-8")


ESCAPED_OBJECTS = [
    Literal('Stadt "Nord"', lang="de"),
    Literal("a\\b"),
    Literal("zwei\nZeilen", lang="de"),
    Literal("a\tb", datatype=Iri("http://www.w3.org/2001/XMLSchema#string")),
    Literal("\x01"),
    Iri("http://x.org/\u00e4"),
]


def test_printed_object_reads_back_as_its_own_pattern(tmp_path, capsys):
    subject = Iri("http://lod.gesis.org/thesoz/concept/escapes")
    lines = [format_triple(Triple(subject, Iri(SKOS + "note"), o)) for o in ESCAPED_OBJECTS]
    _, manifest_path = thesoz_with_line(tmp_path, "\n".join(lines))
    store, config, _ = load_manifest(manifest_path)
    app = LinkedDataApp(store, config)
    s = "<%s>" % subject.value
    code, out, _ = run(["query", str(manifest_path), "-s", s], capsys)
    assert (code, out) == (0, app.handle("GET", "/query?s=" + quote(s, safe="")).body.decode("utf-8"))
    assert sorted(out.splitlines()) == sorted(lines)
    for line in lines:
        o = line.split(" ", 2)[2][: -len(" .")]
        code, out, _ = run(["query", str(manifest_path), "-s", s, "-o", o], capsys)
        assert (code, out) == (0, line + "\n")
        resp = app.handle("GET", "/query?s=%s&o=%s" % (quote(s, safe=""), quote(o, safe="")))
        assert (resp.status, resp.body.decode("utf-8")) == (200, line + "\n")


BLANK_NODE_LINE = "<%s> <%srelated> _:b1 ." % (THESOZ_CONCEPT, SKOS)


def test_printed_blank_node_reads_back_in_query(tmp_path, capsys):
    _, manifest_path = thesoz_with_line(tmp_path, BLANK_NODE_LINE)
    code, out, _ = run(["query", str(manifest_path), "-p", "skos:related"], capsys)
    assert code == 0 and BLANK_NODE_LINE in out.splitlines()
    code, out, _ = run(["query", str(manifest_path), "-o", "_:b1"], capsys)
    assert (code, out) == (0, BLANK_NODE_LINE + "\n")


def test_printed_blank_node_reads_back_in_the_query_endpoint(tmp_path):
    _, manifest_path = thesoz_with_line(tmp_path, BLANK_NODE_LINE)
    store, config, _ = load_manifest(manifest_path)
    app = LinkedDataApp(store, config)
    for path in ("/query?o=_:b1", "/thesoz/query?o=_:b1"):
        resp = app.handle("GET", path)
        assert (resp.status, resp.body.decode("utf-8")) == (200, BLANK_NODE_LINE + "\n")


def test_raw_carriage_return_in_a_literal_is_a_bad_line(tmp_path, capsys):
    # RDF 1.1 STRING_LITERAL_QUOTE holds no raw CR or LF; only a line's trailing CR is its end
    bad, _ = thesoz_with_line(tmp_path, '<http://e.org/a> <http://e.org/p> "x\ry" .')
    code, out, _ = run(["validate", "--report-json", str(bad)], capsys)
    assert (code, located(out)) == (1, [("NT_SYNTAX", str(bad), 3)])


@pytest.mark.parametrize("token", ['"x\ry"', '"x\ny"@de'], ids=["cr", "lf"])
def test_raw_line_break_in_a_literal_token_is_malformed(fixture_store, capsys, token):
    store, config = fixture_store
    code, _, err = run(["query", str(FIXTURES / "manifest.json"), "-o", token], capsys)
    assert code == 2 and err.startswith("error: ")
    assert LinkedDataApp(store, config).handle("GET", "/query?o=" + quote(token, safe="")).status == 400


def test_no_message_or_output_line_holds_a_term_key(tmp_path, capsys):
    """Every term in a message or output line is written as text, never as
    the tuple it is: fixtures with every crosswalk outcome, a label resource
    without literalForm, and a mapping file with foreign and dangling lines."""
    odd_mappings = tmp_path / "odd_mappings.nt"
    odd_mappings.write_text(
        "<%s> <http://e.org/notAMapping> <%s> .\n<%s> <%sexactMatch> <http://elsewhere.example/x> .\n"
        % (THESOZ_CONCEPT, STW_CONCEPT, THESOZ_CONCEPT, SKOS), encoding="utf-8")
    thesoz, manifest_path = thesoz_with_line(
        tmp_path, "<%s> <http://www.w3.org/2008/05/skos-xl#prefLabel> <http://e.org/label> ." % THESOZ_CONCEPT)
    manifest = json.loads(manifest_path.read_text())
    manifest["mappings"].append({"id": "odd", "file": str(odd_mappings)})
    manifest_path.write_text(json.dumps(manifest))
    convert = ["convert", "--source", str(thesoz), "--target", str(FIXTURES / "mini_stw.nt"),
               "--crosswalk", str(FIXTURES / "full.xwalk"), "--output", str(tmp_path / "mappings.nt")]
    merged = tmp_path / "merged.nt"
    commands = [
        convert, convert + ["--report-json"],
        ["merge", str(manifest_path), "--output", str(merged)],
        ["merge", str(manifest_path), "--output", str(merged), "--report-json"],
        ["validate", str(merged), str(thesoz)], ["validate", "--report-json", str(merged), str(thesoz)],
        ["query", str(manifest_path)], ["query", str(manifest_path), "-p", "skos:prefLabel"],
        ["query", str(manifest_path), "-s", "<http://e.org/{x}>"],
    ]
    codes, written = [], ""
    for argv in commands:
        code, out, err = run(argv, capsys)
        codes.append(code)
        written += out + err
    written += (tmp_path / "mappings.nt").read_text(encoding="utf-8") + merged.read_text(encoding="utf-8")
    # validate_skos's external graphs are reached in process only
    external = validate_skos(Graph([Triple(Iri(THESOZ_CONCEPT), ns.SKOS_EXACT_MATCH, Iri("http://e.org/x"))]), [Graph()])
    written += "".join(d.message for d in external)
    assert codes == [1, 1, 0, 0, 0, 0, 0, 0, 2]
    for code in ("XWALK_OK", "XL_NO_LITERAL_FORM", "MAPPING_GRAPH_FOREIGN_TRIPLE", "DANGLING_MAPPING_TARGET"):
        assert code in written
    assert "mapping object http://e.org/x is not present" in written
    assert "error: IRI contains forbidden character" in written
    assert not re.search(r"\([012], b['\"]", written)


def test_closed_stdout_exits_2_without_traceback():
    # the read end is closed before the command starts, so its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "skoshub.cli", "query", str(FIXTURES / "manifest.json")],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdin=subprocess.DEVNULL,
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


FIXTURE_NT = ("mini_thesoz.nt", "mini_stw.nt", "mappings.nt")


def batch_outputs(d):
    """Exit code, stdout and stderr of each batch command, and the files they
    write, on the fixture manifest and the .nt files in directory d."""
    manifest = str(d / "manifest.json")
    results = []
    for argv in (
        ["merge", manifest, "--output", str(d / "merged.nt"), "--report-json"],
        ["convert", "--source", str(d / "mini_thesoz.nt"), "--target", str(d / "mini_stw.nt"),
         "--crosswalk", str(FIXTURES / "full.xwalk"), "--output", str(d / "converted.nt"), "--report-json"],
        ["validate", "--report-json"] + [str(d / name) for name in FIXTURE_NT],
        ["query", manifest],
        ["query", manifest, "-p", "skos:prefLabel"],
    ):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            results.append((main(argv), out.getvalue(), err.getvalue()))
    return results, (d / "merged.nt").read_bytes(), (d / "converted.nt").read_bytes()


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=5))
@example(0, 0)
@settings(max_examples=25, deadline=None)
def test_outputs_do_not_depend_on_input_line_order(seed, repeats):
    """Every batch output is byte-identical when the lines of each input file
    are shuffled, with some lines repeated: a graph is its set of triples."""
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "manifest.json").write_text((FIXTURES / "manifest.json").read_text())
        for name in FIXTURE_NT:
            shutil.copy(FIXTURES / name, d / name)
        canonical = batch_outputs(d)
        for name in FIXTURE_NT:
            data = (FIXTURES / name).read_bytes()
            lines = data.splitlines()
            lines += rng.choices(lines, k=repeats)
            rng.shuffle(lines)
            shuffled = b"\n".join(lines) + b"\n"
            (d / name).write_bytes(shuffled)
            g, h = parse_ntriples(shuffled)[0], parse_ntriples(data)[0]
            assert g == h and list(g.freeze()) == list(h.freeze())
        assert batch_outputs(d) == canonical


class ClosedStdout(io.StringIO):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def write(self, s):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("collecting", [True, False], ids=["collector-on", "collector-off"])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch, collecting):
    """A batch command runs with the cyclic collector off, and main restores
    the caller's setting on exit 0, on exit 2 and when stdout is closed."""
    seen = []
    monkeypatch.setattr(cli, "load_manifest", lambda path: seen.append(gc.isenabled()) or load_manifest(path))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(fixture_manifest_json(), mappings=fixture_manifest_json()["mappings"] * 2)))
    fd = os.open(os.devnull, os.O_WRONLY)  # main points the closed stdout's fd at devnull
    was = gc.isenabled()
    try:
        for argv, stdout, code in (
            (["query", str(FIXTURES / "manifest.json")], io.StringIO(), 0),
            (["merge", str(bad), "--output", str(tmp_path / "o.nt")], io.StringIO(), 2),
            (["query", str(FIXTURES / "manifest.json")], ClosedStdout(fd), 2),
        ):
            (gc.enable if collecting else gc.disable)()
            with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                assert main(argv) == code
            assert gc.isenabled() is collecting
    finally:
        os.close(fd)
        (gc.enable if was else gc.disable)()
    assert seen == [False, False, False]


def test_cyclic_garbage_of_a_batch_command_does_not_grow_with_the_store(tmp_path):
    """The premise of running without the collector: terms, triples and graphs
    hold no reference cycles, so what one command leaves for the collector is
    the same on the fixtures and on a store many times their size."""
    extra = "".join(
        "<http://lod.gesis.org/thesoz/concept/g%d> <%s> <%s> .\n"
        "<http://lod.gesis.org/thesoz/concept/g%d> <%s> <http://lod.gesis.org/thesoz/thesoz> .\n"
        '<http://lod.gesis.org/thesoz/concept/g%d> <%s> "g %d"@de .\n'
        % (i, ns.RDF_TYPE.value, ns.SKOS_CONCEPT.value, i, ns.SKOS_IN_SCHEME.value, i, ns.SKOS_PREF_LABEL.value, i)
        for i in range(400)
    )
    big_nt = tmp_path / "big.nt"
    big_nt.write_text((FIXTURES / "mini_thesoz.nt").read_text() + extra)
    manifest = fixture_manifest_json()
    manifest["thesauri"][0]["file"] = str(big_nt)
    big = tmp_path / "big.json"
    big.write_text(json.dumps(manifest))
    small = str(FIXTURES / "manifest.json")
    assert len(load_manifest(big)[0].export_merged()) >= 10 * len(load_manifest(small)[0].export_merged())

    def garbage(manifest):
        gc.collect()
        with redirect_stderr(io.StringIO()):
            assert main(["merge", str(manifest), "--output", str(tmp_path / "merged.nt")]) == 0
        return gc.collect()

    garbage(small)  # the first run's one-time imports and caches
    assert garbage(big) == garbage(small)
