"""Command-line entry point: validate, convert, merge, serve, query.

Exit codes: 0 = success with no Error diagnostics; 1 = completed but
Error diagnostics were produced; 2 = could not run at all (I/O, config,
bad invocation).
"""

from __future__ import annotations

import argparse
import gc
import logging
import os
import sys
from pathlib import Path

from . import namespaces as ns
from .crosswalk import (
    AmbiguityMode,
    ConversionPolicy,
    NonPreferredMode,
    build_scheme_view,
    convert_crosswalk,
    edges_to_graph,
)
from .multistore import StoreError, load_manifest
from .ntriples import format_triple, load_ntriples, parse_pattern, serialize_ntriples
from .skosmodel import (
    Severity,
    diagnostics_json,
    diagnostics_tsv,
    resolve_xl_labels,
    validate_skos,
)
from .terms import Iri, TermError

EXIT_OK = 0
EXIT_DIAGNOSTIC_ERRORS = 1
EXIT_FAILURE = 2


def _finish(diags, json_mode: bool = False, out=None) -> int:
    """Print the diagnostics report; exit code 1 if it holds an Error, else 0."""
    out = out or sys.stdout
    if json_mode:
        out.write(diagnostics_json(diags) + "\n")
    else:
        out.write(diagnostics_tsv(diags))
    if any(d.severity is Severity.ERROR for d in diags):
        return EXIT_DIAGNOSTIC_ERRORS
    return EXIT_OK


def _load_folded(path):
    """Load one N-Triples file with its SKOS-XL labels folded into plain SKOS."""
    g, diags = load_ntriples(path)
    g, xl_diags = resolve_xl_labels(g)
    return g, diags + xl_diags


def cmd_validate(args) -> int:
    diags = []
    try:
        for path in args.files:
            g, load_diags = _load_folded(path)
            diags.extend(load_diags)
            diags.extend(validate_skos(g))
    except OSError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_FAILURE
    return _finish(diags, args.report_json)


def cmd_convert(args) -> int:
    try:
        Iri(args.ext_namespace)  # a TermError is a ValueError: exit 2 before any output
        source, diags = _load_folded(args.source)
        target, target_diags = _load_folded(args.target)
        diags.extend(target_diags)
        source_view = build_scheme_view(source)
        target_view = build_scheme_view(target)
        crosswalk_data = Path(args.crosswalk).read_bytes()
    except (OSError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_FAILURE
    policy = ConversionPolicy(
        nonpreferred_mode=NonPreferredMode(args.nonpreferred),
        ambiguity_mode=AmbiguityMode(args.ambiguity),
        emit_inverses=not args.no_inverses,
    )
    edges, conv_diags = convert_crosswalk(
        crosswalk_data,
        source_view,
        target_view,
        policy,
        ext_namespace=args.ext_namespace,
        filename=str(args.crosswalk),
    )
    diags.extend(conv_diags)
    mapping_graph = edges_to_graph(edges, ext_namespace=args.ext_namespace)
    try:
        Path(args.output).write_bytes(serialize_ntriples(mapping_graph))
    except OSError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_FAILURE
    return _finish(diags, args.report_json)


def cmd_merge(args) -> int:
    try:
        store, _, diags = load_manifest(args.manifest)
        Path(args.output).write_bytes(serialize_ntriples(store.match()))
    except (StoreError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_FAILURE
    return _finish(diags, args.report_json, out=sys.stderr)


def cmd_serve(args) -> int:
    # the HTTP stack loads only here, so the batch commands start without it
    from .ldservice import LinkedDataApp, parse_listen, serve

    try:
        store, config, diags = load_manifest(args.manifest)
        listen = args.listen or os.environ.get("SKOSHUB_LISTEN") or config.listen
        address = parse_listen(listen)
    except ValueError as e:  # StoreError included
        print("error: %s" % e, file=sys.stderr)
        return EXIT_FAILURE
    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(name)s %(message)s")
    sys.stderr.write(diagnostics_tsv(diags))
    app = LinkedDataApp(store, config)
    # the loaded store outlives every request: no collection traverses it
    gc.freeze()
    gc.enable()
    try:
        serve(app, address)
    except OSError as e:
        print("error: cannot bind %s: %s" % (listen, e), file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def cmd_query(args) -> int:
    try:
        store, _, diags = load_manifest(args.manifest)
        s, p, o = parse_pattern(args.subject, args.predicate, args.object, store.combined_prefix_map())
    except (StoreError, TermError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_FAILURE
    for t in store.match(s=s, p=p, o=o):
        sys.stdout.write(format_triple(t) + "\n")
    return _finish(diags, out=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skoshub",
        description="Convert legacy thesaurus crosswalks to SKOS mappings, "
        "merge multiple thesauri, and publish them as linked data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate SKOS N-Triples files")
    p.add_argument("files", nargs="+", help="N-Triples files to check")
    p.add_argument("--report-json", action="store_true", help="emit the report as a JSON array")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("convert", help="convert a legacy crosswalk to SKOS mapping triples")
    p.add_argument("--source", required=True, help="source thesaurus N-Triples file")
    p.add_argument("--target", required=True, help="target thesaurus N-Triples file")
    p.add_argument("--crosswalk", required=True, help="crosswalk file (tab-separated)")
    p.add_argument("--output", required=True, help="output N-Triples path for the mapping triples")
    p.add_argument(
        "--nonpreferred",
        choices=[m.value for m in NonPreferredMode],
        default=NonPreferredMode.STRICT.value,
        help="handling of terms that resolve only to alt/hidden labels",
    )
    p.add_argument(
        "--ambiguity",
        choices=[m.value for m in AmbiguityMode],
        default=AmbiguityMode.FAIL.value,
        help="handling of terms matching multiple concepts",
    )
    p.add_argument("--no-inverses", action="store_true", help="do not emit inverse mapping triples")
    p.add_argument(
        "--ext-namespace",
        default=ns.DEFAULT_EXT_NS,
        help="extension vocabulary namespace for combination mappings",
    )
    p.add_argument("--report-json", action="store_true", help="emit the report as a JSON array")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("merge", help="merge all thesauri and mappings from a manifest")
    p.add_argument("manifest", help="store manifest JSON file")
    p.add_argument("--output", required=True, help="output N-Triples path")
    p.add_argument("--report-json", action="store_true")
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("serve", help="serve the manifest's store as linked data")
    p.add_argument("manifest", help="store manifest JSON file")
    p.add_argument("--listen", help="host:port (overrides manifest and SKOSHUB_LISTEN)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("query", help="single-triple-pattern query over the merged store")
    p.add_argument("manifest", help="store manifest JSON file")
    p.add_argument("--subject", "-s", help="subject IRI or CURIE")
    p.add_argument("--predicate", "-p", help="predicate IRI or CURIE")
    p.add_argument("--object", "-o", help="object IRI, CURIE, or quoted literal")
    p.set_defaults(func=cmd_query)
    return parser


def main(argv=None) -> int:
    # Terms and triples hold no reference cycles, so a collection would only
    # traverse the store. serve turns the collector back on (cmd_serve).
    collecting = gc.isenabled()
    gc.disable()
    try:
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as e:
            # argparse exits 2 on bad invocation, matching our contract
            return int(e.code or 0)
        try:
            code = args.func(args)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed stdout: point it at devnull, so the flush at exit cannot fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            print("error: stdout closed before all output was written", file=sys.stderr)
            return EXIT_FAILURE
        return code
    finally:
        (gc.enable if collecting else gc.disable)()


if __name__ == "__main__":
    sys.exit(main())
