import json

import pytest
from pathlib import Path

from skoshub.crosswalk import build_scheme_view
from skoshub.multistore import load_manifest
from skoshub.ntriples import parse_ntriples

FIXTURES = Path(__file__).parent / "fixtures"

THESOZ_CONCEPT = "http://lod.gesis.org/thesoz/concept/10039068"
STW_CONCEPT = "http://zbw.eu/stw/descriptor/11971-0"
SKOS = "http://www.w3.org/2004/02/skos/core#"
LISTING1_LINE = (
    "<http://lod.gesis.org/thesoz/concept/10039068> "
    "<http://www.w3.org/2004/02/skos/core#exactMatch> "
    "<http://zbw.eu/stw/descriptor/11971-0> ."
)


def fixture_manifest_json():
    """The fixture manifest with its file paths made absolute, to edit and
    write elsewhere."""
    manifest = json.loads((FIXTURES / "manifest.json").read_text())
    for entry in manifest["thesauri"] + manifest["mappings"]:
        entry["file"] = str(FIXTURES / entry["file"])
    return manifest


def load_fixture_graph(name):
    g, errors = parse_ntriples((FIXTURES / name).read_bytes())
    assert not errors, errors
    return g


@pytest.fixture(scope="session")
def thesoz_graph():
    return load_fixture_graph("mini_thesoz.nt")


@pytest.fixture(scope="session")
def stw_graph():
    return load_fixture_graph("mini_stw.nt")


@pytest.fixture(scope="session")
def thesoz_view(thesoz_graph):
    return build_scheme_view(thesoz_graph)


@pytest.fixture(scope="session")
def stw_view(stw_graph):
    return build_scheme_view(stw_graph)


@pytest.fixture(scope="session")
def fixture_store():
    store, config, diags = load_manifest(FIXTURES / "manifest.json")
    assert not diags, diags
    return store, config
