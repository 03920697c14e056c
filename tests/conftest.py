import pytest

from ybw.cli import corpus_dir
from ybw.construct import build_couple
from ybw.io import params_from_json, read_json_file

# the parameter files listed by the corpus manifest, in its order
CORPUS_PARAM_FILES = tuple(
    item["file"] for item in read_json_file(corpus_dir() / "expectations.json")["params"])


@pytest.fixture(scope="session")
def corpus_params():
    out = {}
    for name in CORPUS_PARAM_FILES:
        path = corpus_dir() / name
        out[name] = params_from_json(read_json_file(path), name)
    return out


@pytest.fixture(scope="session")
def corpus_couples(corpus_params):
    """Built and certified couples for every corpus parameter set."""
    out = {}
    for name, params in corpus_params.items():
        couple, layout = build_couple(params)
        out[name] = (params, couple, layout)
    return out
