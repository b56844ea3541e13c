"""The benchmark's traced run wraps randcol functions and methods by
name (perfbench/tracing.py). A renamed or moved name would not fail that
run; its metrics would just read 0. So every name it wraps must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist(tracing):
    assert tracing.FUNCTIONS
    for module, attr, _span in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_traced_methods_exist(tracing):
    assert tracing.METHODS
    for module, cls_name, attr, _span in tracing.METHODS:
        cls = getattr(importlib.import_module(module), cls_name, None)
        assert isinstance(cls, type), f"{module}.{cls_name}"
        assert callable(vars(cls).get(attr)), f"{module}.{cls_name}.{attr}"


def test_request_bindings_exist(tracing):
    # A sample or trial request starts where these modules call the name,
    # and install() wraps a binding only if it is the traced function.
    home = {attr: module for module, attr, _span in tracing.FUNCTIONS}
    for module, attr in tracing._REQUEST_BINDINGS:
        bound = getattr(importlib.import_module(module), attr, None)
        assert bound is getattr(importlib.import_module(home[attr]), attr), f"{module}.{attr}"
