"""The traced bench run replaces module globals of the package by name
(``PATCHES`` in bench/tracing.py); a refactor that renames or unbinds one
of them must fail here rather than in the next traced bench run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _patches():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, name) for mod, name, *_ in module.PATCHES]


@pytest.mark.parametrize("module, name", _patches())
def test_traced_global_is_bound(module, name):
    mod = importlib.import_module(f"algseries.{module}")
    assert callable(vars(mod).get(name)), f"algseries.{module}.{name} is not a callable global"
