"""The traced bench run replaces module globals of the package by name
(``PATCHES`` in bench/tracing.py); a refactor that renames or unbinds one
of them must fail here rather than in the next traced bench run.  The
other way round, an import kept only for such a patch must name one, so
that it cannot outlive the patch that needed it."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"
MARK = "# unused; bound because bench/tracing.py wraps it"


def _patches():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, name) for mod, name, *_ in module.PATCHES]


@pytest.mark.parametrize("module, name", _patches())
def test_traced_global_is_bound(module, name):
    mod = importlib.import_module(f"algseries.{module}")
    assert callable(vars(mod).get(name)), f"algseries.{module}.{name} is not a callable global"


def _marked_imports():
    """(module, name) for every import in src/algseries marked as kept for
    a bench patch."""
    out = []
    for path in sorted((ROOT / "src" / "algseries").glob("*.py")):
        for line in path.read_text().splitlines():
            code, mark, _ = line.partition(MARK)
            if mark:
                [node] = ast.parse(code.strip()).body
                out += [(path.stem, alias.asname or alias.name) for alias in node.names]
    return out


def test_marked_imports_are_patched():
    marked = _marked_imports()
    assert marked, "no import carries the bench-patch mark"
    unpatched = set(marked) - set(_patches())
    assert not unpatched, f"marked imports that bench/tracing.py does not patch: {unpatched}"
