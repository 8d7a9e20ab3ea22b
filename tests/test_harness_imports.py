"""Every legacy benchmark and script imports, and every name it imports exists.

``benchmarks/*.py`` and ``scripts/*.py`` run outside tier-1 (by hand, or in
a non-blocking CI job), so a name moved or deleted in ``src/`` would break
them silently.  This module imports each file without running it, and
resolves every ``from X import Y`` in it — the ones inside functions too —
whose module is in ``repro`` or is one of these files (``bench_guard``
imports ``bench_service`` inside its checks).
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DIRECTORIES = (ROOT / "benchmarks", ROOT / "scripts")
FILES = [path for directory in DIRECTORIES for path in sorted(directory.glob("*.py"))]


@pytest.fixture
def sibling_imports(monkeypatch, request):
    """Both directories first on ``sys.path``, and none of their modules
    cached: the benchmarks import their own ``conftest`` by that name."""
    for directory in DIRECTORIES:
        monkeypatch.syspath_prepend(str(directory))
    for path in FILES:
        monkeypatch.delitem(sys.modules, path.stem, raising=False)
    return request.param


def _imported_names(path: Path):
    """``(module, name, line)`` of every absolute ``from`` import in ``path``."""
    siblings = {sibling.stem for sibling in FILES}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            top = node.module.split(".")[0]
            if top == "repro" or top in siblings:
                for alias in node.names:
                    yield node.module, alias.name, node.lineno


@pytest.mark.parametrize(
    "sibling_imports", FILES, ids=[f"{p.parent.name}/{p.name}" for p in FILES], indirect=True
)
def test_harness_file_imports(sibling_imports):
    path = sibling_imports
    spec = importlib.util.spec_from_file_location(f"_harness_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # module level only: no __main__ block
    missing = []
    for module_name, name, line in _imported_names(path):
        imported = importlib.import_module(module_name)
        if not hasattr(imported, name):
            try:
                importlib.import_module(f"{module_name}.{name}")
            except ModuleNotFoundError:
                missing.append(f"{path.name}:{line}: {module_name}.{name}")
    assert missing == []


def test_every_harness_file_is_collected():
    assert {p.name for p in FILES} >= {"bench_service.py", "bench_guard.py", "conftest.py"}
