"""Every module-level import in the package is used (a stdlib stand-in for pyflakes F401)."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "filaments"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Module-level imported names that ``source`` never references.

    ``from __future__`` imports, names listed in ``__all__`` and import
    statements marked ``# noqa: F401`` on any of their lines are exempt.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used and name not in exported
    ]


def test_the_package_has_modules():
    assert {p.name for p in MODULES} >= {"__init__.py", "analysis.py", "cli.py", "core.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from typing import Iterable, Optional\n"
        "from json import dumps  # noqa: F401\n"
        "from json import (  # noqa: F401 -- kept for callers\n"
        "    loads,\n"
        ")\n"
        "from csv import writer\n"
        "__all__ = ['writer']\n"
        "def f(x: Optional[int]) -> str:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["line 3: osp", "line 4: Iterable"]


def test_every_attribute_the_bench_tracer_wraps_exists(monkeypatch):
    # The tracer wraps functions at the module attributes callers reach them
    # through; some of those are imports a module keeps only for it.
    perfbench = ROOT / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    had_workloads = "workloads" in sys.modules
    spec = importlib.util.spec_from_file_location("bench_tracer", perfbench / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(tracer)
        targets = tracer.targets()
    finally:
        if not had_workloads:
            sys.modules.pop("workloads", None)
    assert targets
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in targets if not hasattr(module, attr)]
    assert missing == []
