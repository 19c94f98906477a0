"""Every module-level import in the package is used (a stdlib stand-in for pyflakes F401),
and so is every module-level private definition and every method and property."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "filaments"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str, wrapped: frozenset[str] = frozenset()) -> list[str]:
    """Module-level imported names that ``source`` never references.

    ``from __future__`` imports and names listed in ``__all__`` are exempt.
    An import statement marked ``# noqa: F401`` on any of its lines exempts
    only its names in ``wrapped``, the attributes the bench tracer wraps at
    this module, so a name kept for a wrapper that is gone is reported.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            noqa = any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if not (noqa and name in wrapped):
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


def bench_tracer_targets(monkeypatch) -> list:
    """``perfbench/tracer.py``'s ``targets()``: (module, attribute, span, counter) per wrapped call."""
    perfbench = ROOT / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    had_workloads = "workloads" in sys.modules
    spec = importlib.util.spec_from_file_location("bench_tracer", perfbench / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(tracer)
        return tracer.targets()
    finally:
        if not had_workloads:
            sys.modules.pop("workloads", None)


@pytest.fixture(scope="module")
def wrapped_by_tracer() -> set[tuple[str, str]]:
    """(module name, attribute) of every function the bench tracer wraps."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        return {(module.__name__, attr) for module, attr, _, _ in bench_tracer_targets(monkeypatch)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path, wrapped_by_tracer):
    wrapped = frozenset(attr for module, attr in wrapped_by_tracer if module == f"filaments.{path.stem}")
    assert unused_imports(path.read_text(), wrapped) == []


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
    assert unused_imports(source, frozenset({"dumps", "loads"})) == ["line 3: osp", "line 4: Iterable"]


def test_noqa_exempts_only_the_names_the_tracer_wraps():
    source = (
        "from .engine import _Kernel, step_array, all_states_matrix  # noqa: F401\n"
        "from .engine import (  # noqa: F401 -- the bench tracer wraps it\n"
        "    successor_array,\n"
        ")\n"
        "kernel = _Kernel\n"
    )
    assert unused_imports(source, frozenset({"step_array"})) == ["line 1: all_states_matrix", "line 2: successor_array"]
    assert unused_imports(source, frozenset({"step_array", "all_states_matrix", "successor_array"})) == []
    assert unused_imports(source) == ["line 1: step_array", "line 1: all_states_matrix", "line 2: successor_array"]


def unused_private_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` functions, classes and assignments that no source references.

    ``sources`` maps module names to source text. A name counts as referenced
    when some source reads it, reads it as an attribute or imports it by name;
    its own definition does not count. Dunder names are exempt.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
            else:
                continue
            unused += [
                f"{module} line {node.lineno}: {name}"
                for name in names
                if name.startswith("_") and not name.startswith("__") and name not in used
            ]
    return unused


def test_module_private_definitions_are_used():
    assert unused_private_definitions({path.name: path.read_text() for path in MODULES}) == []


def test_the_check_finds_an_unused_private_definition():
    sources = {
        "a.py": (
            "import numpy as np\n"
            "__all__ = ['f']\n"
            "_LIMIT = 3\n"
            "_A, (_B, _C) = 1, (2, 3)\n"
            "_D: int = 4\n"
            "def _helper(x):\n"
            "    return x + _LIMIT\n"
            "class _Spare:\n"
            "    pass\n"
            "def f():\n"
            "    return np.zeros(_A) + _D\n"
        ),
        "b.py": "from .a import _C\nfrom . import a\n_E = a._B\n_used_by_c = 1\n",
        "c.py": "from .b import _used_by_c as alias\n",
    }
    assert unused_private_definitions(sources) == [
        "a.py line 6: _helper",
        "a.py line 8: _Spare",
        "b.py line 3: _E",
    ]


def attributes_read(sources) -> set[str]:
    """Every name some source reads as an attribute (``x.name`` in a load)."""
    return {
        node.attr
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def unread_members(module, read: set[str]) -> list[str]:
    """Methods and properties of ``module``'s classes whose names are not in ``read``.

    Dunders are exempt, and so is a member that overrides one of a base class
    (``cli._Parser.error``): the base class's own code reads it.
    """
    unread = []
    for node in ast.parse(inspect.getsource(module)).body:
        if not isinstance(node, ast.ClassDef):
            continue
        bases = getattr(module, node.name).__mro__[1:]
        for member in node.body:
            if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = member.name
            if name.startswith("__") and name.endswith("__") or name in read:
                continue
            if not any(name in vars(base) for base in bases):
                unread.append(f"{module.__name__}.{node.name}.{name} line {member.lineno}")
    return unread


def test_every_method_and_property_is_read():
    readers = [p.read_text() for d in ("src", "tests", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py")]
    read = attributes_read(readers)
    modules = [importlib.import_module(f"filaments.{p.stem}".removesuffix(".__init__")) for p in MODULES]
    assert [found for module in modules for found in unread_members(module, read)] == []


def test_the_check_finds_an_unread_method(tmp_path):
    path = tmp_path / "members.py"
    path.write_text(
        "import argparse\n"
        "from functools import cached_property\n"
        "class Parser(argparse.ArgumentParser):\n"
        "    def error(self, message):\n"
        "        raise ValueError(message)\n"
        "class Box:\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "    def used(self):\n"
        "        return self.helper()\n"
        "    def helper(self):\n"
        "        return 1\n"
        "    @property\n"
        "    def spare(self):\n"
        "        return 2\n"
        "    @cached_property\n"
        "    def table(self):\n"
        "        return 3\n"
        "    @staticmethod\n"
        "    def stored(x):\n"
        "        return x\n"
    )
    spec = importlib.util.spec_from_file_location("members", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # Only a load reads: assigning ``b.stored`` does not.
    read = attributes_read([path.read_text(), "b.used()\nprint(b.table)\nb.stored = None\n"])
    assert unread_members(module, read) == ["members.Box.spare line 14", "members.Box.stored line 20"]


def test_every_attribute_the_bench_tracer_wraps_exists(monkeypatch):
    # The tracer wraps functions at the module attributes callers reach them
    # through; some of those are imports a module keeps only for it.
    targets = bench_tracer_targets(monkeypatch)
    assert targets
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in targets if not hasattr(module, attr)]
    assert missing == []
