"""The experiment scripts: each answers --help, and the bouncer derivation
reproduces the catalogue bouncer."""

import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

from filaments.rules import bouncer_rule

SCRIPTS_DIR = os.path.join(os.path.dirname(__file__), "..", "scripts")
SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")


def _load_script(name):
    path = os.path.join(SCRIPTS_DIR, f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bouncer_derivation_reproduces_the_catalogue_bouncer():
    table = _load_script("derive_bouncer_completion").complete()
    assert np.array_equal(table, bouncer_rule().lookup_table.ravel())


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(SCRIPTS_DIR) if f.endswith(".py")))
def test_script_help_exits_cleanly(name):
    path = os.pathsep.join(p for p in (SRC_DIR, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS_DIR, name), "--help"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage:")
