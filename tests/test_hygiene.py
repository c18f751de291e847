"""Source hygiene: every module in the package uses each name it imports,
and imports only from the package itself and the standard library."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pvb3"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return ["line %d: %s" % (line, name)
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_the_checker_sees_unused_and_used_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from json import dumps, loads as parse\n"
              "from re import compile\n"
              "def f(x: parse) -> None:\n"
              "    return os.getcwd()\n")
    assert unused_imports(source) == ["line 3: dumps", "line 4: compile"]


def third_party_imports(source: str) -> list[str]:
    """Absolute imports of top-level modules outside the standard library."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        out += ["line %d: %s" % (node.lineno, name) for name in names
                if name.split(".")[0] not in sys.stdlib_module_names]
    return out


def test_the_checker_sees_third_party_imports():
    source = ("from __future__ import annotations\n"
              "import os.path, numpy as np\n"
              "from . import word\n"
              "from .intlinalg import rank\n"
              "from sympy.matrices import Matrix\n"
              "from collections import Counter\n")
    assert third_party_imports(source) == ["line 2: numpy", "line 5: sympy.matrices"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_the_package_and_the_standard_library(path):
    assert third_party_imports(path.read_text()) == []


def test_pyproject_declares_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []


def test_package_has_modules():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
