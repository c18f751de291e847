"""Source hygiene: every module in the package uses each name it imports,
imports only from the package itself and the standard library, and
defines no function, class or method that nothing outside the tests uses."""

import ast
import sys
from collections import Counter
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


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules imported absolutely, at any depth."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_the_checker_sees_every_absolute_import():
    source = ("import os.path, json as j\n"
              "from . import word\n"
              "def f():\n"
              "    from dataclasses import dataclass\n")
    assert imported_modules(source) == {"os", "json", "dataclasses"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_does_not_import_dataclasses(path):
    # dataclasses loads inspect and ast, and execs each class's methods:
    # value types derive from intlinalg.Value instead
    assert "dataclasses" not in imported_modules(path.read_text())


def test_pyproject_declares_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []


def test_package_has_modules():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []



def function_imports(source: str) -> list[str]:
    """Import statements inside a function, at any depth."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out += ["line %d" % inner.lineno for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))]
    return sorted(set(out), key=lambda line: int(line.split()[1]))


def test_the_checker_sees_imports_inside_functions():
    source = ("import os\n"
              "def f():\n"
              "    from . import word\n"
              "    def g():\n"
              "        import json\n"
              "    return g\n"
              "class K:\n"
              "    def m(self):\n"
              "        from .nq import quotient_tower\n")
    assert function_imports(source) == ["line 3", "line 5", "line 9"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_only_the_cli_imports_inside_functions(path):
    # every engine imports at its top; only the CLI defers its engines
    assert function_imports(path.read_text()) == []


def test_nq_imports_nothing_from_fpres():
    # fpres imports nq, so the reverse import would be a cycle
    tree = ast.parse((PACKAGE / "nq.py").read_text())
    assert "fpres" not in {part for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                           for part in [*(node.module or "").split("."),
                                        *(alias.name for alias in node.names)]}


def definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(qualified name, node) of every top-level function and class and of
    every non-dunder method of a top-level class."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            out += [("%s.%s" % (node.name, item.name), item) for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))]
    return out


def references(tree: ast.AST, dotted_strings: bool = False,
               classes: frozenset = frozenset()) -> Counter:
    """How often each name is mentioned under ``tree``.  A ``Name`` or an
    imported name counts under its spelling; an attribute ``x.name``, and
    with ``dotted_strings`` a dotted part of a string constant, counts
    under its spelling and under ``.name``, the key a method is called by,
    except that ``Cls.name`` for one of ``classes`` counts only under
    ``Cls.name``, the key of that class's method alone."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id in classes:
                out["%s.%s" % (node.value.id, node.attr)] += 1
            else:
                out.update((node.attr, "." + node.attr))
        elif isinstance(node, ast.alias):
            out[node.name.split(".")[-1]] += 1
        elif dotted_strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            for part in node.value.split("."):
                out.update((part, "." + part))
    return out


def uncalled(package: dict[str, str], others: dict[str, str],
             string_sources: dict[str, str]) -> list[str]:
    """Definitions in ``package`` (module name -> source) that nothing
    refers to outside their own definition; ``others`` refer by names and
    ``string_sources`` also by their dotted strings.  A method counts as
    referred to only as an attribute or a dotted string, never through a
    bare name of the same spelling, and through a package class's name
    only for that class.  A method reached only through instances still
    counts as used by any instance attribute of its name."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    classes = frozenset(node.name for tree in trees.values() for node in tree.body
                        if isinstance(node, ast.ClassDef))
    seen = Counter()
    for tree in [*trees.values(), *map(ast.parse, others.values())]:
        seen += references(tree, classes=classes)
    for source in string_sources.values():
        seen += references(ast.parse(source), dotted_strings=True)
    out = []
    for module, tree in sorted(trees.items()):
        for qual, node in definitions(tree):
            keys = ("." + node.name, qual) if "." in qual else (node.name,)
            own = references(node, classes=classes)
            if sum(seen[key] for key in keys) <= sum(own[key] for key in keys):
                out.append("%s.%s" % (module, qual))
    return out


def test_the_checker_sees_names_without_a_caller():
    package = {"m": ("class K:\n"
                     "    def used(self): return self.helper()\n"
                     "    def helper(self): return 1\n"
                     "    def lonely(self): return 2\n"
                     "    def traced(self): return 3\n"
                     "    def shadowed(self): return 4\n"
                     "    def __len__(self): return 0\n"
                     "def recursive(n): return recursive(n - 1)\n"
                     "def caller(): return callee()\n"
                     "def callee(): pass\n"
                     "def imported(): pass\n")}
    # a bare name spelt like a method does not call it
    others = {"client": "from m import K, imported\nshadowed = K().used()\n"}
    tracing = {"tracing": 'TRACED = (("m", "K.traced"),)\n'}
    assert uncalled(package, others, tracing) == ["m.K.lonely", "m.K.shadowed",
                                                  "m.recursive", "m.caller"]
    assert uncalled(package, {}, {}) == ["m.K", "m.K.used", "m.K.lonely", "m.K.traced",
                                         "m.K.shadowed", "m.recursive", "m.caller",
                                         "m.imported"]


def test_the_checker_tells_apart_methods_of_classes_named_alike():
    # a method named after another class's method is not called through
    # that class's name; an instance attribute still counts for both
    package = {"m": ("class A:\n"
                     "    def identity(): return 1\n"
                     "    def inv(self): return 2\n"
                     "class B:\n"
                     "    def identity(): return 3\n"
                     "    def inv(self): return 4\n")}
    client = "from m import A, B\nB.identity()\nA().inv()\n"
    assert uncalled(package, {"client": client}, {}) == ["m.A.identity"]
    assert uncalled(package, {"client": client + "B().identity()\n"}, {}) == []


def test_every_package_name_has_a_caller():
    package = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    bench = {p.stem: p.read_text() for p in (ROOT / "bench").glob("*.py")}
    tracing = {"tracing": bench.pop("tracing")}
    assert uncalled(package, bench, tracing) == []


def attribute_hooks(source: str) -> list[str]:
    """Classes, at any depth, that define or assign ``__setattr__`` or ``__delattr__``."""
    hooks = {"__setattr__", "__delattr__"}
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = {item.name}
            elif isinstance(item, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            else:
                continue
            out += ["%s.%s" % (node.name, name) for name in sorted(names & hooks)]
    return out


def test_the_checker_sees_attribute_hooks():
    source = ("class A:\n"
              "    def __setattr__(self, name, value): pass\n"
              "class B:\n"
              "    __setattr__, __delattr__, __hash__ = object.__setattr__, None, None\n"
              "class C:\n"
              "    __delattr__: object = None\n"
              "    def __init__(self):\n"
              "        object.__setattr__(self, 'x', 1)\n"
              "def f():\n"
              "    class D:\n"
              "        __setattr__ = object.__setattr__\n")
    assert attribute_hooks(source) == ["A.__setattr__", "B.__delattr__", "B.__setattr__",
                                       "C.__delattr__", "D.__setattr__"]


def test_only_value_hooks_attribute_assignment():
    # every value type is immutable through intlinalg.Value alone
    found = {"%s: %s" % (p.name, hook) for p in PACKAGE.glob("*.py")
             for hook in attribute_hooks(p.read_text())}
    assert found == {"intlinalg.py: Value.__setattr__", "intlinalg.py: Value.__delattr__"}


def object_new_calls(source: str) -> list[str]:
    """Lines that name ``object.__new__``, the way round a class's ``__init__``."""
    return ["line %d" % line for line in sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "__new__"
        and isinstance(node.value, ast.Name) and node.value.id == "object")]


def test_the_checker_sees_object_new():
    source = ("class K:\n"
              "    @classmethod\n"
              "    def make(cls):\n"
              "        out = object.__new__(cls)\n"
              "        object.__setattr__(out, 'x', 1)\n"
              "        return out\n"
              "new = object.__new__\n"
              "k = K.__new__(K)\n")
    assert object_new_calls(source) == ["line 4", "line 7"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_value_is_made_through_its_init(path):
    # a checking constructor cannot be skipped
    assert object_new_calls(path.read_text()) == []
