"""Static checks of what the library defines and what its callers import.

* Every function, class and method defined under ``src/repro`` is
  referenced by name somewhere in ``src/``, ``examples/``, ``benchmarks/``
  or ``perfbench/``.  A definition that only its own unit tests call is
  code nobody runs: delete it together with those tests.  The few kept on
  purpose are listed in ``ALLOWED_UNREFERENCED``, each with its reason.
* Every ``from repro... import name`` and ``from tests.oracles... import
  name`` in ``examples/``, ``benchmarks/`` and ``perfbench/`` resolves,
  without running those scripts; no module under ``src/repro`` imports
  from ``tests``.

A reference is any ``Name`` or ``Attribute`` node with the definition's
name, so the scan is by name, not by binding: a method counts as used
when any attribute of that name is read anywhere.  Dunder methods are
exempt.  The checks only parse source files and import ``repro`` and
``tests.oracles`` modules.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "examples", "benchmarks", "perfbench")
SCRIPT_DIRS = ("examples", "benchmarks", "perfbench")

#: Definitions kept although nothing outside ``tests/`` references them,
#: keyed ``"path:Qualname"`` with the path relative to the repository root.
#: To keep another one, add it here with the reason; an entry that gains a
#: caller, or whose definition is gone, fails the allowlist check below.
#: References that only tests compare against belong in ``tests/oracles/``.
ALLOWED_UNREFERENCED = {}

#: Import roots whose names the script check resolves.
CHECKED_IMPORTS = ("repro", "tests.oracles")


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _scripts(folders):
    for folder in folders:
        yield from sorted((ROOT / folder).rglob("*.py"))


def _definitions(rel, tree):
    """``{"path:Qualname": name}`` for the module-level functions and
    classes of one module and every method or class nested in a class;
    dunder names are left out."""
    found = {}

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = prefix + node.name
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    found[f"{rel}:{qualname}"] = node.name
                if isinstance(node, ast.ClassDef):
                    visit(node.body, qualname + ".")

    visit(tree.body, "")
    return found


@pytest.fixture(scope="module")
def scan():
    """``(definitions, unreferenced)``: every ``path:Qualname`` defined
    under ``src/repro``, and the keys whose name nothing references."""
    definitions = {}
    references = set()
    for path in _scripts(CALLER_DIRS):
        tree = _parse(path)
        if path.is_relative_to(PACKAGE):
            definitions.update(_definitions(path.relative_to(ROOT).as_posix(), tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.add(node.id)
            elif isinstance(node, ast.Attribute):
                references.add(node.attr)
    unreferenced = {k for k, name in definitions.items() if name not in references}
    return definitions, unreferenced


def test_every_definition_has_a_caller(scan):
    _, unreferenced = scan
    unexpected = sorted(unreferenced - set(ALLOWED_UNREFERENCED))
    assert not unexpected, (
        f"{len(unexpected)} definitions under src/repro are referenced by "
        "nothing in src/, examples/, benchmarks/ or perfbench/; delete them "
        "with their tests, or add them to ALLOWED_UNREFERENCED with a "
        "reason:\n" + "\n".join(unexpected)
    )


def test_allowlist_entries_exist_and_stay_unreferenced(scan):
    definitions, unreferenced = scan
    missing = sorted(k for k in ALLOWED_UNREFERENCED if k not in definitions)
    referenced = sorted(
        k for k in ALLOWED_UNREFERENCED if k in definitions and k not in unreferenced
    )
    assert not missing, f"allowlisted definitions no longer exist: {missing}"
    assert not referenced, (
        f"allowlisted definitions now have a caller; drop them from "
        f"ALLOWED_UNREFERENCED: {referenced}"
    )
    assert all(reason.strip() for reason in ALLOWED_UNREFERENCED.values())


@pytest.mark.parametrize(
    "rel", [path.relative_to(ROOT).as_posix() for path in _scripts(SCRIPT_DIRS)]
)
def test_script_imports_from_repro_resolve(rel):
    broken = []
    for node in ast.walk(_parse(ROOT / rel)):
        if not isinstance(node, ast.ImportFrom) or node.level:
            continue
        if not any(
            node.module == root or node.module.startswith(root + ".")
            for root in CHECKED_IMPORTS
        ):
            continue
        try:
            module = importlib.import_module(node.module)
        except ImportError as exc:
            broken.append(f"{rel}:{node.lineno}: {exc}")
            continue
        for alias in node.names:
            if alias.name == "*" or hasattr(module, alias.name):
                continue
            # A package's submodule need not be imported by the package.
            submodule = f"{node.module}.{alias.name}"
            if hasattr(module, "__path__") and importlib.util.find_spec(submodule):
                continue
            broken.append(
                f"{rel}:{node.lineno}: from {node.module} import {alias.name}"
            )
    assert not broken, "unresolved imports:\n" + "\n".join(broken)


def test_library_imports_nothing_from_tests():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            offenders += [
                f"{path.relative_to(ROOT).as_posix()}:{node.lineno}: {module}"
                for module in modules
                if module == "tests" or module.startswith("tests.")
            ]
    assert not offenders, "src/repro imports from tests:\n" + "\n".join(offenders)
