"""Static checks on the package source, with the standard-library ast only.

An import that nothing in its module uses fails, unless its line carries
`# noqa: F401` or its name is listed in the module's `__all__`. So does a
private module-level function or class that no module of the package
references. So does a name the package's `__all__` lists but never binds,
or a name `__init__.py` imports but leaves out of `__all__`.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "monores"


def _used_names(tree):
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= set(ast.literal_eval(node.value))
    return names


def unused_imports(source):
    """(line, name) of every import of source that the module never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used_names(tree)
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            noqa = {lines[node.lineno - 1], lines[alias.lineno - 1]}
            if name not in used and not any("noqa: F401" in line for line in noqa):
                found.append((alias.lineno, name))
    return found


def unreferenced_private_definitions(sources):
    """(module, name) of every private module-level function or class that
    no source in sources (module name -> text) references."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = set().union(*(_used_names(tree) for tree in trees.values()))
    return [
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
        and node.name not in used
    ]


def export_mismatches(source):
    """(names `__all__` lists that the module never binds, names the module
    imports that `__all__` leaves out), each sorted."""
    tree = ast.parse(source)
    imported, bound, listed = set(), set(), set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    listed = set(ast.literal_eval(node.value))
                elif isinstance(target, ast.Name):
                    bound.add(target.id)
    return sorted(listed - bound - imported), sorted(imported - listed)


def package_sources():
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_package_has_no_unused_imports():
    found = {
        module: unused
        for module, text in package_sources().items()
        if (unused := unused_imports(text))
    }
    assert found == {}


def test_package_has_no_unreferenced_private_definitions():
    assert unreferenced_private_definitions(package_sources()) == []


def test_package_exports_are_bound_and_complete():
    import monores

    assert export_mismatches(package_sources()["__init__"]) == ([], [])
    namespace = {}
    exec("from monores import *", namespace)
    assert set(monores.__all__) <= set(namespace)


def test_export_check_flags_stale_and_missing_names():
    source = (
        "from __future__ import annotations\n"
        "from .a import kept, dropped\n"
        "import json\n"
        "LIMIT = 3\n"
        "def helper():\n"
        "    return kept\n"
        "__all__ = ['LIMIT', 'STALE', 'helper', 'kept']\n"
    )
    assert export_mismatches(source) == (["STALE"], ["dropped", "json"])
    # A stale entry left in the real package's list is caught too.
    stale = package_sources()["__init__"].replace(
        "__all__ = [\n", '__all__ = [\n    "SUBSET_SEARCH_CAP",\n'
    )
    assert export_mismatches(stale) == (["SUBSET_SEARCH_CAP"], [])


def test_checks_flag_what_they_are_for():
    source = (
        "from os import path, sep\n"
        "from sys import (\n"
        "    argv,  # noqa: F401\n"
        "    exit,\n"
        ")\n"
        "import json\n"
        "__all__ = ['exit']\n"
        "def _helper():\n"
        "    return sep\n"
        "def _used():\n"
        "    return 1\n"
        "class _Box:\n"
        "    pass\n"
        "def __getattr__(name):\n"
        "    return _used()\n"
    )
    assert unused_imports(source) == [(1, "path"), (6, "json")]
    assert unreferenced_private_definitions({"m": source}) == [
        ("m", "_helper"),
        ("m", "_Box"),
    ]
    # A reference from another module counts.
    other = "from .m import _Box\nx = _Box()\n"
    assert unreferenced_private_definitions({"m": source, "n": other}) == [
        ("m", "_helper")
    ]
