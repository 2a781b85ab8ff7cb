"""Checks on the package source itself, made with ``ast`` so that they
need no linter."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_module_imports_a_name_it_never_uses():
    """Every name a module imports is read somewhere in it.  __init__.py
    is left out: its imports are the package's re-exports."""
    unused = []
    for path in sorted(SRC.glob("swarmfire/*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    # "import a.b" binds "a"
                    name = alias.asname or alias.name.partition(".")[0]
                    imported[name] = node.lineno
            elif (isinstance(node, ast.ImportFrom)
                    and node.module != "__future__"):
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert not unused, sorted(unused)


def test_no_attribute_is_stored_and_never_loaded():
    """Every attribute name a module of the package stores, as in
    ``x.attr = ...`` or ``x.attr += ...``, is loaded somewhere in the
    package.  An augmented assignment counts only as a store, so a tally
    that is only ever added to fails.  Fields set through a constructor
    are beyond its reach, such as ``SensorReading.heading_to_fire``, which
    ``sensing.sample`` passes to ``SensorReading(...)`` and nothing reads."""
    stored, loaded = {}, set()
    for path in sorted(SRC.glob("swarmfire/*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.attr,
                                      f"{path.name}:{node.lineno}")
                elif isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
    write_only = [f"{where} {name}" for name, where in stored.items()
                  if name not in loaded]
    assert not write_only, sorted(write_only)
