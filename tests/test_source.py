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


# Dataclass fields that nothing reads yet, each with the reason it stays.
UNREAD_FIELDS = {
    # ROADMAP item 1: its removal needs a benchmark change, because the
    # tracer's REQUIRED set needs the nearest_front_point call it makes.
    "SensorReading.heading_to_fire",
}


def test_every_dataclass_field_is_loaded():
    """Every field declared on a dataclass of the package is loaded as an
    attribute somewhere in the package, so that a field set only through a
    constructor cannot go unread either.  config.py's dataclasses are read
    through fields(), and RunResult by the CLI, perfbench and the tests, so
    they are left out.  Every field in UNREAD_FIELDS must still be unread,
    so the list cannot outlive the field it names."""
    declared, loaded = {}, set()
    for path in sorted(SRC.glob("swarmfire/*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                loaded.add(node.attr)
            elif (isinstance(node, ast.ClassDef)
                    and path.name != "config.py" and node.name != "RunResult"
                    and any(_names_dataclass(d) for d in node.decorator_list)):
                for stmt in node.body:
                    if (isinstance(stmt, ast.AnnAssign)
                            and isinstance(stmt.target, ast.Name)):
                        declared[f"{node.name}.{stmt.target.id}"] = \
                            f"{path.name}:{stmt.lineno}"
    assert declared
    unread = {name for name in declared
              if name.partition(".")[2] not in loaded}
    assert unread == UNREAD_FIELDS, sorted(
        f"{declared.get(name, '?')} {name}" for name in unread ^ UNREAD_FIELDS)


def _names_dataclass(decorator) -> bool:
    """``@dataclass`` or ``@dataclass(...)``."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return isinstance(decorator, ast.Name) and decorator.id == "dataclass"
