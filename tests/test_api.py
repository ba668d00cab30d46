"""A dead-code guard: every public name of the package has a caller.

Each public top-level function or class of src/derhamz, and each public
method of a top-level class, must be named somewhere in src/ outside its own
definition, or be exported in derhamz.__all__, or be the console-script
entry point cli.entrypoint.  Imports do not count as naming: a name that is
only imported is still unused.
"""

import ast
from pathlib import Path

import derhamz

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "derhamz"
ENTRY_POINTS = {"cli.entrypoint"}


def _definitions(tree):
    """(qualified name, bare name, node) of the public top-level functions
    and classes and of the public methods of the top-level classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item.name, item


def _references(tree):
    """(name, line) of every name and attribute read in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def unused_public_names(package: Path = PACKAGE) -> list:
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py"))}
    refs = {stem: list(_references(tree)) for stem, tree in trees.items()}
    unused = []
    for stem, tree in trees.items():
        for qualname, name, node in _definitions(tree):
            if (name in derhamz.__all__
                    or f"{stem}.{qualname}" in ENTRY_POINTS):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(ref == name and (other != stem or line not in own)
                       for other, found in refs.items()
                       for ref, line in found):
                unused.append(f"{stem}.{qualname}")
    return unused


def test_every_public_name_has_a_caller():
    assert unused_public_names() == []


def test_the_guard_sees_a_dead_function(tmp_path):
    # a copy of the package with one helper nothing calls
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "modp.py", "a") as f:
        f.write("\n\ndef dead_helper():\n    return dead_helper\n")
    assert unused_public_names(tmp_path) == ["modp.dead_helper"]
