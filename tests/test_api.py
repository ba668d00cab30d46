"""A dead-code guard: every public name of the package has a caller.

Each public top-level function or class of src/derhamz, and each public
method of a top-level class, must be named somewhere in src/ or in the
benchmark's scripts (perfbench/*.py) outside its own definition, or be
exported in derhamz.__all__, or be the console-script entry point
cli.entrypoint.  Imports do not count as naming: a name that is only
imported is still unused.

A method counts only through an attribute read (x.name), never through a
bare variable of the same name.  A method name is ambiguous when another
top-level class of src/ defines it or a builtin type has it (tuple.index);
an ambiguous method counts only as Class.name, as self.name inside its
class, or through a caller declared in DECLARED_CALLERS, which must exist
and read the name.  Every method DECLARED_CALLERS names must exist too, so
that a stale entry fails instead of passing silently.

The benchmark's tracer also wraps private functions and methods of src/ by
name; a test checks that each of them still exists, and that the cached
normal forms still return the IntMatrix members the tracer measures.

An architecture guard: the engine walks the distinct ordered weights of the
blocks (derham.ordered_weights) and never enumerates the weights beta
themselves, so derham._compositions_desc is read only by the basis, the
walk and the two functions of the closed-form oracle, which enumerates its
blocks on its own.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

import derhamz
from derhamz.intlinalg import IntMatrix, _hnf_cached, _snf_cached, hnf, snf

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "derhamz"
READERS = ROOT / "perfbench"
ENTRY_POINTS = {"cli.entrypoint"}
BUILTIN_TYPES = (object, int, str, bytes, tuple, list, dict, set, frozenset)

# ambiguous methods called on instances: the function that calls each
DECLARED_CALLERS = {
    "bockstein.SpectralPage.is_zero": "cli.cmd_pages",
    "intlinalg.IntMatrix.is_zero": "abgroups.homology_at",
}


def _definitions(tree):
    """(qualified name, bare name, node, class node or None) of the public
    top-level functions and classes and of the public methods of the
    top-level classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.name, node, None
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item.name, item, node


def _references(tree):
    """(name, line, receiver) of every name and attribute read in the
    module; the receiver of x.name is "x" for a bare name x, else None,
    and a bare name has the receiver False."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            value = node.value
            yield (node.attr, node.lineno,
                   value.id if isinstance(value, ast.Name) else None)


def _reads(tree, function: str, name: str) -> bool:
    """Whether the top-level function reads the attribute name."""
    return any(isinstance(node, ast.FunctionDef) and node.name == function
               and any(isinstance(sub, ast.Attribute) and sub.attr == name
                       for sub in ast.walk(node))
               for node in tree.body)


def unused_public_names(package: Path = PACKAGE,
                        readers: Path = READERS) -> list:
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py"))}
    refs = {stem: list(_references(tree)) for stem, tree in trees.items()}
    refs.update({f"{readers.name}/{path.stem}":
                 list(_references(ast.parse(path.read_text())))
                 for path in sorted(readers.glob("*.py"))})
    defs = {stem: list(_definitions(tree)) for stem, tree in trees.items()}
    method_owners = {}
    for found in defs.values():
        for _, name, _, cls in found:
            if cls is not None:
                method_owners.setdefault(name, set()).add(cls.name)

    def counts(stem, name, own, cls, other, ref, line, receiver):
        if ref != name or (other == stem and line in own):
            return False
        if cls is None:
            return True
        if receiver is False:
            return False
        if (len(method_owners[name]) == 1
                and not any(hasattr(t, name) for t in BUILTIN_TYPES)):
            return True
        return receiver == cls.name or (
            receiver == "self" and other == stem
            and cls.lineno <= line <= cls.end_lineno)

    unused = []
    for stem, found in defs.items():
        for qualname, name, node, cls in found:
            if ((cls is None and name in derhamz.__all__)
                    or f"{stem}.{qualname}" in ENTRY_POINTS):
                continue
            caller = DECLARED_CALLERS.get(f"{stem}.{qualname}")
            if caller is not None:
                module, function = caller.split(".")
                if module in trees and _reads(trees[module], function, name):
                    continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(counts(stem, name, own, cls, other, *ref)
                       for other, found_refs in refs.items()
                       for ref in found_refs):
                unused.append(f"{stem}.{qualname}")
    return unused


def stale_declared_callers(package: Path = PACKAGE,
                           declared: dict = DECLARED_CALLERS) -> list:
    """The declared methods that no longer exist in the package."""
    defined = {f"{path.stem}.{qualname}"
               for path in sorted(package.glob("*.py"))
               for qualname, *_ in _definitions(ast.parse(path.read_text()))}
    return [method for method in declared if method not in defined]


def test_every_public_name_has_a_caller():
    assert unused_public_names() == []


def test_every_declared_caller_names_a_live_method():
    assert stale_declared_callers() == []
    assert stale_declared_callers(declared={
        "cohomology.TransportedDegree.express": "cohomology.cartier_iso",
        **DECLARED_CALLERS}) == ["cohomology.TransportedDegree.express"]


def test_the_guard_sees_a_dead_function(tmp_path):
    # a copy of the package with one helper nothing calls, and a dead
    # method whose name a live method of another class shares
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "modp.py", "a") as f:
        f.write("\n\ndef dead_helper():\n    return dead_helper\n")
    abgroups = tmp_path / "abgroups.py"
    lines = abgroups.read_text().splitlines(keepends=True)
    homomorphism = next(node for node in ast.parse("".join(lines)).body
                        if isinstance(node, ast.ClassDef)
                        and node.name == "Homomorphism")
    lines.insert(homomorphism.end_lineno,
                 "\n    @classmethod\n    def identity(cls, G):\n"
                 "        return cls(G, G, IntMatrix.identity(G.ngens))\n")
    abgroups.write_text("".join(lines))
    assert unused_public_names(tmp_path) == ["abgroups.Homomorphism.identity",
                                             "modp.dead_helper"]


def test_the_benchmark_trace_targets_exist():
    # perfbench/tracer.py wraps these by name; a rename in src/ would
    # otherwise break `perfbench/run.py --trace 1` without a failing test
    spec = importlib.util.spec_from_file_location("tracer",
                                                  READERS / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, attr in tracer.EXTRA_TARGETS:
        module = importlib.import_module(f"derhamz.{layer}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert inspect.isfunction(
                vars(getattr(module, cls_name)).get(meth)), (layer, attr)
        else:
            assert hasattr(module, attr), (layer, attr)
    # the tracer's max_entry_bits reads the IntMatrix members of the cached
    # normal forms' outputs; the forms themselves must stay among them
    M = IntMatrix([[4, 6], [2, 9]])
    for cached, form in ((_hnf_cached, hnf), (_snf_cached, snf)):
        members = [X for X in cached(M) if isinstance(X, IntMatrix)]
        assert form(M)[0] in members and len(members) >= 2, cached


# the only readers of derham._compositions_desc in src/
COMPOSITION_READERS = ["bockstein._block_oracle_failure",
                       "bockstein.closed_form_page", "derham.basis",
                       "derham.ordered_weights"]


def composition_readers(package: Path = PACKAGE) -> list:
    """The top-level functions and methods of the package that read the
    name _compositions_desc, as module.function or module.Class.method;
    the rest of a class body counts as module.Class and code outside any
    function or class as module.<module>.  Imports and the definition do
    not read it."""
    def reads(node) -> bool:
        return any(isinstance(sub, ast.Name) and sub.id == "_compositions_desc"
                   or isinstance(sub, ast.Attribute)
                   and sub.attr == "_compositions_desc"
                   for sub in ast.walk(node))

    readers = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                scopes = [(node.name, node)]
            elif isinstance(node, ast.ClassDef):
                scopes = [(f"{node.name}.{item.name}"
                           if isinstance(item, ast.FunctionDef)
                           else node.name, item) for item in node.body]
            else:
                scopes = [("<module>", node)]
            readers |= {f"{path.stem}.{name}" for name, scope in scopes
                        if reads(scope)}
    return sorted(readers)


def test_only_the_basis_the_walk_and_the_oracle_enumerate_weights():
    assert composition_readers() == COMPOSITION_READERS


def test_the_guard_sees_a_new_enumeration(tmp_path):
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "cohomology.py", "a") as f:
        f.write("\n\ndef blocks(r, n):\n"
                "    return list(derham._compositions_desc(n, r))\n")
    assert composition_readers(tmp_path) == sorted(
        COMPOSITION_READERS + ["cohomology.blocks"])
