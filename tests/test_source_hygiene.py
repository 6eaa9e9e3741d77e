"""Static checks on the package source, read with the stdlib `ast` module.

Code removed from `src/reconviz` should take its imports and its exception
classes with it: every imported name is used in its module, and every leaf
exception class in `errors.py` is raised somewhere in the package. Every input
file is decoded and parsed by the three readers in `ingest.py`, and by no
other function. The dataset loader is called only with the manifest the
config loader checked.
"""

import ast
from pathlib import Path

import pytest

import reconviz

PACKAGE = Path(reconviz.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {alias.asname or alias.name for alias in node.names}
    return names


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            yield node.annotation


def used_names(tree: ast.Module) -> set[str]:
    """Every name loaded in the module, in code or in a quoted annotation."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = parse(path)
    assert sorted(imported_names(tree) - used_names(tree)) == []


def raised_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_leaf_error_class_is_raised():
    classes = [node for node in parse(PACKAGE / "errors.py").body if isinstance(node, ast.ClassDef)]
    bases = {base.id for node in classes for base in node.bases if isinstance(base, ast.Name)}
    leaves = {node.name for node in classes} - bases
    raised = set().union(*(raised_names(parse(path)) for path in MODULES))
    assert leaves, "errors.py defines no exception class"
    assert sorted(leaves - raised) == []


# calls that open, decode or parse a file: functions by dotted name, and methods
# by name, whatever object they are called on (`io.open`, `Path.open`, ...)
FILE_READS = {"open", "json.loads", "csv.reader", "csv.DictReader"}
FILE_READ_METHODS = {"open", "read_text", "read_bytes"}
# (module, function) -> the file reads it may make
READERS = {
    ("ingest.py", "read_text"): {"open"},
    ("ingest.py", "read_json"): {"json.loads"},
    ("ingest.py", "read_table"): {"csv.reader"},
    ("charts.py", "_render_image"): {"read_bytes"},  # the PNG, read at render
}


def dotted(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def file_reads(tree: ast.Module):
    """(enclosing function or None, call) for every file read in the module."""
    def walk(node: ast.AST, function: str | None):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else function
            if isinstance(child, ast.Call):
                name = dotted(child.func)
                if name in FILE_READS:
                    yield function, name
                elif isinstance(child.func, ast.Attribute) and child.func.attr in FILE_READ_METHODS:
                    yield function, child.func.attr
            yield from walk(child, inner)
    yield from walk(tree, None)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_ingest_readers_read_files(path):
    stray = [f"{function or '<module>'}: {call}" for function, call in file_reads(parse(path))
             if call not in READERS.get((path.name, function), ())]
    assert stray == []


def test_the_file_read_finder_sees_each_kind_of_read():
    tree = ast.parse("import csv, io, json\n"
                     "def f(p):\n"
                     "    with open(p) as h:\n"
                     "        csv.reader(h); csv.DictReader(h)\n"
                     "    json.loads(p.read_text()); io.open(p); p.read_bytes()\n")
    assert sorted(file_reads(tree)) == sorted(
        ("f", call) for call in ("open", "csv.reader", "csv.DictReader", "json.loads",
                                 "read_text", "open", "read_bytes"))


def calls(tree: ast.Module, name: str):
    """The enclosing class.function of every call to a function or method `name`."""
    def walk(node: ast.AST, scope: str):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call) and (dotted(child.func) or "").split(".")[-1] == name:
                yield scope
            yield from walk(child, inner)
    yield from walk(tree, "")


def test_load_dataset_reads_only_the_checked_manifest():
    """`ingest.load_dataset` trusts its entry: a known dtype, files that exist
    and an associated table only where one is allowed, as `config.load_config`
    checked them. So its one caller is the one that holds the checked entries."""
    callers = [(path.name, scope) for path in MODULES for scope in calls(parse(path), "load_dataset")]
    assert callers == [("config.py", "RunConfig.load_datasets")]
