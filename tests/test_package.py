"""The package the tests import against the source tree it is built from.

CI installs fuzrank and runs the whole suite against the installed copy, so
this module reads no bundled data at import: it still runs, and names what is
missing, when a data file did not make it into the package.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import fuzrank


ROOT = Path(__file__).parents[1]


def _tree(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*")
            if p.is_file() and "__pycache__" not in p.parts}


def test_imported_package_holds_every_file_of_the_source_tree():
    """The imported fuzrank, the source tree or an installed copy of it,
    holds every module and data file of the source tree; an installed copy
    without one was built with a package-data glob that misses it."""
    source = _tree(ROOT / "src" / "fuzrank")
    assert {Path("__init__.py"), Path("data", "paper_s4.json")} <= source
    missing = source - _tree(Path(fuzrank.__file__).parent)
    assert sorted(map(str, missing)) == []


def test_version_is_the_one_pyproject_states():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    pyproject = ROOT / "pyproject.toml"
    with open(pyproject, "rb") as f:
        assert tomllib.load(f)["project"]["version"] == fuzrank.__version__


def _bound_names(stmt: ast.stmt):
    """The names a module-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield stmt.name
    elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
        for alias in stmt.names:
            yield alias.asname or alias.name.partition(".")[0]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
        for target in stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]:
            for node in ast.walk(target):
                if isinstance(node, ast.Name):
                    yield node.id


def test_no_module_binds_a_top_level_name_twice():
    """A second top-level binding silently replaces the first for every
    reader that runs after it, so a test written against the first one can
    end up checking the second."""
    repeats = []
    modules = [*(ROOT / "src" / "fuzrank").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]
    for path in sorted(modules):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        counts = Counter(name for stmt in tree.body for name in _bound_names(stmt))
        repeats += [f"{path.relative_to(ROOT).as_posix()}: {name}"
                    for name, n in counts.items() if n > 1]
    assert repeats == []


def test_every_private_top_level_name_is_read_in_the_package():
    """A private function, class or constant that no code of the package
    reads, outside its own definition, is dead: only a test can still reach
    it, and it keeps a rule alive that the package no longer follows."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "fuzrank").rglob("*.py"))}
    reads = []  # (name, module, line)
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((node.id, path, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.append((node.attr, path, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                reads += [(alias.name, path, node.lineno) for alias in node.names]
    unread = []
    for path, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            for name in _bound_names(stmt):
                if not name.startswith("_") or name.startswith("__"):
                    continue
                if not any(r == name and not (p == path and stmt.lineno <= line <= stmt.end_lineno)
                           for r, p, line in reads):
                    unread.append(f"{path.relative_to(ROOT).as_posix()}: {name}")
    assert unread == []
