"""The package the tests import against the source tree it is built from.

CI installs fuzrank and runs the whole suite against the installed copy, so
this module reads no bundled data at import: it still runs, and names what is
missing, when a data file did not make it into the package.
"""

from pathlib import Path

import pytest

import fuzrank


def _tree(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*")
            if p.is_file() and "__pycache__" not in p.parts}


def test_imported_package_holds_every_file_of_the_source_tree():
    """The imported fuzrank, the source tree or an installed copy of it,
    holds every module and data file of the source tree; an installed copy
    without one was built with a package-data glob that misses it."""
    source = _tree(Path(__file__).parents[1] / "src" / "fuzrank")
    assert {Path("__init__.py"), Path("data", "paper_s4.json")} <= source
    missing = source - _tree(Path(fuzrank.__file__).parent)
    assert sorted(map(str, missing)) == []


def test_version_is_the_one_pyproject_states():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as f:
        assert tomllib.load(f)["project"]["version"] == fuzrank.__version__
