"""numpy is coinseer's one runtime dependency: every module that its code
imports, at module level or inside a function, is in the standard library,
numpy or coinseer itself, and pyproject.toml declares numpy alone."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "coinseer"}


def imported_modules(path):
    """The top-level name of each module that ``path`` imports, with the
    line of the import; a relative import names coinseer."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from ((alias.name.split(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield ("coinseer" if node.level else node.module.split(".")[0]), node.lineno


def test_every_import_is_stdlib_numpy_or_coinseer():
    sources = sorted((ROOT / "src" / "coinseer").rglob("*.py"))
    found = {(path, name, line) for path in sources for name, line in imported_modules(path)}
    # function-level imports are seen too
    assert any(name == "multiprocessing" for _, name, _ in found)
    assert {name for _, name, _ in found} >= {"numpy", "coinseer"}
    others = sorted(f"{path.relative_to(ROOT)}:{line} imports {name}"
                    for path, name, line in found if name not in ALLOWED)
    assert not others, others


def test_pyproject_declares_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]
