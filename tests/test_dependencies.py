"""numpy is coinseer's one runtime dependency: every module that its code
imports, at module level or inside a function, is in the standard library,
numpy or coinseer itself, and pyproject.toml declares numpy alone. One
function, ingest.write_csv, builds the csv writer of every table, and the
training settings are declared once, in lstm.TrainConfig."""

import ast
import dataclasses
import re
import sys
from pathlib import Path

import pytest

from coinseer import lstm
from coinseer.harness import grid

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


def csv_writer_builders(path):
    """The function (or "<module>") of each ``csv.writer`` or
    ``csv.DictWriter`` call in ``path``, and each ``from csv import``."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ImportFrom) and child.module == "csv":
                found.append(f"{owner} imports from csv")
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                  and isinstance(child.func.value, ast.Name) and child.func.value.id == "csv"
                  and child.func.attr in ("writer", "DictWriter")):
                found.append(owner)
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), "<module>")
    return found


def test_every_import_is_stdlib_numpy_or_coinseer():
    sources = sorted((ROOT / "src" / "coinseer").rglob("*.py"))
    found = {(path, name, line) for path in sources for name, line in imported_modules(path)}
    # function-level imports are seen too
    assert any(name == "multiprocessing" for _, name, _ in found)
    assert {name for _, name, _ in found} >= {"numpy", "coinseer"}
    others = sorted(f"{path.relative_to(ROOT)}:{line} imports {name}"
                    for path, name, line in found if name not in ALLOWED)
    assert not others, others


def test_one_function_builds_a_csv_writer():
    sources = sorted((ROOT / "src" / "coinseer").rglob("*.py"))
    builders = [f"{path.relative_to(ROOT)}: {owner}"
                for path in sources for owner in csv_writer_builders(path)]
    assert builders == ["src/coinseer/ingest.py: write_csv"]


def test_pyproject_declares_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]


def test_run_options_hold_the_training_settings_once():
    train_fields = {f.name for f in dataclasses.fields(lstm.TrainConfig)}
    run_fields = [f.name for f in dataclasses.fields(grid.RunOptions)]
    assert "train" in run_fields
    assert not train_fields & set(run_fields)
    assert not hasattr(grid.RunOptions, "train_config")
    assert grid.RunOptions().train == lstm.TrainConfig()
    with pytest.raises(ValueError, match="master_seed"):
        grid.RunOptions(train=lstm.TrainConfig(seed=7))
