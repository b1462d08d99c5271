"""The benchmark's tracer (perfbench/tracer.py) wraps coinseer functions by
module and attribute name; every name it lists must stay callable."""

import ast
import importlib
import inspect
from pathlib import Path

from coinseer import signals

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_targets():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no TARGETS")


def test_every_traced_target_resolves_to_a_callable():
    targets = traced_targets()
    assert ("coinseer.cli", "_matrix_for_columns") in targets
    missing = [
        f"{module}.{attr}"
        for module, attr in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, f"traced names with no callable: {missing}"
    # the tracer counts comments as len() of this function's first argument
    first = next(iter(inspect.signature(signals.reddit_volume_signal).parameters))
    assert first == "comments"
