"""The benchmark's tracer (perfbench/tracer.py) wraps coinseer functions by
module and attribute name; every name it lists must stay callable."""

import ast
import importlib
import inspect
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from coinseer import lstm, signals
from coinseer.dataset import NormParams, WindowedDataset

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


def test_train_and_adam_step_hold_what_the_tracer_counts(monkeypatch):
    # the tracer sizes the model from train's args[0].params and Adam's
    # bytes from the .values() of adam_step's first argument
    firsts = []
    adam_step = lstm.adam_step

    def spy(*args, **kwargs):
        firsts.append(args[0])
        return adam_step(*args, **kwargs)

    monkeypatch.setattr(lstm, "adam_step", spy)
    rng = np.random.default_rng(0)
    days = tuple(date(2021, 1, 1) + timedelta(days=i) for i in range(6))
    ds = WindowedDataset(
        inputs=rng.uniform(size=(6, 2, 3)), targets=rng.uniform(size=6),
        anchor_dates=days, k=2, j=1, feature_names=("a", "b", "c"),
    )
    norm = NormParams(columns=("a", "b", "c"), mins=np.zeros(3), maxs=np.ones(3))
    args = (lstm.init_network(3, (4,), seed=0), ds, ds, lstm.TrainConfig(max_epochs=1))
    lstm.train(*args, norm=norm)
    assert sum(int(p.size) for p in args[0].params.values()) == args[0].flat.size
    assert firsts
    for params in firsts:
        assert sum(int(p.size) for p in params.values()) == lstm._TrainingCopy(args[0], ds.k).flat.size
