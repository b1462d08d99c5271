"""Span recording around calls into coinseer's modules.

The tracer replaces module attributes with timing wrappers. Every call
from one coinseer module into another goes through a module attribute
(``arima.fit``) or a module global bound by ``from .x import f``; both
are rebound, so every such call is recorded. Spans stay in memory and
are written out once, when the traced command ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

#: (module, attribute) pairs wrapped in a traced run; one span per call.
TARGETS = (
    ("coinseer.ingest", "load_price_series"),
    ("coinseer.ingest", "load_reddit_comments"),
    ("coinseer.ingest", "load_github_events"),
    ("coinseer.ingest", "align_calendar"),
    ("coinseer.signals", "github_popularity_signal"),
    ("coinseer.signals", "github_all_signal"),
    ("coinseer.signals", "reddit_volume_signal"),
    ("coinseer.signals", "reddit_score_signal"),
    ("coinseer.signals", "reddit_sentiment_signal"),
    ("coinseer.signals", "build_vocabulary"),
    ("coinseer.signals", "reddit_language_signal"),
    ("coinseer.stats", "correlation_table"),
    ("coinseer.stats", "pearson"),
    ("coinseer.stats", "distance_correlation"),
    ("coinseer.stats", "dispersion"),
    ("coinseer.dataset", "make_windows"),
    ("coinseer.dataset", "split_protocol"),
    ("coinseer.dataset", "subset_by_anchor"),
    ("coinseer.dataset", "validation_tail"),
    ("coinseer.dataset", "fit_minmax"),
    ("coinseer.dataset", "apply_minmax"),
    ("coinseer.lstm", "train"),
    ("coinseer.lstm", "forward_batch"),
    ("coinseer.lstm", "backward"),
    ("coinseer.lstm", "adam_step"),
    ("coinseer.lstm", "predict"),
    ("coinseer.lstm", "save_model"),
    ("coinseer.lstm", "load_model"),
    ("coinseer.arima", "select_lag"),
    ("coinseer.arima", "fit"),
    ("coinseer.arima", "forecast"),
    ("coinseer.metrics", "evaluate"),
    ("coinseer.harness.grid", "assemble_coin"),
    ("coinseer.harness.grid", "run_grid"),
    ("coinseer.harness.grid", "run_experiment"),
    ("coinseer.harness.grid", "train_lstm_experiment"),
    ("coinseer.harness.grid", "_run_arima"),
    ("coinseer.harness.report", "emit_report"),
    ("coinseer.harness.report", "save_results"),
    ("coinseer.cli", "build_bundle"),
    ("coinseer.cli", "_matrix_for_columns"),
)

#: Spans that open an experiment; their descendants carry its identity.
_EXPERIMENT_SPANS = {
    "harness.grid.run_experiment",
    "harness.grid.train_lstm_experiment",
}


def _span_name(module: str, attr: str) -> str:
    return module.removeprefix("coinseer.") + "." + attr.lstrip("_")


def _experiment_id(cfg: object) -> str:
    sig = "-".join(cfg.signal_set) or "price"
    return f"{cfg.coin}_{cfg.model_kind}_{sig}_k{cfg.k}_j{cfg.j}"


def _counts(name: str, args: tuple, result: object) -> dict:
    """Work counters taken at the span's boundary (outside its timing)."""
    if name in ("ingest.load_reddit_comments", "ingest.load_github_events",
                "ingest.load_price_series"):
        return {"path": os.path.abspath(args[0]), "records": len(result)}
    if name == "ingest.align_calendar":
        return {"filled": int(result[1])}
    if name.startswith("signals.") and hasattr(result, "columns"):
        out = {"columns": len(result.columns)}
        if name == "signals.reddit_volume_signal":
            out["comments"] = len(args[0])
        return out
    if name == "stats.correlation_table":
        return {"columns": len(result)}
    if name == "stats.distance_correlation":
        return {"n": len(args[0])}
    if name == "dataset.make_windows":
        return {"count": len(result.targets), "bytes": int(result.inputs.nbytes)}
    if name == "lstm.train":
        params = sum(int(p.size) for p in args[0].params.values())
        return {
            "params": params,
            "epochs": len(result.history),
            "best_epoch": int(result.best_epoch),
        }
    if name == "lstm.adam_step":
        return {"params": sum(int(p.size) for p in args[0].values())}
    if name == "lstm.save_model":
        return {"bytes": os.path.getsize(args[0])}
    if name == "harness.grid.run_experiment":
        return {"failed": int(result.error is not None)}
    if name == "harness.report.emit_report":
        return {"files": len(result), "bytes": sum(os.path.getsize(p) for p in result)}
    if name == "harness.report.save_results":
        return {"files": 1, "bytes": os.path.getsize(args[0])}
    return {}


class Tracer:
    """Collects spans: [name, start, end, parent index, context, counts]."""

    def __init__(self, command: str) -> None:
        self.command = command
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._context = [command]

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            entered = name in _EXPERIMENT_SPANS
            if entered:
                self._context.append(_experiment_id(args[0]))
            index = len(self.spans)
            span = [name, 0.0, 0.0, parent, self._context[-1], {}]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = {"raised": 1}
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if entered:
                    self._context.pop()
            span[5] = _counts(name, args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every target in its module and wherever it was imported."""
        replaced = {}
        for module_name, attr in TARGETS:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            replaced[id(original)] = (original, self.wrap(_span_name(module_name, attr), original))
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("coinseer"):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[key] = hit[1]

    def run(self, fn):
        """Call ``fn`` inside a root span named after the command."""
        wrapped = self.wrap("cli.main", fn)
        return wrapped()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"command": self.command, "spans": self.spans}, fh)
