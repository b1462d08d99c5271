"""Per-layer metrics derived from the spans of one traced pass.

A span is [name, start, end, parent index, context, counts]; see
tracer.py. A layer's busy time is the summed duration of its spans, its
self time that minus the time covered by its direct child spans.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

#: Two n x n float64 arrays per input (distance, |distance|) and three per
#: double-centering step, for x and y, plus three products: 13 arrays.
DCOR_ARRAYS = 13
#: Adam reads p, g, m, v and writes p, m, v: 7 float64 passes per parameter.
ADAM_PASSES = 7

_LSTM_KERNELS = ("forward_batch", "backward", "adam_step")

#: (metric name, unit) in report order; BENCHMARK.json lists the same.
PER_LAYER = (
    [(f"ingest.{p}.busy_s", "s") for p in ("reddit", "github", "price", "align")]
    + [
        ("ingest.lines", "count"),
        ("ingest.records", "count"),
        ("ingest.kept_ratio", "ratio"),
        ("ingest.mb_per_s", "MB/s"),
        ("ingest.filled_days", "count"),
    ]
    + [
        (f"signals.{f}.busy_s", "s")
        for f in ("gh_pop", "gh_all", "r_vol", "r_score", "r_sent", "vocab", "r_lang")
    ]
    + [
        ("signals.assemble.self_s", "s"),
        ("signals.columns", "count"),
        ("signals.comments", "count"),
    ]
    + [
        (f"stats.{f}.busy_s", "s")
        for f in ("correlation_table", "pearson", "distance_correlation", "dispersion")
    ]
    + [
        ("stats.columns", "count"),
        ("stats.ms_per_column", "ms"),
        ("stats.distance_correlation.bytes", "B_computed"),
    ]
    + [(f"dataset.{f}.busy_s", "s") for f in ("windows", "split", "norm")]
    + [("dataset.windows.count", "count"), ("dataset.windows.bytes", "B")]
    + [
        (f"lstm.{k}.{m}", u)
        for k in _LSTM_KERNELS
        for m, u in (("calls", "count"), ("busy_s", "s"), ("ms_p50", "ms"))
    ]
    + [
        ("lstm.train.self_s", "s"),
        ("lstm.epochs", "count"),
        ("lstm.best_epoch", "count"),
        ("lstm.useful_epoch_ratio", "ratio"),
        ("lstm.params", "count"),
        ("lstm.adam_step.bytes", "B_computed"),
        ("lstm.save_model.busy_s", "s"),
        ("lstm.load_model.busy_s", "s"),
        ("lstm.predict.busy_s", "s"),
        ("lstm.model_bytes", "B"),
    ]
    + [
        ("arima.select_lag.busy_s", "s"),
        ("arima.fit.calls", "count"),
        ("arima.forecast.calls", "count"),
        ("arima.forecast.busy_s", "s"),
        ("metrics.evaluate.calls", "count"),
        ("metrics.evaluate.busy_s", "s"),
        ("harness.grid.experiments", "count"),
        ("harness.grid.failed", "count"),
        ("harness.grid.lstm.self_s", "s"),
        ("harness.grid.arima.self_s", "s"),
        ("harness.grid.idle_s", "s"),
        ("harness.report.emit_report.busy_s", "s"),
        ("harness.report.save_results.busy_s", "s"),
        ("harness.report.files", "count"),
        ("harness.report.bytes", "B"),
        ("cli.build_bundle.self_s", "s"),
        ("cli.matrix_for_columns.busy_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def pass_metrics(spans: list[list], files: dict[str, tuple[int, int]]) -> tuple[dict, dict]:
    """Per-layer values of one pass, and the per-call kernel durations
    (pooled across passes by the caller for ms_p50). ``files`` maps each
    input file's absolute path to its (lines, bytes)."""
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    child: dict[int, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    for name, t0, t1, parent, _ctx, _counts in spans:
        busy[name] += t1 - t0
        calls[name] += 1
        durations[name].append(t1 - t0)
        if parent >= 0:
            child[parent] += t1 - t0
    self_s: dict[str, float] = defaultdict(float)
    for i, (name, t0, t1, *_rest) in enumerate(spans):
        self_s[name] += (t1 - t0) - child[i]

    def counts(name: str) -> list[dict]:
        return [s[5] for s in spans if s[0] == name and "raised" not in s[5]]

    m: dict[str, float] = {}
    for short, fn in (
        ("reddit", "load_reddit_comments"),
        ("github", "load_github_events"),
        ("price", "load_price_series"),
        ("align", "align_calendar"),
    ):
        m[f"ingest.{short}.busy_s"] = busy[f"ingest.{fn}"]
    loads = [
        c
        for fn in ("load_reddit_comments", "load_github_events", "load_price_series")
        for c in counts(f"ingest.{fn}")
    ]
    lines = sum(files.get(c["path"], (0, 0))[0] for c in loads)
    read_bytes = sum(files.get(c["path"], (0, 0))[1] for c in loads)
    records = sum(c["records"] for c in loads)
    load_s = sum(m[f"ingest.{p}.busy_s"] for p in ("reddit", "github", "price"))
    m["ingest.lines"] = lines
    m["ingest.records"] = records
    m["ingest.kept_ratio"] = records / lines if lines else 0.0
    m["ingest.mb_per_s"] = read_bytes / 1e6 / load_s if load_s else 0.0
    m["ingest.filled_days"] = sum(c["filled"] for c in counts("ingest.align_calendar"))

    extractors = {
        "gh_pop": "github_popularity_signal",
        "gh_all": "github_all_signal",
        "r_vol": "reddit_volume_signal",
        "r_score": "reddit_score_signal",
        "r_sent": "reddit_sentiment_signal",
        "vocab": "build_vocabulary",
        "r_lang": "reddit_language_signal",
    }
    for short, fn in extractors.items():
        m[f"signals.{short}.busy_s"] = busy[f"signals.{fn}"]
    m["signals.assemble.self_s"] = self_s["harness.grid.assemble_coin"]
    m["signals.columns"] = sum(
        c.get("columns", 0) for fn in extractors.values() for c in counts(f"signals.{fn}")
    )
    m["signals.comments"] = sum(
        c["comments"] for c in counts("signals.reddit_volume_signal")
    )

    for fn in ("correlation_table", "pearson", "distance_correlation", "dispersion"):
        m[f"stats.{fn}.busy_s"] = busy[f"stats.{fn}"]
    columns = sum(c["columns"] for c in counts("stats.correlation_table"))
    m["stats.columns"] = columns
    m["stats.ms_per_column"] = (
        1000.0 * busy["stats.correlation_table"] / columns if columns else 0.0
    )
    m["stats.distance_correlation.bytes"] = sum(
        DCOR_ARRAYS * 8 * c["n"] ** 2 for c in counts("stats.distance_correlation")
    )

    m["dataset.windows.busy_s"] = busy["dataset.make_windows"]
    m["dataset.split.busy_s"] = sum(
        busy[f"dataset.{fn}"] for fn in ("split_protocol", "subset_by_anchor", "validation_tail")
    )
    m["dataset.norm.busy_s"] = busy["dataset.fit_minmax"] + busy["dataset.apply_minmax"]
    windows = counts("dataset.make_windows")
    m["dataset.windows.count"] = sum(c["count"] for c in windows)
    m["dataset.windows.bytes"] = sum(c["bytes"] for c in windows)

    for k in _LSTM_KERNELS:
        m[f"lstm.{k}.calls"] = calls[f"lstm.{k}"]
        m[f"lstm.{k}.busy_s"] = busy[f"lstm.{k}"]
    trains = counts("lstm.train")
    m["lstm.train.self_s"] = self_s["lstm.train"]
    epochs = sum(c["epochs"] for c in trains)
    best = sum(c["best_epoch"] for c in trains)
    m["lstm.epochs"] = _mean([c["epochs"] for c in trains])
    m["lstm.best_epoch"] = _mean([c["best_epoch"] for c in trains])
    m["lstm.useful_epoch_ratio"] = best / epochs if epochs else 0.0
    m["lstm.params"] = _mean([c["params"] for c in trains])
    m["lstm.adam_step.bytes"] = _mean(
        [ADAM_PASSES * 8 * c["params"] for c in counts("lstm.adam_step")]
    )
    for fn in ("save_model", "load_model", "predict"):
        m[f"lstm.{fn}.busy_s"] = busy[f"lstm.{fn}"]
    m["lstm.model_bytes"] = sum(c["bytes"] for c in counts("lstm.save_model"))

    m["arima.select_lag.busy_s"] = busy["arima.select_lag"]
    m["arima.fit.calls"] = calls["arima.fit"]
    m["arima.forecast.calls"] = calls["arima.forecast"]
    m["arima.forecast.busy_s"] = busy["arima.forecast"]
    m["metrics.evaluate.calls"] = calls["metrics.evaluate"]
    m["metrics.evaluate.busy_s"] = busy["metrics.evaluate"]

    m["harness.grid.experiments"] = (
        calls["harness.grid.train_lstm_experiment"] + calls["harness.grid.run_arima"]
    )
    m["harness.grid.failed"] = sum(c["failed"] for c in counts("harness.grid.run_experiment"))
    m["harness.grid.lstm.self_s"] = self_s["harness.grid.train_lstm_experiment"]
    m["harness.grid.arima.self_s"] = self_s["harness.grid.run_arima"]
    m["harness.grid.idle_s"] = self_s["harness.grid.run_grid"]
    m["harness.report.emit_report.busy_s"] = busy["harness.report.emit_report"]
    m["harness.report.save_results.busy_s"] = busy["harness.report.save_results"]
    written = counts("harness.report.emit_report") + counts("harness.report.save_results")
    m["harness.report.files"] = sum(c["files"] for c in written)
    m["harness.report.bytes"] = sum(c["bytes"] for c in written)
    m["cli.build_bundle.self_s"] = self_s["cli.build_bundle"]
    m["cli.matrix_for_columns.busy_s"] = busy["cli.matrix_for_columns"]
    kernels = {k: durations[f"lstm.{k}"] for k in _LSTM_KERNELS}
    return m, kernels


def summarize(passes: list[dict], kernels: dict[str, list[float]], overhead_s: float) -> dict[str, float]:
    """Median of each per-pass value; kernel ms_p50 over all pooled calls."""
    out = {}
    for name, _unit in PER_LAYER:
        if name == "trace.overhead_s":
            out[name] = overhead_s
        elif name.endswith(".ms_p50"):
            samples = kernels.get(name.split(".")[1], [])
            out[name] = 1000.0 * statistics.median(samples) if samples else 0.0
        else:
            out[name] = statistics.median(p[name] for p in passes)
    return out
