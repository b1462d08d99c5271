"""Report emission: ranking and metrics CSVs, prediction files, SVG plots.

Every byte written here is a pure function of the results, so reruns of
the same experiments produce identical files. ``write_json`` is the one
writer of JSON records: results.json here, and the CLI's run manifests
and synth config. The CSVs are written through ``ingest.write_csv``.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from datetime import date
from typing import Sequence

from ..ingest import write_csv
from ..metrics import MetricsReport
from .grid import (
    ExperimentConfig,
    ExperimentResult,
    RankRow,
    config_id,
    rank_models,
    signal_set_label,
)

_CI_NOTE = (
    "ci columns are 95% half-widths: a normal approximation on the mean "
    "absolute percentage error, and for rmspe the half-width on the mean "
    "squared percentage error over 2*rmspe (delta method)."
)

#: The MetricsReport fields of metrics.csv, in column order.
_METRIC_COLUMNS = ("mape", "mape_ci", "rmspe", "rmspe_ci", "maxape", "rmse", "n")

_TRUTH_COLOR = "#1f77b4"
_PRED_COLOR = "#d62728"


def write_json(path: str, payload: dict) -> None:
    """Write one JSON record: sorted keys, one-space indent, final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def result_to_dict(result: ExperimentResult) -> dict:
    predictions = [[d.isoformat(), t, p] for d, t, p in result.predictions]
    return {**asdict(result), "predictions": predictions}


def result_from_dict(obj: dict) -> ExperimentResult:
    cfg = obj["config"]
    raw = obj.get("metrics")
    predictions = tuple(
        (date.fromisoformat(d), float(t), float(p))
        for d, t, p in obj.get("predictions", [])
    )
    return ExperimentResult(**{
        **obj,
        "config": ExperimentConfig(**{**cfg, "signal_set": tuple(cfg["signal_set"])}),
        "metrics": None if raw is None else MetricsReport(**raw),
        "predictions": predictions,
    })


def save_results(path: str, results: Sequence[ExperimentResult]) -> None:
    write_json(path, {"results": [result_to_dict(r) for r in results]})


def load_results(path: str) -> list[ExperimentResult]:
    """Inverse of save_results; a file of another shape is a ValueError
    that names it."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    try:
        return [result_from_dict(obj) for obj in payload["results"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a results file ({type(exc).__name__}: {exc})") from None


def write_ranking_csv(path: str, rows: Sequence[RankRow]) -> None:
    horizons = [j for j, _ in rows[0].rmspe_by_j]
    write_csv(
        path,
        ["model", "signals"] + [f"rmspe_j{j}" for j in horizons] + ["mean"],
        (
            [row.model_kind.upper(), signal_set_label(row.signal_set)]
            + [v for _, v in row.rmspe_by_j]
            + [row.mean]
            for row in rows
        ),
    )


def write_metrics_csv(path: str, results: Sequence[ExperimentResult]) -> None:
    def cells(result: ExperimentResult) -> list:
        cfg = result.config
        base = [
            cfg.coin,
            cfg.model_kind.upper(),
            signal_set_label(cfg.signal_set),
            "" if cfg.model_kind == "arima" else cfg.k,
            cfg.j,
        ]
        if result.metrics is None:
            return base + [""] * len(_METRIC_COLUMNS) + [result.error or "failed"]
        return base + [getattr(result.metrics, name) for name in _METRIC_COLUMNS] + [""]

    write_csv(path, ["coin", "model", "signals", "k", "j", *_METRIC_COLUMNS, "error"],
              map(cells, results))


def write_predictions_csv(path: str, result: ExperimentResult) -> None:
    write_csv(path, ("date", "true_usd", "pred_usd"), result.predictions)


def _svg_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(lo: float, hi: float, count: int) -> list[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _svg_line(
    x1: float, y1: float, x2: float, y2: float, stroke: str, width: int | None = None
) -> str:
    stroke_width = "" if width is None else f' stroke-width="{width}"'
    return (
        f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" '
        f'y2="{y2:.2f}" stroke="{stroke}"{stroke_width}/>'
    )


def _svg_text(
    x: float, y: float, body: str, size: int, anchor: str | None = "middle", rotate: bool = False
) -> str:
    """One <text> element; ``rotate`` turns it a quarter turn about (x, y)."""
    text_anchor = "" if anchor is None else f' text-anchor="{anchor}"'
    transform = f' transform="rotate(-90 {x:.2f} {y:.2f})"' if rotate else ""
    return (
        f'<text x="{x:.2f}" y="{y:.2f}"{text_anchor} font-family="sans-serif" '
        f'font-size="{size}"{transform}>{body}</text>'
    )


def render_line_plot(
    title: str,
    dates: Sequence[date],
    truth: Sequence[float],
    preds: Sequence[float],
) -> str:
    """A fixed-layout SVG line chart of true and predicted values."""
    n = len(dates)
    if n < 1 or len(truth) != n or len(preds) != n:
        raise ValueError("need equal-length nonempty series")
    width, height = 860.0, 380.0
    left, right, top, bottom = 70.0, 20.0, 42.0, 56.0
    plot_w = width - left - right
    plot_h = height - top - bottom
    lo = min(min(truth), min(preds))
    hi = max(max(truth), max(preds))
    pad = (hi - lo) * 0.05 or max(abs(hi), 1.0) * 0.05
    lo -= pad
    hi += pad

    def x_at(i: int) -> float:
        return left if n == 1 else left + plot_w * i / (n - 1)

    def y_at(v: float) -> float:
        return top + plot_h * (1.0 - (v - lo) / (hi - lo))

    def polyline(values: Sequence[float], color: str) -> str:
        points = " ".join(f"{x_at(i):.2f},{y_at(v):.2f}" for i, v in enumerate(values))
        return (
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="#ffffff"/>',
        f'<text x="{width / 2:.2f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{_svg_escape(title)}</text>',
    ]
    axis = "#333333"
    parts.append(_svg_line(left, top, left, top + plot_h, axis))
    parts.append(_svg_line(left, top + plot_h, left + plot_w, top + plot_h, axis))
    for v in _ticks(lo, hi, 5):
        y = y_at(v)
        parts.append(_svg_line(left - 4, y, left, y, axis))
        parts.append(_svg_text(left - 8, y + 4, f"{v:.6g}", 10, anchor="end"))
    stride = max(1, (n + 5) // 6)
    for i in range(0, n, stride):
        x = x_at(i)
        parts.append(_svg_line(x, top + plot_h, x, top + plot_h + 4, axis))
        parts.append(_svg_text(x, top + plot_h + 18, dates[i].isoformat(), 10))
    parts.append(_svg_text(left / 4, top + plot_h / 2, "USD", 11, rotate=True))
    parts.append(_svg_text(left + plot_w / 2, height - 14, "date", 11))
    parts.append(polyline(truth, _TRUTH_COLOR))
    parts.append(polyline(preds, _PRED_COLOR))
    for i, v in enumerate(preds):
        parts.append(
            f'<circle cx="{x_at(i):.2f}" cy="{y_at(v):.2f}" r="1.8" '
            f'fill="{_PRED_COLOR}"/>'
        )
    legend_x = left + plot_w - 150.0
    for row, (label, color) in enumerate(
        (("true", _TRUTH_COLOR), ("predicted", _PRED_COLOR))
    ):
        y = top + 10 + 16 * row
        parts.append(_svg_line(legend_x, y, legend_x + 22, y, color, width=2))
        parts.append(_svg_text(legend_x + 28, y + 4, label, 11, anchor=None))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_plot_svg(path: str, result: ExperimentResult) -> None:
    cfg = result.config
    title = (
        f"{cfg.coin}: price high {cfg.j} day(s) ahead, "
        f"{cfg.model_kind.upper()} ({signal_set_label(cfg.signal_set)})"
    )
    dates = [d for d, _, _ in result.predictions]
    truth = [t for _, t, _ in result.predictions]
    preds = [p for _, _, p in result.predictions]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_line_plot(title, dates, truth, preds))


def write_summary_txt(
    path: str, rows: Sequence[RankRow], results: Sequence[ExperimentResult]
) -> None:
    failed = [r for r in results if r.metrics is None]
    horizons = [j for j, _ in rows[0].rmspe_by_j]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("model ranking by mean RMSPE across coins and horizons\n")
        fh.write("=" * 56 + "\n\n")
        label_w = max(len(r.label) for r in rows)
        header = "  ".join([f"j={j:<8d}" for j in horizons])
        fh.write(f"{'variant'.ljust(label_w)}  {header}  mean\n")
        for row in rows:
            cells = "  ".join(f"{v:<10.4f}" for _, v in row.rmspe_by_j)
            fh.write(f"{row.label.ljust(label_w)}  {cells}  {row.mean:.4f}\n")
        fh.write(f"\nexperiments: {len(results)} total, {len(failed)} failed\n")
        for r in failed:
            fh.write(f"  {config_id(r.config)}: {r.error}\n")
        fh.write(f"\nnote: {_CI_NOTE}\n")


def emit_report(results: Sequence[ExperimentResult], out_dir: str) -> list[str]:
    """Write every report artifact; returns the paths written.

    Emits ranking.csv, metrics.csv, report.txt, plus predictions_<id>.csv
    and plot_<id>.svg per successful experiment.
    """
    if not results:
        raise ValueError("nothing to report")
    os.makedirs(out_dir, exist_ok=True)
    rows = rank_models(results)
    files = [
        ("ranking.csv", write_ranking_csv, (rows,)),
        ("metrics.csv", write_metrics_csv, (results,)),
        ("report.txt", write_summary_txt, (rows, results)),
    ]
    for result in results:
        if result.metrics is None:
            continue
        cid = config_id(result.config)
        files.append((f"predictions_{cid}.csv", write_predictions_csv, (result,)))
        files.append((f"plot_{cid}.svg", write_plot_svg, (result,)))
    written = []
    for name, write, args in files:
        path = os.path.join(out_dir, name)
        write(path, *args)
        written.append(path)
    return written
