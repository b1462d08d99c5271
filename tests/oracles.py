"""Reference helpers that only the tests call: the batch loss and its
gradients, the reader of signal CSVs, and the UTC day of a timestamp."""

from __future__ import annotations

import csv
from datetime import date, datetime, timezone

import numpy as np

from coinseer import lstm
from coinseer.signals import SignalMatrix


def loss_and_grads(
    net: lstm.Network, windows: np.ndarray, targets: np.ndarray
) -> tuple[float, lstm.ParamDict]:
    """Mean squared error over the batch and its parameter gradients."""
    y = np.asarray(targets, dtype=np.float64)
    preds, cache = lstm.forward_batch(net, windows)
    if preds.shape != y.shape:
        raise ValueError(f"targets shape {y.shape}, expected {preds.shape}")
    resid = preds - y
    mse = float(resid @ resid) / resid.size
    grads = lstm.backward(net, cache, (2.0 / resid.size) * resid)
    return mse, grads


def read_signal_csv(path: str) -> SignalMatrix:
    """Inverse of signals.write_signal_csv."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if not header or header[0] != "date":
            raise ValueError(f"{path}: first column must be date")
        columns = tuple(header[1:])
        dates: list[date] = []
        rows: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}: malformed row at line {lineno}")
            dates.append(date.fromisoformat(row[0]))
            rows.append([float(v) for v in row[1:]])
    return SignalMatrix(tuple(dates), columns, np.array(rows, dtype=np.float64))


def day_of(created_utc: int) -> date:
    """UTC calendar day of an epoch timestamp."""
    return datetime.fromtimestamp(created_utc, timezone.utc).date()
