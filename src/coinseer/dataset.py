"""Normalization, supervised windowing, and the train/test split protocol."""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date

import numpy as np

from .signals import SignalMatrix


@dataclass(frozen=True)
class NormParams:
    """Per-column min-max parameters, keyed by column name."""

    columns: tuple[str, ...]
    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.columns)
        if self.mins.shape != (n,) or self.maxs.shape != (n,):
            raise ValueError("mins/maxs must have one entry per column")
        if np.any(self.maxs < self.mins):
            raise ValueError("max below min")
        self.mins.flags.writeable = False
        self.maxs.flags.writeable = False

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise ValueError(f"no normalization for column {name!r}") from None


@dataclass(frozen=True)
class WindowedDataset:
    """Supervised samples: k input days per sample, target j days ahead.

    inputs[s] holds the feature rows for the k days ending at
    anchor_dates[s]; targets[s] is the value j days after the anchor.
    """

    inputs: np.ndarray
    targets: np.ndarray
    anchor_dates: tuple[date, ...]
    k: int
    j: int
    feature_names: tuple[str, ...]

    def __post_init__(self) -> None:
        n = len(self.anchor_dates)
        if self.k < 1 or self.j < 1:
            raise ValueError("k and j must be positive")
        if self.inputs.shape != (n, self.k, len(self.feature_names)):
            raise ValueError(
                f"inputs shape {self.inputs.shape}, expected "
                f"({n}, {self.k}, {len(self.feature_names)})"
            )
        if self.targets.shape != (n,):
            raise ValueError(f"targets shape {self.targets.shape}, expected ({n},)")
        self.inputs.flags.writeable = False
        self.targets.flags.writeable = False

    def __len__(self) -> int:
        return len(self.anchor_dates)


def fit_minmax(matrix: SignalMatrix) -> NormParams:
    """Column-wise min and max over every row of the matrix."""
    return NormParams(
        columns=matrix.columns,
        mins=matrix.values.min(axis=0).copy(),
        maxs=matrix.values.max(axis=0).copy(),
    )


def apply_minmax(matrix: SignalMatrix, params: NormParams) -> tuple[SignalMatrix, int]:
    """Scale each column to [0, 1] by the fitted min/max.

    Constant columns (max equals min) map to 0. Values outside the fitted
    range scale linearly past [0, 1] rather than clamping; the count of
    such entries is returned so callers can report it.
    """
    if matrix.columns != params.columns:
        raise ValueError("column mismatch between matrix and normalization params")
    span = params.maxs - params.mins
    safe_span = np.where(span > 0, span, 1.0)
    scaled = (matrix.values - params.mins) / safe_span
    scaled[:, span == 0] = 0.0
    out_of_range = int(np.count_nonzero((scaled < 0.0) | (scaled > 1.0)))
    return SignalMatrix(matrix.dates, matrix.columns, scaled), out_of_range


def invert_minmax(value: float | np.ndarray, column: str, params: NormParams) -> np.ndarray:
    """Map scaled values back to original units for one column."""
    i = params.column_index(column)
    span = float(params.maxs[i] - params.mins[i])
    if span == 0.0:
        raise ValueError(f"column {column!r} is constant, cannot invert")
    return np.asarray(value, dtype=np.float64) * span + float(params.mins[i])


def make_windows(matrix: SignalMatrix, targets: np.ndarray, k: int, j: int) -> WindowedDataset:
    """Enumerate every supervised sample the series supports.

    Anchors run from row k-1 through row n-1-j, so sample s is anchored
    at row k-1+s; sample count is n - k - j + 1. ``inputs`` is a
    read-only view of ``matrix.values``.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if j < 1:
        raise ValueError(f"j must be positive, got {j}")
    y = np.asarray(targets, dtype=np.float64)
    n = len(matrix.dates)
    if y.shape != (n,):
        raise ValueError(f"targets shape {y.shape} does not match {n} days")
    count = n - k - j + 1
    if count < 1:
        raise ValueError(f"series of {n} days too short for k={k}, j={j}")
    # a read-only strided view: the (anchors, k, features) tensor is never
    # copied whole, and a training batch's gather copies only its rows
    windows = np.lib.stride_tricks.sliding_window_view(matrix.values, k, axis=0)
    return WindowedDataset(
        inputs=windows[:count].transpose(0, 2, 1),
        targets=y[k - 1 + j :].copy(),
        anchor_dates=matrix.dates[k - 1 : n - j],
        k=k,
        j=j,
        feature_names=matrix.columns,
    )


def split_protocol(
    n_days: int,
    k_max: int = 14,
    j_max: int = 3,
    train_frac: float = 0.8,
) -> tuple[range, range]:
    """Train and test anchor rows shared across all (k, j).

    Anchors are enumerated at the largest window sizes (k_max, j_max); the
    first floor(train_frac * count) anchor rows train and the remainder
    test. Every smaller (k, j) reuses these exact rows, so all
    configurations compare on identical days.
    """
    if not 0.0 < train_frac < 1.0:
        raise ValueError(f"train_frac must lie in (0, 1), got {train_frac}")
    if n_days < k_max + j_max + 5:
        raise ValueError(
            f"need at least {k_max + j_max + 5} days for k_max={k_max}, "
            f"j_max={j_max}, got {n_days}"
        )
    count = n_days - k_max - j_max + 1
    n_train = math.floor(train_frac * count)
    if n_train < 1 or count - n_train < 1:
        raise ValueError("split leaves an empty train or test set")
    first = k_max - 1
    return range(first, first + n_train), range(first + n_train, first + count)


def _slice(ds: WindowedDataset, lo: int, hi: int) -> WindowedDataset:
    """Samples lo..hi-1 of ``ds``, as read-only views of its arrays."""
    return WindowedDataset(
        inputs=ds.inputs[lo:hi],
        targets=ds.targets[lo:hi],
        anchor_dates=ds.anchor_dates[lo:hi],
        k=ds.k,
        j=ds.j,
        feature_names=ds.feature_names,
    )


def subset_by_anchor(ds: WindowedDataset, rows: range) -> WindowedDataset:
    """Samples anchored at ``rows``, a contiguous range of the rows of the
    series that make_windows windowed into ``ds``."""
    first = ds.k - 1
    if not rows:
        raise ValueError(f"no anchors in {rows}")
    if rows.step != 1 or rows[0] < first or rows[-1] >= first + len(ds):
        raise ValueError(
            f"{rows} is not a contiguous run of the windows' anchor rows "
            f"{first}..{first + len(ds) - 1}"
        )
    return _slice(ds, rows[0] - first, rows[-1] + 1 - first)


def validation_tail(
    ds: WindowedDataset, frac: float = 0.2
) -> tuple[WindowedDataset, WindowedDataset]:
    """Chronological fit/validation split: the last ceil(frac * n) samples
    validate, the rest fit."""
    if not 0.0 < frac < 1.0:
        raise ValueError(f"frac must lie in (0, 1), got {frac}")
    n = len(ds)
    if n < 5:
        raise ValueError(f"need at least 5 samples to hold out a tail, got {n}")
    split = n - math.ceil(frac * n)
    return _slice(ds, 0, split), _slice(ds, split, n)
