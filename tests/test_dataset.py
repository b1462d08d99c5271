"""Min-max scaling, windowing, and the shared train/test split."""

from datetime import date, timedelta

import numpy as np
import numpy.testing as npt
import pytest

from coinseer import dataset
from coinseer.ingest import daily_calendar
from coinseer.signals import SignalMatrix


def matrix_of(values, columns=None, start=date(2021, 3, 1)):
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if columns is None:
        columns = tuple(f"c{i}" for i in range(arr.shape[1]))
    cal = daily_calendar(start, start + timedelta(days=len(arr) - 1))
    return SignalMatrix(cal, tuple(columns), arr)


def test_minmax_round_trip():
    rng = np.random.default_rng(4)
    values = rng.uniform(-30, 70, size=(40, 3))
    matrix = matrix_of(values)
    params = dataset.fit_minmax(matrix)
    scaled, out_of_range = dataset.apply_minmax(matrix, params)
    assert out_of_range == 0
    assert scaled.values.min() >= 0.0 and scaled.values.max() <= 1.0
    for col in matrix.columns:
        back = dataset.invert_minmax(scaled.column(col), col, params)
        npt.assert_allclose(back, matrix.column(col), rtol=1e-12, atol=1e-9)


def test_minmax_constant_column_and_out_of_range():
    fit = matrix_of(np.column_stack([np.arange(5.0), np.full(5, 3.0)]))
    params = dataset.fit_minmax(fit)
    wider = matrix_of(np.column_stack([np.arange(5.0) * 2 - 1, np.full(5, 3.0)]))
    scaled, out_of_range = dataset.apply_minmax(wider, params)
    npt.assert_array_equal(scaled.column("c1"), np.zeros(5))
    assert scaled.column("c0")[0] == -0.25
    assert out_of_range == np.count_nonzero(
        (scaled.column("c0") < 0) | (scaled.column("c0") > 1)
    )
    with pytest.raises(ValueError, match="constant"):
        dataset.invert_minmax(0.5, "c1", params)
    other = matrix_of(np.zeros((5, 2)), columns=("a", "b"))
    with pytest.raises(ValueError, match="column mismatch"):
        dataset.apply_minmax(other, params)


def test_make_windows_counts_and_alignment():
    n, k, j = 10, 3, 2
    matrix = matrix_of(np.arange(n, dtype=np.float64))
    targets = np.arange(n, dtype=np.float64) * 10
    ds = dataset.make_windows(matrix, targets, k, j)
    assert len(ds) == n - k - j + 1 == 6
    assert ds.inputs.shape == (6, k, 1)
    # the windows are a read-only view of the matrix, not a copy
    assert np.shares_memory(ds.inputs, matrix.values)
    assert not ds.inputs.flags.writeable
    assert ds.anchor_dates[0] == matrix.dates[k - 1]
    assert ds.anchor_dates[-1] == matrix.dates[n - 1 - j]
    for s, anchor in enumerate(ds.anchor_dates):
        i = matrix.dates.index(anchor)
        npt.assert_array_equal(ds.inputs[s, :, 0], np.arange(i - k + 1, i + 1))
        assert ds.targets[s] == targets[i + j]


def test_make_windows_rejects_short_series():
    matrix = matrix_of(np.arange(4.0))
    targets = np.arange(4.0)
    with pytest.raises(ValueError, match="too short"):
        dataset.make_windows(matrix, targets, k=3, j=2)
    with pytest.raises(ValueError):
        dataset.make_windows(matrix, targets, k=0, j=1)
    with pytest.raises(ValueError):
        dataset.make_windows(matrix, np.arange(3.0), k=2, j=1)


def test_split_protocol_shared_across_window_sizes():
    n, k_max, j_max = 60, 14, 3
    cal = daily_calendar(date(2021, 1, 1), date(2021, 1, 1) + timedelta(days=n - 1))
    train_rows, test_rows = dataset.split_protocol(n, k_max, j_max, 0.8)
    count = n - k_max - j_max + 1
    n_train = int(0.8 * count)
    assert train_rows[0] == k_max - 1
    assert train_rows[-1] == k_max - 1 + n_train - 1
    assert test_rows[0] == k_max - 1 + n_train
    assert test_rows[-1] == k_max - 1 + count - 1

    matrix = matrix_of(np.arange(n, dtype=np.float64), start=cal[0])
    targets = np.arange(n, dtype=np.float64)
    for k in (1, 7, 14):
        for j in (1, 2, 3):
            ds = dataset.make_windows(matrix, targets, k, j)
            train = dataset.subset_by_anchor(ds, train_rows)
            test = dataset.subset_by_anchor(ds, test_rows)
            assert train.anchor_dates[0] == cal[train_rows[0]]
            assert train.anchor_dates[-1] == cal[train_rows[-1]]
            assert test.anchor_dates[0] == cal[test_rows[0]]
            assert len(train) == n_train
            assert set(train.anchor_dates).isdisjoint(test.anchor_dates)


def test_split_protocol_rejects_short_series():
    with pytest.raises(ValueError, match="at least 22"):
        dataset.split_protocol(21, 14, 3, 0.8)
    with pytest.raises(ValueError):
        dataset.split_protocol(21, 2, 1, 1.5)


def test_subset_by_anchor_errors():
    matrix = matrix_of(np.arange(10.0))
    ds = dataset.make_windows(matrix, np.arange(10.0), 2, 1)  # anchor rows 1..8
    with pytest.raises(ValueError, match="not a contiguous run"):
        dataset.subset_by_anchor(ds, range(40, 45))
    with pytest.raises(ValueError, match="not a contiguous run"):
        dataset.subset_by_anchor(ds, range(0, 3))
    with pytest.raises(ValueError, match="not a contiguous run"):
        dataset.subset_by_anchor(ds, range(7, 10))
    with pytest.raises(ValueError, match="not a contiguous run"):
        dataset.subset_by_anchor(ds, range(1, 9, 2))
    with pytest.raises(ValueError, match="no anchors"):
        dataset.subset_by_anchor(ds, range(5, 5))
    with pytest.raises(ValueError, match="no anchors"):
        dataset.subset_by_anchor(ds, range(5, 1))
    whole = dataset.subset_by_anchor(ds, range(1, 9))
    assert whole.anchor_dates == ds.anchor_dates


def test_validation_tail_sizes():
    matrix = matrix_of(np.arange(12.0))
    ds = dataset.make_windows(matrix, np.arange(12.0), 2, 1)  # 10 samples
    fit, val = dataset.validation_tail(ds, 0.2)
    assert (len(fit), len(val)) == (8, 2)
    assert fit.anchor_dates + val.anchor_dates == ds.anchor_dates
    npt.assert_array_equal(val.targets, ds.targets[-2:])
    for part in (fit, val):  # read-only views of the one window tensor, not copies
        assert np.shares_memory(part.inputs, ds.inputs)
        assert np.shares_memory(part.targets, ds.targets)
        assert not part.inputs.flags.writeable

    matrix5 = matrix_of(np.arange(7.0))
    ds5 = dataset.make_windows(matrix5, np.arange(7.0), 2, 1)  # 5 samples
    fit5, val5 = dataset.validation_tail(ds5, 0.2)
    assert (len(fit5), len(val5)) == (4, 1)

    ds4 = dataset.make_windows(matrix_of(np.arange(6.0)), np.arange(6.0), 2, 1)
    with pytest.raises(ValueError, match="at least 5"):
        dataset.validation_tail(ds4)
