"""Differenced autoregressive baseline against a least-squares oracle."""

import numpy as np
import numpy.testing as npt
import pytest

from coinseer import arima


def lstsq_oracle(y, p):
    """Independent coefficient estimate via numpy lstsq on the same design."""
    dy = np.diff(np.asarray(y, dtype=np.float64))
    rows = dy.size - p
    design = np.ones((rows, p + 1))
    for lag in range(1, p + 1):
        for r in range(rows):
            design[r, lag] = dy[p + r - lag]
    beta, *_ = np.linalg.lstsq(design, dy[p:], rcond=None)
    return beta


def test_fit_known_series():
    # diffs of [1, 2, 4, 7, 11, 16] are [1, 2, 3, 4, 5]: d_t = 1 + d_(t-1)
    model = arima.fit([1.0, 2.0, 4.0, 7.0, 11.0, 16.0], p=1)
    npt.assert_allclose(model.intercept, 1.0, atol=1e-10)
    npt.assert_allclose(model.ar_coeffs, [1.0], atol=1e-10)


def test_forecast_iterates_differences():
    model = arima.ArimaModel(p=1, intercept=1.0, ar_coeffs=np.array([1.0]))
    history = np.array([1.0, 2.0, 4.0, 7.0, 11.0, 16.0])
    # next diffs: 6 then 7, so levels 22 and 29
    npt.assert_allclose(arima.forecast(model, history, 1), 22.0)
    npt.assert_allclose(arima.forecast(model, history, 2), 29.0)

    drift = arima.ArimaModel(p=0, intercept=0.5, ar_coeffs=np.zeros(0))
    npt.assert_allclose(arima.forecast(drift, [3.0, 4.0], 4), 6.0)


def test_fit_matches_lstsq_oracle():
    rng = np.random.default_rng(21)
    for trial in range(100):
        p = int(rng.integers(0, 5))
        n = int(rng.integers(p + 8, 60))
        y = np.cumsum(rng.normal(0.1, 1.0, size=n)) + 50.0
        model = arima.fit(y, p)
        beta = lstsq_oracle(y, p)
        npt.assert_allclose(model.intercept, beta[0], atol=1e-8, rtol=1e-8)
        npt.assert_allclose(model.ar_coeffs, beta[1:], atol=1e-8, rtol=1e-8)


def test_forecast_shift_and_scale_invariance():
    rng = np.random.default_rng(33)
    y = np.cumsum(rng.normal(0.2, 1.0, size=80)) + 100.0
    for p in (0, 1, 3):
        base = arima.forecast(arima.fit(y, p), y, 3)
        for a, b in ((2.5, 0.0), (1.0, 40.0), (0.3, -7.0)):
            scaled = arima.forecast(arima.fit(a * y + b, p), a * y + b, 3)
            npt.assert_allclose(scaled, a * base + b, rtol=1e-9, atol=1e-9)


def test_fit_rejects_degenerate_input():
    with pytest.raises(ArithmeticError, match="singular"):
        arima.fit(np.full(30, 5.0), p=2)
    with pytest.raises(ValueError, match="too short"):
        arima.fit([1.0, 2.0, 3.0], p=3)
    with pytest.raises(ValueError):
        arima.fit([1.0, np.nan, 3.0], p=0)
    with pytest.raises(ValueError):
        arima.fit(np.ones((3, 2)), p=0)
    with pytest.raises(ValueError):
        arima.fit([1.0, 2.0, 3.0, 4.0], p=-1)


def test_forecast_rejects_bad_input():
    model = arima.ArimaModel(p=2, intercept=0.0, ar_coeffs=np.array([0.5, 0.1]))
    with pytest.raises(ValueError, match="at least 3"):
        arima.forecast(model, [1.0, 2.0], 1)
    with pytest.raises(ValueError):
        arima.forecast(model, [1.0, 2.0, 3.0], 0)


def test_select_lag_finds_autoregressive_structure():
    rng = np.random.default_rng(8)
    # differences follow a strong AR(1), so lag 1 should beat lag 0
    dy = [1.0]
    for _ in range(199):
        dy.append(0.9 * dy[-1] + rng.normal(0, 0.05))
    y = 500.0 + np.cumsum(dy)
    picked = arima.select_lag(y, max_p=3)
    assert 1 <= picked <= 3

    with pytest.raises(ValueError):
        arima.select_lag(np.array([1.0, 2.0]), max_p=-1)
    with pytest.raises(ValueError, match="too short"):
        arima.select_lag(np.array([1.0, 2.0]), max_p=2)


def test_select_lag_prefers_small_on_ties():
    # a pure drift walk has no lag structure; candidates tie approximately,
    # and exact ties must resolve to the smaller order
    y = np.arange(40.0) + 10.0
    with pytest.raises(ArithmeticError):
        arima.fit(y, 1)  # constant diffs are collinear with the intercept
    assert arima.select_lag(y, max_p=3) == 0
