"""Percentage-error metrics and confidence half-widths."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from coinseer import metrics


def test_worked_example():
    report = metrics.evaluate([104.0, 95.0], [100.0, 100.0])
    assert report.n == 2
    npt.assert_allclose(report.mape, 4.5)
    npt.assert_allclose(report.maxape, 5.0)
    npt.assert_allclose(report.mspe, (16.0 + 25.0) / 2)
    npt.assert_allclose(report.rmspe, math.sqrt(20.5))
    npt.assert_allclose(report.rmse, math.sqrt((16.0 + 25.0) / 2))


def test_confidence_halfwidths_match_definitions():
    rng = np.random.default_rng(9)
    truth = rng.uniform(50, 150, size=40)
    preds = truth * (1 + rng.normal(0, 0.07, size=40))
    report = metrics.evaluate(preds, truth)
    ape = 100.0 * np.abs(preds - truth) / truth
    spe = (100.0 * (preds - truth) / truth) ** 2
    npt.assert_allclose(report.mape_ci, 1.96 * ape.std(ddof=1) / math.sqrt(40))
    # delta method: d(sqrt(m)) = dm / (2 sqrt(m))
    rmspe = math.sqrt(spe.mean())
    npt.assert_allclose(report.rmspe_ci, 1.96 * spe.std(ddof=1) / math.sqrt(40) / (2 * rmspe))
    assert report.rmspe >= report.mape  # RMS dominates the mean


def test_perfect_forecast_and_single_sample():
    report = metrics.evaluate([7.0, 7.0], [7.0, 7.0])
    assert report.mape == report.rmspe == report.maxape == 0.0
    assert report.mape_ci == report.rmspe_ci == 0.0
    single = metrics.evaluate([11.0], [10.0])
    assert single.n == 1
    npt.assert_allclose(single.mape, 10.0)
    assert single.mape_ci == 0.0 and single.rmspe_ci == 0.0


def test_evaluate_rejects_bad_input():
    with pytest.raises(ValueError):
        metrics.evaluate([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        metrics.evaluate([], [])
    with pytest.raises(ValueError, match="strictly positive"):
        metrics.evaluate([1.0], [0.0])
    with pytest.raises(ValueError, match="non-finite"):
        metrics.evaluate([np.nan], [1.0])
