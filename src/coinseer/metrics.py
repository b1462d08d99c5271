"""Percentage-error forecast metrics with normal-approximation intervals."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MetricsReport:
    """Error summary of one forecast run.

    mape, maxape, and rmspe are percentages; mspe is percent squared;
    rmse is in price units. The _ci fields are 95% half-widths from a
    normal approximation: on the mean absolute percentage error for
    mape, and for rmspe the half-width on the mean squared percentage
    error over 2 * rmspe (the delta method). Both are 0 with fewer than
    two samples, and rmspe_ci is 0 when rmspe is.
    """

    n: int
    mape: float
    mape_ci: float
    maxape: float
    mspe: float
    rmspe: float
    rmspe_ci: float
    rmse: float


def evaluate(predictions: np.ndarray, truth: np.ndarray) -> MetricsReport:
    """Score predictions against strictly positive true values."""
    preds = np.asarray(predictions, dtype=np.float64)
    true = np.asarray(truth, dtype=np.float64)
    if preds.shape != true.shape or preds.ndim != 1:
        raise ValueError(f"shape mismatch: {preds.shape} vs {true.shape}")
    n = preds.size
    if n < 1:
        raise ValueError("nothing to evaluate")
    if np.any(true <= 0):
        raise ValueError("true values must be strictly positive")
    if not (np.all(np.isfinite(preds)) and np.all(np.isfinite(true))):
        raise ValueError("non-finite values")
    frac = (preds - true) / true
    ape = 100.0 * np.abs(frac)
    spe = (100.0 * frac) ** 2
    mape = float(ape.mean())
    mspe = float(spe.mean())
    rmspe = math.sqrt(mspe)
    mape_ci = rmspe_ci = 0.0
    if n >= 2:
        mape_ci = 1.96 * float(ape.std(ddof=1)) / math.sqrt(n)
        if rmspe > 0.0:
            rmspe_ci = 1.96 * float(spe.std(ddof=1)) / math.sqrt(n) / (2.0 * rmspe)
    return MetricsReport(
        n=n,
        mape=mape,
        mape_ci=mape_ci,
        maxape=float(ape.max()),
        mspe=mspe,
        rmspe=rmspe,
        rmspe_ci=rmspe_ci,
        rmse=float(np.sqrt(((preds - true) ** 2).mean())),
    )
