"""Autoregressive baseline on once-differenced series, least-squares fit."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import evaluate


@dataclass(frozen=True)
class ArimaModel:
    """AR(p) with intercept on the first difference of the series."""

    p: int
    intercept: float
    ar_coeffs: np.ndarray

    def __post_init__(self) -> None:
        if self.ar_coeffs.shape != (self.p,):
            raise ValueError(f"expected {self.p} AR coefficients")
        self.ar_coeffs.flags.writeable = False


def fit(y: np.ndarray, p: int) -> ArimaModel:
    """Conditional least squares on the differenced series.

    Solves the normal equations for d_t = c + phi_1 d_(t-1) + ... +
    phi_p d_(t-p). Raises ArithmeticError when the normal equations are
    singular (constant series, collinear lags).
    """
    ya = np.asarray(y, dtype=np.float64)
    if ya.ndim != 1:
        raise ValueError("need a 1-d series")
    if not np.all(np.isfinite(ya)):
        raise ValueError("non-finite values in series")
    if p < 0:
        raise ValueError(f"lag order must be nonnegative, got {p}")
    dy = np.diff(ya)
    rows = dy.size - p
    if rows < p + 1:
        raise ValueError(
            f"series of {ya.size} values too short to fit lag order {p}"
        )
    design = np.empty((rows, p + 1), dtype=np.float64)
    design[:, 0] = 1.0
    for lag in range(1, p + 1):
        design[:, lag] = dy[p - lag : p - lag + rows]
    target = dy[p:]
    gram = design.T @ design
    moment = design.T @ target
    try:
        beta = np.linalg.solve(gram, moment)
    except np.linalg.LinAlgError:
        raise ArithmeticError("singular normal equations") from None
    if not np.all(np.isfinite(beta)):
        raise ArithmeticError("singular normal equations")
    return ArimaModel(
        p=p,
        intercept=float(beta[0]),
        ar_coeffs=beta[1:].copy(),
    )


def forecast(model: ArimaModel, history: np.ndarray, j: int) -> float:
    """Iterated j-step-ahead forecast from the end of ``history``.

    Each step predicts the next difference from the model and the j-1
    already-predicted differences, then accumulates onto the last level.
    """
    if j < 1:
        raise ValueError(f"horizon must be positive, got {j}")
    h = np.asarray(history, dtype=np.float64)
    if h.ndim != 1 or h.size < model.p + 1:
        raise ValueError(
            f"history must hold at least {model.p + 1} values, got {h.size}"
        )
    if not np.all(np.isfinite(h)):
        raise ValueError("non-finite values in history")
    diffs = list(np.diff(h[-(model.p + 1) :])) if model.p else []
    level = float(h[-1])
    for _ in range(j):
        step = model.intercept
        for i in range(model.p):
            step += float(model.ar_coeffs[i]) * diffs[-1 - i]
        level += step
        if model.p:
            diffs.append(step)
            diffs.pop(0)
    return level


def select_lag(y_train: np.ndarray, max_p: int = 5) -> int:
    """Lag order with the best one-step holdout RMSPE.

    Fits each candidate once on the first 80% of the series, walks
    one-step forecasts across the chronological last 20% with the true
    history, and keeps the smallest lag on ties. Candidates whose fit
    fails (too short, singular) are skipped.
    """
    ya = np.asarray(y_train, dtype=np.float64)
    if max_p < 0:
        raise ValueError(f"max_p must be nonnegative, got {max_p}")
    n = ya.size
    n_hold = max(1, int(np.floor(0.2 * n)))
    head = ya[: n - n_hold]
    if head.size < 2:
        raise ValueError(f"series of {n} values too short for lag selection")
    best_p = None
    best_rmspe = np.inf
    for p in range(max_p + 1):
        try:
            model = fit(head, p)
        except (ValueError, ArithmeticError):
            continue
        preds = np.array(
            [forecast(model, ya[:t], 1) for t in range(n - n_hold, n)]
        )
        rmspe = evaluate(preds, ya[n - n_hold :]).rmspe
        if rmspe < best_rmspe:
            best_rmspe = rmspe
            best_p = p
    if best_p is None:
        raise ValueError("no candidate lag order could be fitted")
    return best_p
