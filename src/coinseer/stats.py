"""Correlation and dispersion statistics for daily signal/price pairs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .ingest import write_csv
from .signals import SignalMatrix

_BETACF_MAX_ITER = 300
_BETACF_EPS = 3e-16
_FPMIN = 1e-300


@dataclass(frozen=True)
class CorrelationReport:
    """Association of one signal column with the price high."""

    pearson_r: float | None
    pearson_p: float | None
    distance_corr: float
    sigma: float
    iqr: float


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    h = d = 1.0 / (d if abs(d) >= _FPMIN else _FPMIN)
    for m in range(1, _BETACF_MAX_ITER + 1):
        # the even then the odd step of the fraction
        for aa in (m * (b - m) * x / ((a - 1.0 + 2 * m) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1.0 + 2 * m))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) >= _FPMIN else _FPMIN)
            c = 1.0 + aa / c
            c = c if abs(c) >= _FPMIN else _FPMIN
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETACF_EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x in (0.0, 1.0):
        return float(x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for T Student-t with ``df`` degrees of freedom."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if t == 0.0:
        return 1.0
    if math.isinf(t):
        return 0.0
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


#: Columns per block in correlation_table; bounds its transient working set.
BLOCK_COLUMNS = 128


def _pair(x, y, least: int) -> tuple[np.ndarray, np.ndarray]:
    xa, ya = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError(f"length mismatch: {xa.shape} vs {ya.shape}")
    if xa.size < least:
        raise ValueError(f"need at least {least} samples, got {xa.size}")
    return xa, ya


def _pearson_rows(x: np.ndarray, yc: np.ndarray) -> np.ndarray:
    """Pearson r of each row of ``x`` with the centred ``yc``; nan where constant."""
    xc = x - x.mean(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.einsum("ij,j->i", xc, yc) / np.sqrt(np.einsum("ij,ij->i", xc, xc) * (yc @ yc))
    return np.where(np.ptp(x, axis=1) > 0.0, np.clip(r, -1.0, 1.0), np.nan)


def _pearson_p(r: float, n: int) -> float:
    if abs(r) == 1.0:
        return 0.0
    return student_t_two_sided_p(r * math.sqrt((n - 2) / (1.0 - r * r)), n - 2)


def pearson(x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray) -> tuple[float, float]:
    """Pearson r and its exact two-sided t-test p-value (at least 3 samples, nonconstant)."""
    xa, ya = _pair(x, y, 3)
    r = float(_pearson_rows(xa[None, :], ya - ya.mean())[0])
    if math.isnan(r) or np.ptp(ya) == 0.0:
        raise ValueError("zero variance input")
    return (r, _pearson_p(r, xa.size))


def _distance_sums(v: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, ...]:
    """Row sums a_i = sum_j |v_i - v_j| of each row of ``v`` (ascending ``order``),
    their total a.. and dVar^2, using sum_ij (v_i - v_j)^2 = 2n sum v^2 - 2 (sum v)^2."""
    n = v.shape[1]
    s = np.take_along_axis(v, order, 1)
    c = np.cumsum(s, axis=1)
    a = np.empty_like(v)
    np.put_along_axis(a, order, s * (2 * np.arange(n) - n + 2) + c[:, -1:] - 2 * c, 1)
    total = a.sum(axis=1)
    sq = 2 * n * np.einsum("ij,ij->i", v, v) - 2 * v.sum(axis=1) ** 2
    return a, total, sq / n**2 - 2 * np.einsum("ij,ij->i", a, a) / n**3 + total**2 / n**4


def _price_side(price: np.ndarray) -> tuple:
    """Price order, sorted centred price, its distance row sums, their total, dVar^2."""
    if price.size < 2:
        raise ValueError(f"need at least 2 samples, got {price.size}")
    order = np.argsort(price, kind="stable")
    ys = (price - price.mean())[order]
    b, total, dvar = _distance_sums(ys[None, :], np.arange(ys.size)[None, :])
    return order, ys, b[0], total[0], dvar[0] if ys[-1] > ys[0] else 0.0


def _distance_correlations(x: np.ndarray, side: tuple) -> np.ndarray:
    """Distance correlation of each row of ``x`` (C order), its columns in
    ascending price order, with the price; exactly 0 for a constant row.

    dCov^2 = S/n^2 - 2 sum_i a_i b_i/n^3 + a.. b../n^4, S = sum_ij a_ij b_ij.
    In price order S = 2 sum_i y_i (2 L_i - a_i), L_i = sum_{j<i} |x_i - x_j|
    = P_i - i x_i + 2 (x_i c_i - s_i), where P_i sums the earlier x_j and
    c_i, s_i count and sum those below x_i. A merge count finds c_i, s_i in
    O(n log n) (Huo & Szekely 2016): in every block of 2**level positions,
    held in ascending x, each right-half row counts the left half below it.
    """
    _, ys, b, b_total, b_dvar = side
    n = x.shape[1]
    k = np.arange(n)
    x = x - x.mean(axis=1, keepdims=True)
    pos = np.argsort(x, axis=1, kind="stable")
    a, a_total, a_dvar = _distance_sums(x, pos)
    half_s = np.einsum("ij,j->i", 2 * (np.cumsum(x, axis=1) - x - k * x) - a, ys)
    rows = np.arange(x.shape[0])[:, None] * n  # flat offsets of the rows
    for level in range((n - 1).bit_length(), 0, -1):
        xv = x.take(pos + rows)
        left = (pos & (1 << level - 1)) == 0
        left_x = xv * left
        count = np.cumsum(left, axis=1) - left
        below = np.cumsum(left_x, axis=1) - left_x
        start = (k >> level) << level
        count -= count[:, start]
        below -= below[:, start]
        half_s += 4 * np.einsum("ij,ij->i", ~left * (xv * count - below), ys[pos])
        # a stable split of every block into its halves orders the next level
        dest = np.where(left, start + count, (1 << level - 1) + k - count)
        np.put(pos_next := np.empty_like(pos), dest + rows, pos)
        pos = pos_next
    dcov2 = 2 * half_s / n**2 - 2 * np.einsum("ij,j->i", a, b) / n**3 + a_total * b_total / n**4
    ok = (np.ptp(x, axis=1) > 0.0) & (b_dvar > 0.0)
    ratio = np.maximum(dcov2[ok], 0.0) / (np.sqrt(a_dvar[ok]) * math.sqrt(b_dvar))
    out = np.zeros(x.shape[0])
    out[ok] = np.minimum(1.0, np.sqrt(ratio))
    return out


def distance_correlation(x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray) -> float:
    """Distance correlation of two equal-length 1-d samples: the biased
    V-statistic, computed in O(n log n); 0 when either is constant."""
    xa, ya = _pair(x, y, 2)
    side = _price_side(ya)
    return float(_distance_correlations(xa.take(side[0])[None, :], side)[0])


def _dispersion_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    q1, q3 = np.quantile(x, [0.25, 0.75], axis=1)
    return np.std(x, ddof=1, axis=1), q3 - q1


def dispersion(x: Sequence[float] | np.ndarray) -> tuple[float, float]:
    """(sample standard deviation, inter-quartile range)."""
    xa = np.asarray(x, dtype=np.float64)
    if xa.ndim != 1 or xa.size < 2:
        raise ValueError("need a 1-d sample of at least 2 values")
    return tuple(float(v[0]) for v in _dispersion_rows(xa[None, :]))


def correlation_table(
    signals: SignalMatrix, price_high: np.ndarray
) -> dict[str, CorrelationReport]:
    """Per-column association of a signal matrix with the price high.

    Pearson fields are None for constant columns (undefined), distance
    correlation is 0 there. The price side is computed once per table.
    """
    price = np.asarray(price_high, dtype=np.float64)
    if price.shape != (len(signals.dates),):
        raise ValueError(f"price length {price.shape} does not match calendar "
                         f"of {len(signals.dates)} days")
    n = price.size
    side = _price_side(price)
    has_r = n >= 3 and np.ptp(price) > 0.0
    table: dict[str, CorrelationReport] = {}
    for lo in range(0, len(signals.columns), BLOCK_COLUMNS):
        x = np.ascontiguousarray(signals.values[:, lo : lo + BLOCK_COLUMNS].T)
        rs = _pearson_rows(x, price - price.mean())
        dcor = _distance_correlations(x.take(side[0], axis=1), side)
        sigma, iqr = _dispersion_rows(x)
        for i, name in enumerate(signals.columns[lo : lo + BLOCK_COLUMNS]):
            r = float(rs[i]) if has_r and not math.isnan(rs[i]) else None
            table[name] = CorrelationReport(
                r, None if r is None else _pearson_p(r, n), float(dcor[i]),
                float(sigma[i]), float(iqr[i]))
    return table


def write_correlation_csv(path: str, table: Mapping[str, CorrelationReport]) -> None:
    """Write a correlation table as CSV; undefined Pearson cells hold ---."""
    rows = ((name, rep.pearson_r, rep.pearson_p, rep.distance_corr, rep.sigma, rep.iqr)
            for name, rep in table.items())
    write_csv(path, ("signal", "pearson_r", "pearson_p", "distance_corr", "sigma", "iqr"),
              (["---" if v is None else v for v in row] for row in rows))
