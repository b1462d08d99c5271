"""Correlation and dispersion statistics against independent oracles."""

from datetime import date, timedelta
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy import stats as sps

from coinseer import stats
from coinseer.signals import SignalMatrix


def brute_distance_correlation(x, y):
    """Direct loop transcription of the distance correlation definition."""
    n = len(x)
    a = np.zeros((n, n))
    b = np.zeros((n, n))
    for k in range(n):
        for l in range(n):
            a[k, l] = abs(x[k] - x[l])
            b[k, l] = abs(y[k] - y[l])
    big_a = np.zeros((n, n))
    big_b = np.zeros((n, n))
    for k in range(n):
        for l in range(n):
            big_a[k, l] = a[k, l] - a[k, :].mean() - a[:, l].mean() + a.mean()
            big_b[k, l] = b[k, l] - b[k, :].mean() - b[:, l].mean() + b.mean()
    dcov2 = (big_a * big_b).sum() / n**2
    dvarx = (big_a * big_a).sum() / n**2
    dvary = (big_b * big_b).sum() / n**2
    if dvarx * dvary == 0:
        return 0.0
    return float(np.sqrt(max(0.0, dcov2) / np.sqrt(dvarx * dvary)))


def test_pearson_known_value():
    r, p = stats.pearson([1, 2, 3, 4, 5], [2, 1, 4, 3, 5])
    npt.assert_allclose(r, 0.8, atol=1e-15)
    npt.assert_allclose(p, 0.10408803866182777, atol=1e-12)


def test_pearson_matches_scipy_on_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(3, 50))
        x = rng.normal(size=n)
        y = rng.normal(size=n) + rng.uniform(-1, 1) * x
        r, p = stats.pearson(x, y)
        want = sps.pearsonr(x, y)
        assert abs(r - want.statistic) < 1e-13
        assert abs(p - want.pvalue) < 1e-10


def test_pearson_perfect_correlation():
    r, p = stats.pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
    assert r == 1.0 and p == 0.0
    r, p = stats.pearson([1.0, 2.0, 3.0], [-2.0, -4.0, -6.0])
    assert r == -1.0 and p == 0.0


def test_pearson_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.pearson([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        stats.pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        stats.pearson([1.0, 2.0, 3.0], [1.0, 2.0])


def test_incomplete_beta_matches_scipy():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = float(rng.uniform(0.5, 40))
        b = float(rng.uniform(0.5, 40))
        x = float(rng.uniform(0, 1))
        npt.assert_allclose(
            stats.regularized_incomplete_beta(a, b, x),
            special.betainc(a, b, x),
            atol=1e-12,
        )


def test_distance_correlation_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = rng.normal(size=10)
        y = rng.normal(size=10)
        npt.assert_allclose(
            stats.distance_correlation(x, y),
            brute_distance_correlation(x, y),
            atol=1e-12,
        )


def test_distance_correlation_edge_cases():
    assert stats.distance_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0
    x = np.arange(8.0)
    npt.assert_allclose(stats.distance_correlation(x, 3 * x + 1), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        stats.distance_correlation([1.0], [2.0])


def test_dispersion_example():
    sigma, iqr = stats.dispersion([2.0, 4.0])
    npt.assert_allclose(sigma, np.sqrt(2.0))
    npt.assert_allclose(iqr, 1.0)


def test_correlation_table_handles_constant_columns(tmp_path):
    days = tuple(date(2021, 1, 1) + timedelta(days=i) for i in range(9))
    rng = np.random.default_rng(3)
    price = rng.uniform(10, 20, 9)
    values = np.column_stack([price * 2 + rng.normal(size=9), np.full(9, 4.0)])
    matrix = SignalMatrix(days, ("tracking", "flat"), values)
    table = stats.correlation_table(matrix, price)
    assert table["tracking"].pearson_r is not None
    assert table["flat"].pearson_r is None
    assert table["flat"].distance_corr == 0.0
    path = tmp_path / "corr.csv"
    stats.write_correlation_csv(str(path), table)
    lines = path.read_text().splitlines()
    assert lines[0] == "signal,pearson_r,pearson_p,distance_corr,sigma,iqr"
    assert lines[2].startswith("flat,---,---,")


def table_of(values, price):
    values = np.asarray(values, dtype=np.float64)
    days = tuple(date(2021, 1, 1) + timedelta(days=i) for i in range(values.shape[0]))
    names = tuple(f"c{i}" for i in range(values.shape[1]))
    return stats.correlation_table(SignalMatrix(days, names, values), np.asarray(price, float))


def assert_table_matches_oracles(values, price):
    """Every column against brute-force dcor, per-pair pearson and scipy."""
    values = np.asarray(values, dtype=np.float64)
    table = table_of(values, price)
    assert list(table) == [f"c{i}" for i in range(values.shape[1])]
    for i, rep in enumerate(table.values()):
        col = values[:, i]
        assert abs(rep.distance_corr - brute_distance_correlation(col, price)) <= 1e-12
        sigma, iqr = stats.dispersion(col)
        assert abs(rep.sigma - sigma) <= 1e-12 and abs(rep.iqr - iqr) <= 1e-12
        if len(col) < 3 or np.ptp(col) == 0 or np.ptp(price) == 0:
            assert rep.pearson_r is None and rep.pearson_p is None
            continue
        r, p = stats.pearson(col, price)
        assert abs(rep.pearson_r - r) <= 1e-12 and abs(rep.pearson_p - p) <= 1e-12
        want = sps.pearsonr(col, price)
        assert abs(rep.pearson_r - want.statistic) <= 1e-12
        assert abs(rep.pearson_p - want.pvalue) <= 1e-10
    return table


def test_correlation_table_matches_oracles_on_tied_and_sparse_columns():
    rng = np.random.default_rng(21)
    n = 30
    price = np.cumsum(rng.normal(size=n)) + 50
    counts = rng.poisson(1.5, size=(n, 6))
    sparse = (rng.random((n, 6)) < 0.1) * rng.random((n, 6))
    sparse[:, 0] = 0.0
    sparse[3, 1] = 0.25
    table = assert_table_matches_oracles(np.column_stack([counts, sparse]), price)
    assert table["c6"].distance_corr == 0.0


def test_correlation_table_with_tied_price():
    rng = np.random.default_rng(22)
    price = rng.integers(0, 4, size=25).astype(float)
    values = np.column_stack([rng.integers(0, 3, size=25), rng.normal(size=25), price])
    table = assert_table_matches_oracles(values, price)
    npt.assert_allclose(table["c2"].distance_corr, 1.0, atol=1e-12)


def test_correlation_table_constant_and_affine_columns():
    rng = np.random.default_rng(23)
    price = rng.uniform(10, 20, 13)
    # the mean of thirteen 0.1s is not exactly 0.1, so centring leaves a nonzero constant
    values = np.column_stack([np.full(13, 0.1), np.zeros(13), 3 * price - 7, -2 * price])
    table = assert_table_matches_oracles(values, price)
    for name in ("c0", "c1"):
        assert table[name].distance_corr == 0.0
        assert table[name].pearson_r is None and table[name].pearson_p is None
    for name in ("c2", "c3"):
        npt.assert_allclose(table[name].distance_corr, 1.0, atol=1e-12)
    assert table["c2"].pearson_r == 1.0 and table["c3"].pearson_r == -1.0
    flat = table_of(values, np.full(13, 5.0))
    assert all(rep.distance_corr == 0.0 and rep.pearson_r is None for rep in flat.values())


@pytest.mark.parametrize("n", [2, 3])
def test_correlation_table_on_two_and_three_days(n):
    rng = np.random.default_rng(24 + n)
    price = rng.normal(size=n)
    values = np.column_stack([rng.normal(size=n), rng.integers(0, 2, size=n), np.ones(n)])
    assert_table_matches_oracles(values, price)


@pytest.mark.parametrize("columns", [1, stats.BLOCK_COLUMNS + 1, 3 * stats.BLOCK_COLUMNS + 2])
def test_correlation_table_across_column_blocks(columns):
    rng = np.random.default_rng(columns)
    n = 8
    price = rng.integers(0, 6, size=n).astype(float)
    values = rng.integers(0, 3, size=(n, columns)) * rng.uniform(0.5, 2.0, size=columns)
    assert_table_matches_oracles(values, price)


def exact_distance_correlation(x, y):
    """The definition in exact rational arithmetic; exact for float inputs."""
    n = len(x)

    def centred(v):
        v = [Fraction(float(t)) for t in v]
        d = [[abs(p - q) for q in v] for p in v]
        rows = [sum(r) / n for r in d]
        mean = sum(rows) / n
        return [[d[k][l] - rows[k] - rows[l] + mean for l in range(n)] for k in range(n)]

    a, b = centred(x), centred(y)
    dcov2, varx, vary = (sum(p * q for rp, rq in zip(u, w) for p, q in zip(rp, rq))
                         for u, w in ((a, b), (a, a), (b, b)))
    if dcov2 <= 0 or varx * vary == 0:
        return 0.0
    return float(dcov2 * dcov2 / (varx * vary)) ** 0.25


small_values = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.25, 3.0, -2.0])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 12).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(small_values, min_size=n, max_size=n), min_size=1, max_size=4),
            st.lists(small_values, min_size=n, max_size=n),
        )
    ),
    st.sampled_from([0.25, 1.0, 3.0, 1000.0]),
    st.integers(-100, 100),
)
def test_distance_correlation_property(data, scale, shift):
    columns, price = data
    values = np.array(columns).T
    price = np.array(price)
    table = table_of(values, price)
    moved = table_of(scale * values + shift, price)
    for i, name in enumerate(table):
        col = values[:, i]
        got = table[name].distance_corr
        assert abs(got - exact_distance_correlation(col, price)) <= 1e-12
        # brute force rounds dCov^2 = 0 to about 1e-18, whose square root is
        # far off, so it is compared before the root
        assert abs(got**2 - brute_distance_correlation(col, price) ** 2) <= 1e-12
        assert abs(moved[name].distance_corr - got) <= 1e-12
        assert stats.distance_correlation(col, price) == got
